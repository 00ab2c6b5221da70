//! The deterministic interleaving scheduler and its exploration drivers.
//!
//! One model *execution* runs the checked closure on real OS threads, but
//! only one thread is ever runnable: every instrumented operation (lock,
//! condvar wait/notify, atomic access, spawn, join) is a *scheduling
//! point* where the baton may pass to another thread. Given the sequence
//! of choices made at those points, an execution is fully deterministic —
//! which is what makes exhaustive exploration and replay possible.
//!
//! Exploration is DFS over the choice tree with a CHESS-style
//! *preemption bound*: schedules are explored in rounds of 0, 1, …, `b`
//! preemptions (a preemption = switching away from a thread that could
//! have kept running). Because each round is exhaustive before the next
//! begins, the first failing schedule found uses the minimum number of
//! preemptions that can trigger the failure — the printed schedule is
//! minimized in that sense. A seeded-random driver covers state spaces
//! too large to exhaust.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, OnceLock, PoisonError, Weak};

/// What a blocked-or-running model thread is currently doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Run {
    /// Eligible to receive the baton.
    Runnable,
    /// Parked in a mutex wait queue (woken by ownership handoff).
    BlockedMutex,
    /// Parked in a rwlock wait queue.
    BlockedRw,
    /// Parked on a condvar (woken by notify, then re-queued on the
    /// condvar's mutex).
    BlockedCv,
    /// Waiting for another thread to finish.
    BlockedJoin(usize),
    /// Done (normally or by panic).
    Finished,
}

/// Model state of one [`crate::sync::Mutex`]: ownership is handed off
/// FIFO on release, so a woken waiter owns the lock when it next runs.
/// (Real mutexes barge; the model explores the FIFO subset — see the
/// crate docs for the soundness notes.)
#[derive(Default)]
struct MuState {
    owner: Option<usize>,
    waiters: VecDeque<usize>,
}

/// Model state of one [`crate::sync::RwLock`]: shared readers XOR one
/// writer, FIFO queue, consecutive readers granted together.
#[derive(Default)]
struct RwState {
    writer: Option<usize>,
    readers: Vec<usize>,
    /// `(tid, wants_write)` in arrival order.
    waiters: VecDeque<(usize, bool)>,
}

/// Model state of one [`crate::sync::Condvar`]: waiters in wait order,
/// each remembering the mutex it must re-acquire.
#[derive(Default)]
struct CvState {
    waiters: VecDeque<(usize, usize)>,
}

/// One observed scheduling point with more than one runnable thread.
#[derive(Clone, Debug)]
pub(crate) struct Decision {
    /// Runnable thread ids, ascending.
    enabled: Vec<usize>,
    /// The thread the driver picked.
    chosen: usize,
    /// The thread that held the baton when the decision was made.
    was_active: usize,
    /// Whether `was_active` was itself still runnable (so that choosing
    /// someone else counts as a preemption).
    active_enabled: bool,
}

impl Decision {
    /// Alternatives in DFS order: the non-preemptive default first.
    fn canonical_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.enabled.len());
        if self.active_enabled {
            order.push(self.was_active);
        }
        for &t in &self.enabled {
            if !order.contains(&t) {
                order.push(t);
            }
        }
        order
    }

    fn preemptive(&self, choice: usize) -> bool {
        self.active_enabled && choice != self.was_active
    }
}

/// The per-execution choice source.
enum Driver {
    /// DFS: follow `prefix`, then always take the non-preemptive default.
    Dfs { prefix: Vec<usize>, pos: usize },
    /// Replay a recorded schedule verbatim (defaulting past its end).
    Replay { schedule: Vec<usize>, pos: usize },
    /// Seeded-random choice at every decision point.
    Random(rand::rngs::SmallRng),
}

impl Driver {
    fn choose(&mut self, enabled: &[usize], was_active: usize) -> usize {
        let default = || {
            if enabled.contains(&was_active) {
                was_active
            } else {
                enabled[0]
            }
        };
        match self {
            Driver::Dfs { prefix, pos } | Driver::Replay { schedule: prefix, pos } => {
                if *pos < prefix.len() {
                    let c = prefix[*pos];
                    *pos += 1;
                    if enabled.contains(&c) {
                        c
                    } else {
                        default()
                    }
                } else {
                    default()
                }
            }
            Driver::Random(rng) => {
                use rand::Rng;
                enabled[rng.gen_range(0..enabled.len())]
            }
        }
    }
}

/// A failure found by the checker, with the schedule that reproduces it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The panic message (assertion text) or scheduler diagnosis
    /// (deadlock, step budget).
    pub message: String,
    /// Comma-separated thread choices at each multi-way scheduling point;
    /// feed to [`replay`] to reproduce the failure deterministically.
    pub schedule: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model failure: {}\n  schedule: \"{}\" (replay with tcs_verify::replay)",
            self.message, self.schedule
        )
    }
}

/// Exploration strategy.
#[derive(Clone, Debug)]
pub enum Mode {
    /// DFS over every schedule within the preemption bound.
    Exhaustive,
    /// `executions` runs with seeded-random choices — the fallback for
    /// state spaces too large to exhaust.
    Random {
        /// RNG seed (same seed ⇒ same run sequence).
        seed: u64,
        /// How many random executions to run.
        executions: u64,
    },
}

/// Checker configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Maximum preemptions per schedule in [`Mode::Exhaustive`]
    /// (CHESS-style bound; rounds of 0..=bound are explored in order, so
    /// a reported failure uses the fewest preemptions possible).
    pub preemption_bound: usize,
    /// Hard cap on executions; hitting it marks the report incomplete.
    pub max_executions: u64,
    /// Per-execution scheduling-point budget (live-lock guard).
    pub max_steps: u64,
    /// Exhaustive DFS or seeded-random sampling.
    pub mode: Mode,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemption_bound: 2,
            max_executions: 200_000,
            max_steps: 1_000_000,
            mode: Mode::Exhaustive,
        }
    }
}

impl Options {
    /// Exhaustive exploration at the given preemption bound.
    pub fn exhaustive(preemption_bound: usize) -> Self {
        Options { preemption_bound, ..Options::default() }
    }

    /// Seeded-random sampling of `executions` schedules.
    pub fn random(seed: u64, executions: u64) -> Self {
        Options { mode: Mode::Random { seed, executions }, ..Options::default() }
    }
}

/// The checker's verdict.
#[derive(Debug)]
pub struct Report {
    /// Executions actually run.
    pub executions: u64,
    /// Whether the state space was exhausted (always false in
    /// [`Mode::Random`] and when `max_executions` was hit).
    pub complete: bool,
    /// The first failure found, if any, with its replayable schedule.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics (printing the minimized schedule) if a failure was found.
    #[track_caller]
    pub fn assert_pass(&self) {
        if let Some(f) = &self.failure {
            panic!("{f}\n  ({} executions explored before the failure)", self.executions);
        }
    }

    /// Panics if NO failure was found — for tests that pin a known-bad
    /// protocol shape as permanently caught by the checker.
    #[track_caller]
    pub fn assert_fails(&self) -> &Failure {
        match &self.failure {
            Some(f) => f,
            None => panic!(
                "model checker found no failure in {} executions (expected one)",
                self.executions
            ),
        }
    }
}

/// Marker payload for scheduler-initiated thread teardown: when one
/// thread fails, every other thread is unwound with this payload and the
/// panic is swallowed by the execution harness.
struct ModelAbort;

pub(crate) struct Core {
    threads: Vec<Run>,
    active: usize,
    aborting: bool,
    steps: u64,
    max_steps: u64,
    driver: Driver,
    trace: Vec<Decision>,
    failure: Option<String>,
    mutexes: Vec<MuState>,
    rwlocks: Vec<RwState>,
    condvars: Vec<CvState>,
}

impl Core {
    fn enabled(&self) -> Vec<usize> {
        (0..self.threads.len()).filter(|&t| self.threads[t] == Run::Runnable).collect()
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|&t| t == Run::Finished)
    }

    /// Picks the next baton holder after the calling thread updated its
    /// own state. Returns false when the execution must abort (deadlock,
    /// budget, or a failure elsewhere).
    fn reschedule(&mut self, _me: usize) -> bool {
        if self.aborting {
            return false;
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.fail(format!("scheduling-point budget exceeded ({} steps)", self.max_steps));
            return false;
        }
        let enabled = self.enabled();
        match enabled.len() {
            0 => {
                if self.all_finished() {
                    true // execution over; controller wakes on notify
                } else {
                    let states: Vec<String> = self
                        .threads
                        .iter()
                        .enumerate()
                        .map(|(t, s)| format!("t{t}:{s:?}"))
                        .collect();
                    self.fail(format!(
                        "deadlock: no runnable thread (lost wakeup or lock cycle) [{}]",
                        states.join(", ")
                    ));
                    false
                }
            }
            1 => {
                self.active = enabled[0];
                true
            }
            _ => {
                // `me` holds the baton, so `was_active == me`; choosing
                // another thread while `me` could continue is the
                // preemption the bound counts.
                let was_active = self.active;
                let active_enabled = enabled.contains(&was_active);
                let chosen = self.driver.choose(&enabled, was_active);
                self.trace.push(Decision { enabled, chosen, was_active, active_enabled });
                self.active = chosen;
                true
            }
        }
    }

    fn fail(&mut self, message: String) {
        if self.failure.is_none() {
            self.failure = Some(message);
        }
        self.aborting = true;
    }

    /// Release one mutex: FIFO ownership handoff.
    fn mutex_release(&mut self, obj: usize, me: usize) {
        let mu = &mut self.mutexes[obj];
        debug_assert_eq!(mu.owner, Some(me), "release by the owner");
        if let Some(w) = mu.waiters.pop_front() {
            mu.owner = Some(w);
            self.threads[w] = Run::Runnable;
        } else {
            mu.owner = None;
        }
    }

    /// Grant the rwlock to as many queue heads as compatible.
    fn rw_grant(&mut self, obj: usize) {
        let rw = &mut self.rwlocks[obj];
        while let Some(&(t, wants_write)) = rw.waiters.front() {
            if wants_write {
                if rw.writer.is_none() && rw.readers.is_empty() {
                    rw.waiters.pop_front();
                    rw.writer = Some(t);
                    self.threads[t] = Run::Runnable;
                }
                break;
            } else if rw.writer.is_none() {
                rw.waiters.pop_front();
                rw.readers.push(t);
                self.threads[t] = Run::Runnable;
            } else {
                break;
            }
        }
    }
}

pub(crate) struct Shared {
    pub(crate) core: StdMutex<Core>,
    pub(crate) cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

fn lock_core(shared: &Shared) -> std::sync::MutexGuard<'_, Core> {
    shared.core.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Per-thread context: model threads carry a handle to their run's shared
// scheduler; instrumented primitives look it up here.
// ---------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) tid: usize,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
    static IN_MODEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

pub(crate) fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// A sync object's link back to the model run it was created under:
/// `None` for objects created off model threads, a weak run handle plus
/// the object's scheduler id otherwise. Weak so leaked objects never keep
/// a finished run alive.
pub(crate) type ModelRef = Option<(Weak<Shared>, usize)>;

/// Resolves an object's [`ModelRef`] against the calling thread: model
/// semantics apply only when the thread is in a model run *and* the
/// object belongs to that same run. Everything else (off-model threads,
/// objects that outlived their run) falls back to real primitives.
pub(crate) fn resolve(model: &ModelRef) -> Option<(Ctx, usize)> {
    let (weak, id) = model.as_ref()?;
    let ctx = current()?;
    let run = weak.upgrade()?;
    if Arc::ptr_eq(&run, &ctx.shared) {
        Some((ctx, *id))
    } else {
        None
    }
}

/// Installs (once) a panic hook that silences panics raised on model
/// threads — exploration intentionally drives assertions to failure and
/// the harness reports them with their schedule instead.
fn install_quiet_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_MODEL.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Scheduling operations, called by model threads (baton in hand).
// ---------------------------------------------------------------------

/// Parks the calling thread until it holds the baton again. The core
/// lock is handed in and returned so callers can compose state changes
/// with the wait atomically. Panics with [`ModelAbort`] when the
/// execution is being torn down.
fn wait_for_baton<'a>(
    shared: &'a Shared,
    mut core: std::sync::MutexGuard<'a, Core>,
    me: usize,
) -> std::sync::MutexGuard<'a, Core> {
    shared.cv.notify_all();
    loop {
        if core.aborting {
            drop(core);
            std::panic::panic_any(ModelAbort);
        }
        if core.active == me && core.threads[me] == Run::Runnable {
            return core;
        }
        core = shared.cv.wait(core).unwrap_or_else(PoisonError::into_inner);
    }
}

/// One scheduling point: lets the scheduler move the baton, then waits
/// until this thread runs again. Called *before* each visible operation.
pub(crate) fn yield_point(ctx: &Ctx) {
    let shared = &*ctx.shared;
    let core = lock_core(shared);
    let mut core = core;
    if !core.reschedule(ctx.tid) {
        drop(core);
        std::panic::panic_any(ModelAbort);
    }
    core = wait_for_baton(shared, core, ctx.tid);
    drop(core);
}

/// Public form of `yield_point` for instrumented atomics: a no-op off
/// model threads.
pub fn maybe_yield() {
    if let Some(ctx) = current() {
        yield_point(&ctx);
    }
}

// Object registration -------------------------------------------------

pub(crate) fn register_mutex() -> ModelRef {
    current().map(|ctx| {
        let mut core = lock_core(&ctx.shared);
        core.mutexes.push(MuState::default());
        (Arc::downgrade(&ctx.shared), core.mutexes.len() - 1)
    })
}

pub(crate) fn register_rwlock() -> ModelRef {
    current().map(|ctx| {
        let mut core = lock_core(&ctx.shared);
        core.rwlocks.push(RwState::default());
        (Arc::downgrade(&ctx.shared), core.rwlocks.len() - 1)
    })
}

pub(crate) fn register_condvar() -> ModelRef {
    current().map(|ctx| {
        let mut core = lock_core(&ctx.shared);
        core.condvars.push(CvState::default());
        (Arc::downgrade(&ctx.shared), core.condvars.len() - 1)
    })
}

// Mutex ---------------------------------------------------------------

pub(crate) fn mutex_lock(ctx: &Ctx, obj: usize) {
    yield_point(ctx);
    let shared = &*ctx.shared;
    let mut core = lock_core(shared);
    if core.mutexes[obj].owner.is_none() {
        core.mutexes[obj].owner = Some(ctx.tid);
        return;
    }
    core.mutexes[obj].waiters.push_back(ctx.tid);
    core.threads[ctx.tid] = Run::BlockedMutex;
    if !core.reschedule(ctx.tid) {
        drop(core);
        std::panic::panic_any(ModelAbort);
    }
    core = wait_for_baton(shared, core, ctx.tid);
    debug_assert_eq!(core.mutexes[obj].owner, Some(ctx.tid), "FIFO handoff granted the lock");
    drop(core);
}

pub(crate) fn mutex_unlock(ctx: &Ctx, obj: usize) {
    let mut core = lock_core(&ctx.shared);
    core.mutex_release(obj, ctx.tid);
    drop(core);
    // Releases are not scheduling points: the next visible op of this
    // thread yields, which is where a woken waiter can be scheduled.
}

// RwLock --------------------------------------------------------------

pub(crate) fn rw_lock(ctx: &Ctx, obj: usize, write: bool) {
    yield_point(ctx);
    let shared = &*ctx.shared;
    let mut core = lock_core(shared);
    let free_now = {
        let rw = &core.rwlocks[obj];
        let no_queue = rw.waiters.is_empty();
        if write {
            rw.writer.is_none() && rw.readers.is_empty() && no_queue
        } else {
            rw.writer.is_none() && no_queue
        }
    };
    if free_now {
        let rw = &mut core.rwlocks[obj];
        if write {
            rw.writer = Some(ctx.tid);
        } else {
            rw.readers.push(ctx.tid);
        }
        return;
    }
    core.rwlocks[obj].waiters.push_back((ctx.tid, write));
    core.threads[ctx.tid] = Run::BlockedRw;
    if !core.reschedule(ctx.tid) {
        drop(core);
        std::panic::panic_any(ModelAbort);
    }
    core = wait_for_baton(shared, core, ctx.tid);
    drop(core);
}

pub(crate) fn rw_unlock(ctx: &Ctx, obj: usize, write: bool) {
    let mut core = lock_core(&ctx.shared);
    {
        let rw = &mut core.rwlocks[obj];
        if write {
            debug_assert_eq!(rw.writer, Some(ctx.tid));
            rw.writer = None;
        } else {
            let pos = rw.readers.iter().position(|&t| t == ctx.tid);
            debug_assert!(pos.is_some(), "read-unlock by a reader");
            if let Some(p) = pos {
                rw.readers.swap_remove(p);
            }
        }
    }
    core.rw_grant(obj);
    drop(core);
}

// Condvar -------------------------------------------------------------

/// Atomically releases `mu` and waits on `cv`; on return the calling
/// thread owns `mu` again.
pub(crate) fn cv_wait(ctx: &Ctx, cv: usize, mu: usize) {
    let shared = &*ctx.shared;
    let mut core = lock_core(shared);
    core.mutex_release(mu, ctx.tid);
    core.condvars[cv].waiters.push_back((ctx.tid, mu));
    core.threads[ctx.tid] = Run::BlockedCv;
    if !core.reschedule(ctx.tid) {
        drop(core);
        std::panic::panic_any(ModelAbort);
    }
    core = wait_for_baton(shared, core, ctx.tid);
    debug_assert_eq!(core.mutexes[mu].owner, Some(ctx.tid), "woken waiter re-owns its mutex");
    drop(core);
}

pub(crate) fn cv_notify(ctx: &Ctx, cv: usize, all: bool) {
    let mut core = lock_core(&ctx.shared);
    while let Some((t, mu)) = core.condvars[cv].waiters.pop_front() {
        // The woken waiter must re-acquire its mutex before running.
        if core.mutexes[mu].owner.is_none() {
            core.mutexes[mu].owner = Some(t);
            core.threads[t] = Run::Runnable;
        } else {
            core.mutexes[mu].waiters.push_back(t);
            core.threads[t] = Run::BlockedMutex;
        }
        if !all {
            break;
        }
    }
    drop(core);
}

// Spawn / join / finish ------------------------------------------------

/// Registers and starts a new model thread running `f`; returns its tid.
pub(crate) fn spawn_thread(ctx: &Ctx, f: impl FnOnce() + Send + 'static) -> usize {
    let tid = {
        let mut core = lock_core(&ctx.shared);
        core.threads.push(Run::Runnable);
        core.threads.len() - 1
    };
    let shared = Arc::clone(&ctx.shared);
    let handle = std::thread::spawn(move || run_model_thread(shared, tid, f));
    ctx.shared.handles.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
    // The child is now an alternative at every later decision; give the
    // scheduler the chance to run it immediately too.
    yield_point(ctx);
    tid
}

/// Blocks until thread `target` finishes.
pub(crate) fn join_thread(ctx: &Ctx, target: usize) {
    yield_point(ctx);
    let shared = &*ctx.shared;
    let mut core = lock_core(shared);
    if core.threads[target] == Run::Finished {
        return;
    }
    core.threads[ctx.tid] = Run::BlockedJoin(target);
    if !core.reschedule(ctx.tid) {
        drop(core);
        std::panic::panic_any(ModelAbort);
    }
    core = wait_for_baton(shared, core, ctx.tid);
    drop(core);
}

/// Body wrapper for every model thread: waits for its first baton, runs
/// `f` under `catch_unwind`, records failures, and hands the baton on.
fn run_model_thread(shared: Arc<Shared>, tid: usize, f: impl FnOnce() + Send) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Ctx { shared: Arc::clone(&shared), tid }));
    IN_MODEL.with(|flag| flag.set(true));
    // Initial baton wait; an abort arriving first skips the body.
    let started = {
        let mut core = lock_core(&shared);
        loop {
            if core.aborting {
                break false;
            }
            if core.active == tid && core.threads[tid] == Run::Runnable {
                break true;
            }
            core = shared.cv.wait(core).unwrap_or_else(PoisonError::into_inner);
        }
    };
    if started {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        if let Err(payload) = result {
            if payload.downcast_ref::<ModelAbort>().is_none() {
                lock_core(&shared).fail(payload_str(&*payload));
            }
        }
    }
    let mut core = lock_core(&shared);
    core.threads[tid] = Run::Finished;
    // Wake joiners.
    for t in 0..core.threads.len() {
        if core.threads[t] == Run::BlockedJoin(tid) {
            core.threads[t] = Run::Runnable;
        }
    }
    let _ = core.reschedule(tid); // abort or baton handoff; either way we exit
    drop(core);
    shared.cv.notify_all();
    CURRENT.with(|c| *c.borrow_mut() = None);
}

// ---------------------------------------------------------------------
// Execution driver + explorer
// ---------------------------------------------------------------------

/// Runs one execution of `f` under `driver`; returns the decision trace
/// and the failure, if any.
fn run_one<F>(f: &Arc<F>, driver: Driver, max_steps: u64) -> (Vec<Decision>, Option<String>)
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let shared = Arc::new(Shared {
        core: StdMutex::new(Core {
            threads: vec![Run::Runnable],
            active: 0,
            aborting: false,
            steps: 0,
            max_steps,
            driver,
            trace: Vec::new(),
            failure: None,
            mutexes: Vec::new(),
            rwlocks: Vec::new(),
            condvars: Vec::new(),
        }),
        cv: StdCondvar::new(),
        handles: StdMutex::new(Vec::new()),
    });
    let root = {
        let shared = Arc::clone(&shared);
        let f = Arc::clone(f);
        std::thread::spawn(move || run_model_thread(shared, 0, move || f()))
    };
    // Controller: wait for every model thread to finish. Aborts unblock
    // parked threads through `wait_for_baton`, so finishing is
    // guaranteed.
    {
        let mut core = lock_core(&shared);
        while !core.all_finished() {
            core = shared.cv.wait(core).unwrap_or_else(PoisonError::into_inner);
        }
        drop(core);
    }
    let _ = root.join();
    loop {
        let h = shared.handles.lock().unwrap_or_else(PoisonError::into_inner).pop();
        match h {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    let mut core = lock_core(&shared);
    let trace = std::mem::take(&mut core.trace);
    let failure = core.failure.take();
    (trace, failure)
}

/// The schedule string of a trace: chosen tids at multi-way points.
fn schedule_of(trace: &[Decision]) -> String {
    trace.iter().map(|d| d.chosen.to_string()).collect::<Vec<_>>().join(",")
}

/// DFS backtracking: the next prefix to explore within `bound`
/// preemptions, or `None` when this round's space is exhausted.
fn next_prefix(trace: &[Decision], bound: usize) -> Option<Vec<usize>> {
    // Cumulative preemptions BEFORE each decision.
    let mut pre = Vec::with_capacity(trace.len());
    let mut acc = 0usize;
    for d in trace {
        pre.push(acc);
        if d.preemptive(d.chosen) {
            acc += 1;
        }
    }
    for d in (0..trace.len()).rev() {
        let dec = &trace[d];
        let order = dec.canonical_order();
        let idx = order.iter().position(|&t| t == dec.chosen)?;
        for &alt in &order[idx + 1..] {
            let cost = pre[d] + usize::from(dec.preemptive(alt));
            if cost <= bound {
                let mut p: Vec<usize> = trace[..d].iter().map(|x| x.chosen).collect();
                p.push(alt);
                return Some(p);
            }
        }
    }
    None
}

/// Explores interleavings of `f` per `opts` and reports the verdict.
///
/// `f` is run once per schedule, on fresh threads each time; it must be
/// self-contained (build its own shared state internally) and
/// deterministic apart from scheduling.
pub fn check<F>(opts: Options, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut executions = 0u64;
    match opts.mode {
        Mode::Exhaustive => {
            // Iterative deepening over the preemption budget: round `b`
            // is exhaustive, so the first failure found is minimal in
            // preemptions.
            for bound in 0..=opts.preemption_bound {
                let mut prefix: Vec<usize> = Vec::new();
                loop {
                    if executions >= opts.max_executions {
                        return Report { executions, complete: false, failure: None };
                    }
                    let driver = Driver::Dfs { prefix: prefix.clone(), pos: 0 };
                    let (trace, failure) = run_one(&f, driver, opts.max_steps);
                    executions += 1;
                    if let Some(message) = failure {
                        return Report {
                            executions,
                            complete: false,
                            failure: Some(Failure { message, schedule: schedule_of(&trace) }),
                        };
                    }
                    match next_prefix(&trace, bound) {
                        Some(p) => prefix = p,
                        None => break,
                    }
                }
            }
            Report { executions, complete: true, failure: None }
        }
        Mode::Random { seed, executions: n } => {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            for _ in 0..n.min(opts.max_executions) {
                use rand::Rng;
                let sub = rand::rngs::SmallRng::seed_from_u64(rng.gen());
                let (trace, failure) = run_one(&f, Driver::Random(sub), opts.max_steps);
                executions += 1;
                if let Some(message) = failure {
                    return Report {
                        executions,
                        complete: false,
                        failure: Some(Failure { message, schedule: schedule_of(&trace) }),
                    };
                }
            }
            Report { executions, complete: false, failure: None }
        }
    }
}

/// Replays one recorded schedule (the `schedule` string of a
/// [`Failure`]) against `f`; returns the failure it reproduces, if any.
pub fn replay<F>(schedule: &str, f: F) -> Option<Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let parsed: Vec<usize> = schedule
        .split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let f = Arc::new(f);
    let driver = Driver::Replay { schedule: parsed, pos: 0 };
    let (trace, failure) = run_one(&f, driver, Options::default().max_steps);
    failure.map(|message| Failure { message, schedule: schedule_of(&trace) })
}
