//! Span recorder for the traced run.
//!
//! Spans are recorded from `bench/` only, around calls into the layers'
//! public functions: name, start, end, parent. Each thread keeps a span
//! stack and an aggregate table keyed by (name, parent): count, total
//! time, self time (duration minus the part its child spans cover) and a
//! log2 histogram. The raw spans of the first [`RAW_TRACES`] traces (one
//! trace per arrival on the bare stack, per call on the others) are kept
//! in a preallocated buffer. Nothing is written until the run ends.
//!
//! Worker threads (`sharded_mixed`) accumulate their own tables and merge
//! them into a process-wide one when they exit.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span names: one per layer boundary the benchmark can see from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root of one arrival's trace on the bare stack.
    Arrival = 0,
    /// Root of one call's trace on the multi and sharded stacks.
    Batch,
    WindowAdvance,
    EngineExpire,
    EngineInsert,
    MultiAdvance,
    ShardProcess,
    /// The subscriber side: digesting what a call delivered.
    Deliver,
    StoreProbe,
    StoreInsert,
    StoreExpire,
    StoreExpand,
}

pub const N_NAMES: usize = 12;
/// Parent slot of a span that is the first on its thread's stack.
pub const TOP: usize = N_NAMES;
const ALL: [Name; N_NAMES] = [
    Name::Arrival,
    Name::Batch,
    Name::WindowAdvance,
    Name::EngineExpire,
    Name::EngineInsert,
    Name::MultiAdvance,
    Name::ShardProcess,
    Name::Deliver,
    Name::StoreProbe,
    Name::StoreInsert,
    Name::StoreExpire,
    Name::StoreExpand,
];

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Arrival => "arrival",
            Name::Batch => "batch",
            Name::WindowAdvance => "window.advance",
            Name::EngineExpire => "engine.expire",
            Name::EngineInsert => "engine.insert",
            Name::MultiAdvance => "multi.advance",
            Name::ShardProcess => "shard.process",
            Name::Deliver => "deliver",
            Name::StoreProbe => "store.probe",
            Name::StoreInsert => "store.insert",
            Name::StoreExpire => "store.expire",
            Name::StoreExpand => "store.expand",
        }
    }
}

pub fn parent_label(slot: usize) -> &'static str {
    if slot == TOP {
        "-"
    } else {
        ALL[slot].label()
    }
}

pub const HIST_BUCKETS: usize = 40;

/// Aggregate of every span with one (name, parent) pair.
#[derive(Clone, Copy, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// `hist[b]` counts spans with `2^(b-1) <= duration_ns < 2^b`.
    pub hist: [u64; HIST_BUCKETS],
}

const EMPTY: Agg = Agg { count: 0, total_ns: 0, self_ns: 0, hist: [0; HIST_BUCKETS] };

/// The (name, parent) aggregate table of one or more threads.
#[derive(Clone)]
pub struct Table {
    slots: Vec<Agg>,
}

impl Table {
    fn new() -> Self {
        Table { slots: vec![EMPTY; N_NAMES * (N_NAMES + 1)] }
    }

    fn merge(&mut self, other: &Table) {
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            for (x, y) in a.hist.iter_mut().zip(&b.hist) {
                *x += y;
            }
        }
    }

    /// Non-empty rows as (name, parent slot, aggregate).
    pub fn rows(&self) -> impl Iterator<Item = (Name, usize, &Agg)> {
        self.slots.iter().enumerate().filter(|(_, a)| a.count > 0).map(|(i, a)| {
            let (name, parent) = (i / (N_NAMES + 1), i % (N_NAMES + 1));
            (ALL[name], parent, a)
        })
    }

    /// Sum over every parent of spans named `name`.
    pub fn by_name(&self, name: Name) -> Agg {
        let mut out = EMPTY;
        for (n, _, a) in self.rows() {
            if n == name {
                out.count += a.count;
                out.total_ns += a.total_ns;
                out.self_ns += a.self_ns;
            }
        }
        out
    }
}

/// Exact counts taken at the store boundary by `TracedStore`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    pub probes: u64,
    /// Probes whose callback ran at least once.
    pub probe_hits: u64,
    /// Callback invocations over all probes.
    pub rows: u64,
    pub inserts: u64,
    pub expiries: u64,
    pub rows_removed: u64,
    pub expands: u64,
    pub deferred_max: u64,
}

impl StoreCounts {
    fn merge(&mut self, o: &StoreCounts) {
        self.probes += o.probes;
        self.probe_hits += o.probe_hits;
        self.rows += o.rows;
        self.inserts += o.inserts;
        self.expiries += o.expiries;
        self.rows_removed += o.rows_removed;
        self.expands += o.expands;
        self.deferred_max = self.deferred_max.max(o.deferred_max);
    }
}

/// One recorded span of a raw trace. `parent` indexes the raw buffer
/// (`u32::MAX` for a root).
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    pub trace: u32,
    pub name: Name,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Traces whose raw span trees are kept.
pub const RAW_TRACES: u32 = 2_000;
/// Capacity of the preallocated raw buffer, in spans.
const RAW_CAP: usize = 1 << 18;

struct Frame {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    raw: u32,
}

struct Local {
    stack: Vec<Frame>,
    table: Table,
    counts: StoreCounts,
    raw: Vec<RawSpan>,
    /// Trace id of the open root; raw spans are kept while it is below
    /// [`RAW_TRACES`] and the buffer has room.
    trace: u32,
    raw_on: bool,
    /// Σ self time of the spans below a root (`arrival` / `batch`), i.e.
    /// of the layer spans on the driver thread's trees.
    layer_self_ns: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static MERGED: Mutex<Option<(Table, StoreCounts)>> = Mutex::new(None);

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Local {
    fn new() -> Self {
        Local {
            stack: Vec::with_capacity(16),
            table: Table::new(),
            counts: StoreCounts::default(),
            raw: Vec::new(),
            trace: 0,
            raw_on: false,
            layer_self_ns: 0,
        }
    }

    #[inline]
    fn begin_at(&mut self, name: Name, now: u64) {
        let mut raw = u32::MAX;
        if self.raw_on && self.raw.len() < RAW_CAP {
            raw = self.raw.len() as u32;
            let parent = self.stack.last().map_or(u32::MAX, |f| f.raw);
            self.raw.push(RawSpan { trace: self.trace, name, parent, start_ns: now, end_ns: now });
        }
        self.stack.push(Frame { name, start_ns: now, child_ns: 0, raw });
    }

    #[inline]
    fn end_at(&mut self, now: u64) -> u64 {
        let Some(f) = self.stack.pop() else { return 0 };
        let dur = now.saturating_sub(f.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.name as usize
            }
            None => TOP,
        };
        let a = &mut self.table.slots[f.name as usize * (N_NAMES + 1) + parent];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        if matches!(self.stack.first(), Some(Frame { name: Name::Arrival | Name::Batch, .. })) {
            self.layer_self_ns += dur.saturating_sub(f.child_ns);
        }
        a.hist[((64 - dur.leading_zeros()) as usize).min(HIST_BUCKETS - 1)] += 1;
        if let Some(r) = self.raw.get_mut(f.raw as usize) {
            r.end_ns = now;
        }
        dur
    }

    fn flush(&mut self) {
        let mut g = MERGED.lock().unwrap_or_else(|p| p.into_inner());
        let (table, counts) = g.get_or_insert_with(|| (Table::new(), StoreCounts::default()));
        table.merge(&self.table);
        counts.merge(&self.counts);
        self.table = Table::new();
        self.counts = StoreCounts::default();
    }
}

impl Drop for Local {
    // A worker thread's aggregates reach the process-wide table here; a
    // poisoned lock is taken over rather than panicking inside a drop.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// Opens a span; it closes when the guard drops.
#[inline]
pub fn span(name: Name) -> Span {
    LOCAL.with(|l| l.borrow_mut().begin_at(name, now_ns()));
    Span
}

pub struct Span;

impl Span {
    /// Closes the span and returns its duration in ns.
    #[inline]
    pub fn end(self) -> u64 {
        let d = LOCAL.with(|l| l.borrow_mut().end_at(now_ns()));
        std::mem::forget(self);
        d
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        LOCAL.with(|l| l.borrow_mut().end_at(now_ns()));
    }
}

/// Starts the next trace: closes the open root span (if any) and opens a
/// new one at the same instant, so consecutive roots tile the driver
/// thread's time with no gap between them.
#[inline]
pub fn next_root(name: Name) {
    let now = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.stack.is_empty() {
            l.end_at(now);
            l.trace += 1;
        }
        l.raw_on = l.trace < RAW_TRACES && l.raw.capacity() > 0;
        l.begin_at(name, now);
    });
}

/// Closes the open root span without starting another.
pub fn end_roots() {
    let now = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.stack.is_empty() {
            l.end_at(now);
            l.trace += 1;
        }
        l.raw_on = false;
    });
}

/// Applies `f` to this thread's store-boundary counters.
#[inline]
pub fn count(f: impl FnOnce(&mut StoreCounts)) {
    LOCAL.with(|l| f(&mut l.borrow_mut().counts));
}

/// Clears this thread's and the process-wide aggregates and preallocates
/// the raw buffer. Call on the driver thread before the traced run's
/// set-up, outside the allocation-counting window.
pub fn reset() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        *l = Local::new();
        l.raw = Vec::with_capacity(RAW_CAP);
    });
    *MERGED.lock().unwrap_or_else(|p| p.into_inner()) = None;
}

/// Forgets the aggregates and counters recorded so far (the set-up's
/// warm-up feed goes through the traced store too) without touching the
/// raw buffer, so nothing is allocated inside the counting window.
pub fn clear_aggregates() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.table.slots.fill(EMPTY);
        l.counts = StoreCounts::default();
        l.raw.clear();
        l.trace = 0;
        l.layer_self_ns = 0;
    });
    *MERGED.lock().unwrap_or_else(|p| p.into_inner()) = None;
}

/// Everything recorded since [`reset`]: the merged aggregate table, the
/// merged store counters, the calling (driver) thread's raw spans and the
/// Σ self time of its layer spans (every span below a root).
pub fn collect() -> (Table, StoreCounts, Vec<RawSpan>, u64) {
    let (raw, layer_self_ns) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.flush();
        (std::mem::take(&mut l.raw), l.layer_self_ns)
    });
    let (table, counts) = MERGED
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take()
        .unwrap_or_else(|| (Table::new(), StoreCounts::default()));
    (table, counts, raw, layer_self_ns)
}
