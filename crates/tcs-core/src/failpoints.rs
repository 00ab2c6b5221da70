//! Deterministic fault injection for chaos tests (the `failpoints`
//! feature).
//!
//! A *failpoint* is a named site in production code where a test can arm
//! a fault — a panic with a chosen payload, or an artificial stall —
//! without touching the code under test. Sites are compiled in only with
//! `--features failpoints`; the default build expands every
//! [`fail_point!`](crate::fail_point) to a no-op function call that the
//! optimizer deletes, so the default test matrix and every benchmark are
//! unchanged.
//!
//! # Named sites
//!
//! The fault-tolerance layer instruments five sites (constants in
//! [`sites`]); the planned service front-end reuses the same seam:
//!
//! | site | where | tag |
//! |------|-------|-----|
//! | [`sites::PRE_PROBE`] | before a query's per-arrival join work | query id |
//! | [`sites::POST_RECORD`] | after a query's matches are recorded | query id |
//! | [`sites::PRE_EXPIRY`] | before a query's expiry cascade | query id |
//! | [`sites::WORKER_LOOP`] | each shard-worker loop iteration | shard index |
//! | [`sites::SHARD_REPLAY`] | before a rebuilt shard's replay | shard index |
//!
//! # Determinism
//!
//! Every hit carries a `u64` tag (the query id or shard index); an armed
//! fault fires only on matching tags (or all tags when armed with
//! `None`). Because dispatch order is deterministic, "panic query 3 the
//! next time it probes" is an exact schedule, not a race. The registry is
//! process-global — tests that arm sites must serialize themselves (the
//! chaos suite holds a mutex) and `reset` when done.

/// The named sites instrumented by the fault-tolerance layer. Constants
/// (not free strings) so tests and call sites cannot drift apart.
pub mod sites {
    /// Before a query's per-arrival join work (tag: query id).
    pub const PRE_PROBE: &str = "pre-probe";
    /// After a query's matches for an arrival are recorded (tag: query
    /// id).
    pub const POST_RECORD: &str = "post-record";
    /// Before a query's expiry cascade for one expired edge (tag: query
    /// id).
    pub const PRE_EXPIRY: &str = "pre-expiry";
    /// Each shard-worker loop iteration, outside the per-query isolation
    /// boundary (tag: shard index) — arming a panic here kills the whole
    /// worker, the fault the supervisor exists for.
    pub const WORKER_LOOP: &str = "worker-loop";
    /// Before the supervisor replays a rebuilt shard's log (tag: shard
    /// index) — arming a panic here makes the replay itself fail.
    pub const SHARD_REPLAY: &str = "shard-replay";
}

/// The instrumented call in the default build: a no-op the optimizer
/// deletes. See the module docs; the real registry exists only with
/// `--features failpoints`.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit(_site: &str, _tag: u64) {}

/// Marks a failpoint site: `fail_point!("site", tag)` (tag defaults
/// to 0). Expands to a call into this crate's registry, which is a no-op
/// unless the workspace is built with `--features failpoints` and a test
/// armed the site.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::failpoints::hit($site, 0)
    };
    ($site:expr, $tag:expr) => {
        $crate::failpoints::hit($site, $tag)
    };
}

#[cfg(feature = "failpoints")]
use std::collections::HashMap;
#[cfg(feature = "failpoints")]
use std::sync::{Mutex, OnceLock};

/// What an armed failpoint does when hit.
#[cfg(feature = "failpoints")]
#[derive(Clone, Debug)]
pub enum Action {
    /// Panic with this payload (delivered as a `String`, so
    /// `catch_unwind` observers can read it back). Payloads are
    /// conventionally prefixed `"failpoint:"` so panic hooks can tell
    /// injected faults from real ones.
    Panic(String),
    /// Sleep this many milliseconds — the knob for making one worker
    /// artificially slow (overload / shedding tests).
    SleepMs(u64),
}

#[cfg(feature = "failpoints")]
#[derive(Clone, Debug)]
struct Arm {
    /// Fire only on hits with this tag; `None` fires on every hit.
    tag: Option<u64>,
    action: Action,
}

#[cfg(feature = "failpoints")]
fn registry() -> &'static Mutex<HashMap<&'static str, Arm>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Arm>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `site`: every subsequent matching [`hit`] performs `action` until
/// [`disarm`]ed. Re-arming a site replaces its previous arm.
#[cfg(feature = "failpoints")]
pub fn arm(site: &'static str, tag: Option<u64>, action: Action) {
    let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.insert(site, Arm { tag, action });
}

/// Disarms one site (no-op if not armed).
#[cfg(feature = "failpoints")]
pub fn disarm(site: &str) {
    let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.remove(site);
}

/// Disarms every site.
#[cfg(feature = "failpoints")]
pub fn reset() {
    let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.clear();
}

/// The instrumented call: looks the site up and performs the armed
/// action on a tag match. Production code reaches this through
/// [`fail_point!`](crate::fail_point), never directly.
#[cfg(feature = "failpoints")]
pub fn hit(site: &str, tag: u64) {
    // Decide under the lock, act outside it: panicking (or sleeping)
    // while holding the registry mutex would poison (or stall) every
    // other hit in the process.
    let action = {
        let reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match reg.get(site) {
            Some(a) if a.tag.is_none() || a.tag == Some(tag) => Some(a.action.clone()),
            _ => None,
        }
    };
    match action {
        Some(Action::Panic(payload)) => std::panic::panic_any(payload),
        Some(Action::SleepMs(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        None => {}
    }
}

/// Installs a process-wide panic hook that stays silent for injected
/// faults (payloads containing `"failpoint"`) and defers to the default
/// hook for everything else — chaos tests inject hundreds of panics and
/// the default hook would bury real failures in backtrace spam.
#[cfg(feature = "failpoints")]
pub fn install_quiet_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("failpoint"))
            .unwrap_or(false);
        if !injected {
            default(info);
        }
    }));
}

#[cfg(all(test, feature = "failpoints"))]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    // The registry is process-global; these tests serialize on it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn unarmed_hits_are_noops() {
        let _g = lock();
        reset();
        hit("nothing-armed-here", 7);
    }

    #[test]
    fn armed_panic_fires_on_matching_tag_only() {
        let _g = lock();
        reset();
        install_quiet_hook();
        arm("site-a", Some(3), Action::Panic("failpoint: boom".into()));
        hit("site-a", 2); // wrong tag: no-op
        let err = std::panic::catch_unwind(|| hit("site-a", 3)).unwrap_err();
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("failpoint: boom"));
        // Still armed until disarmed.
        assert!(std::panic::catch_unwind(|| hit("site-a", 3)).is_err());
        disarm("site-a");
        hit("site-a", 3);
        reset();
    }

    #[test]
    fn untagged_arm_fires_on_any_tag() {
        let _g = lock();
        reset();
        install_quiet_hook();
        arm("site-b", None, Action::Panic("failpoint: any".into()));
        assert!(std::panic::catch_unwind(|| hit("site-b", 0)).is_err());
        assert!(std::panic::catch_unwind(|| hit("site-b", 99)).is_err());
        reset();
    }
}
