//! `TracedStore<S>`: a `MatchStore` that forwards every call to `S` and
//! records a span plus exact counts around it.
//!
//! The engines are generic over their store, so putting this wrapper in
//! place lets the benchmark see every store call of `TimingEngine`,
//! `MultiQueryEngine` and `ShardedMultiEngine` without touching a library
//! crate. A probe span covers the bucket walk *and* the engine's per-row
//! callback (the join check runs inside the iteration); store calls made
//! from inside a callback nest as child spans and are subtracted from the
//! probe's self time.

use crate::trace::{self, Name};
use tcs_core::store::{AuditViolation, Handle, JoinKey, StoreAudit, StoreLayout};
use tcs_core::{ExpiryMode, MatchStore};
use tcs_graph::EdgeId;

pub struct TracedStore<S> {
    inner: S,
}

/// Runs one of the seven `for_each_*` probes under a span, counting the
/// rows its callback visits.
#[inline]
fn probe<T: ?Sized>(f: &mut dyn FnMut(Handle, &T), walk: impl FnOnce(&mut dyn FnMut(Handle, &T))) {
    let span = trace::span(Name::StoreProbe);
    let mut rows = 0u64;
    walk(&mut |h, row| {
        rows += 1;
        f(h, row)
    });
    span.end();
    trace::count(|c| {
        c.probes += 1;
        c.probe_hits += u64::from(rows > 0);
        c.rows += rows;
    });
}

impl<S: StoreAudit> StoreAudit for TracedStore<S> {
    fn audit(&self) -> Vec<AuditViolation> {
        self.inner.audit()
    }
}

impl<S: MatchStore> MatchStore for TracedStore<S> {
    fn new(layout: StoreLayout) -> Self {
        TracedStore { inner: S::new(layout) }
    }

    fn for_each_sub(&self, sub: usize, level: usize, f: &mut dyn FnMut(Handle, &[EdgeId])) {
        probe(f, |g| self.inner.for_each_sub(sub, level, g));
    }

    fn for_each_sub_keyed(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        probe(f, |g| self.inner.for_each_sub_keyed(sub, level, key, g));
    }

    fn for_each_sub_keyed_before(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        cutoff_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        probe(f, |g| self.inner.for_each_sub_keyed_before(sub, level, key, cutoff_ts, g));
    }

    fn for_each_sub_keyed_from(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        probe(f, |g| self.inner.for_each_sub_keyed_from(sub, level, key, min_ts, g));
    }

    fn insert_sub(
        &mut self,
        sub: usize,
        level: usize,
        parent: Handle,
        edge: EdgeId,
        ts: u64,
        key: JoinKey,
    ) -> Handle {
        let _span = trace::span(Name::StoreInsert);
        trace::count(|c| c.inserts += 1);
        self.inner.insert_sub(sub, level, parent, edge, ts, key)
    }

    fn for_each_l0(&self, i: usize, f: &mut dyn FnMut(Handle, &[Handle])) {
        probe(f, |g| self.inner.for_each_l0(i, g));
    }

    fn for_each_l0_keyed(&self, i: usize, key: JoinKey, f: &mut dyn FnMut(Handle, &[Handle])) {
        probe(f, |g| self.inner.for_each_l0_keyed(i, key, g));
    }

    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[Handle]),
    ) {
        probe(f, |g| self.inner.for_each_l0_keyed_from(i, key, min_ts, g));
    }

    fn insert_l0(
        &mut self,
        i: usize,
        parent: Handle,
        comp: Handle,
        ts: u64,
        key: JoinKey,
    ) -> Handle {
        let _span = trace::span(Name::StoreInsert);
        trace::count(|c| c.inserts += 1);
        self.inner.insert_l0(i, parent, comp, ts, key)
    }

    fn expand_sub(&self, sub: usize, handle: Handle, out: &mut Vec<EdgeId>) {
        let _span = trace::span(Name::StoreExpand);
        trace::count(|c| c.expands += 1);
        self.inner.expand_sub(sub, handle, out);
    }

    fn expire_edge(&mut self, edge: EdgeId, ts: u64, positions: &[(usize, usize)]) -> usize {
        let span = trace::span(Name::StoreExpire);
        let removed = self.inner.expire_edge(edge, ts, positions);
        span.end();
        let deferred = self.inner.deferred_maintenance() as u64;
        trace::count(|c| {
            c.expiries += 1;
            c.rows_removed += removed as u64;
            c.deferred_max = c.deferred_max.max(deferred);
        });
        removed
    }

    fn set_expiry_mode(&mut self, mode: ExpiryMode) {
        self.inner.set_expiry_mode(mode);
    }

    fn set_maintenance_fuel(&mut self, tank: Option<u64>) {
        self.inner.set_maintenance_fuel(tank);
    }

    fn refuel(&mut self, budget: u64) {
        self.inner.refuel(budget);
    }

    fn settle_maintenance(&mut self) {
        self.inner.settle_maintenance();
    }

    fn deferred_maintenance(&self) -> usize {
        self.inner.deferred_maintenance()
    }

    fn len_sub(&self, sub: usize, level: usize) -> usize {
        self.inner.len_sub(sub, level)
    }

    fn len_l0(&self, i: usize) -> usize {
        self.inner.len_l0(i)
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
}
