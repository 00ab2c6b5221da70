#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! Bounded model checking of the crate's hot protocols (run with
//! `RUSTFLAGS="--cfg tcs_model" cargo test -p tcs-concurrent --test model`).
//!
//! Under `tcs_model` the crate's `sync` shim resolves to the
//! instrumented primitives of `tcs-verify`, so every mutex, condvar, and
//! atomic access in `chan`, `lock`, and `cmstree` is a scheduling point:
//! [`check`] explores the interleavings exhaustively within a preemption
//! bound, and any failing assertion prints a minimized, replayable
//! schedule.
//!
//! The suite covers the three protocol families the ISSUE names:
//! * `chan` — send/recv linearizability against the sequential
//!   multiset oracle, backpressure without lost wakeups, and both
//!   disconnect directions;
//! * `lock` — chronological wait-list grants and X-lock mutual
//!   exclusion;
//! * `cmstree` — the X-guard insert/expire/report protocol, plus the
//!   PR-2 regression: a deliberately narrowed guard (reporting *after*
//!   the X release) must be caught by the checker; and the keyed read's
//!   safety: a key-list walk under the item's S lock sees only linked
//!   nodes while a deleter reclaims and reuses the slots it unlinked.

#![cfg(tcs_model)]

use std::sync::Arc;
use tcs_concurrent::chan::{self, RecvError, SendError};
use tcs_concurrent::cmstree::CmsTree;
use tcs_concurrent::lock::{LockManager, Mode};
use tcs_core::store::StoreLayout;
use tcs_graph::EdgeId;
use tcs_verify::sync::{AtomicU64, Mutex, Ordering};
use tcs_verify::{check, replay, thread, Options};

// ---------------------------------------------------------------------
// chan
// ---------------------------------------------------------------------

#[test]
fn chan_two_senders_linearize_against_the_multiset_oracle() {
    // Two senders race into a capacity-1 buffer; the receiver must see
    // exactly the sent multiset {1, 2}, in some order, under every
    // interleaving — the sequential oracle for an MPMC queue.
    let report = check(Options::exhaustive(2), || {
        let (tx, rx) = chan::bounded::<u32>(1);
        let t1 = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(1).unwrap_or_else(|_| panic!("receiver alive")))
        };
        let t2 = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(2).unwrap_or_else(|_| panic!("receiver alive")))
        };
        drop(tx);
        let a = rx.recv();
        let b = rx.recv();
        let mut got = vec![a, b];
        got.sort_by_key(|r| *r.as_ref().unwrap_or(&u32::MAX));
        assert_eq!(got, vec![Ok(1), Ok(2)], "multiset oracle");
        assert_eq!(rx.recv(), Err(RecvError), "drained + disconnected");
        t1.join();
        t2.join();
    });
    report.assert_pass();
    assert!(report.complete, "chan send/recv space exhausted ({} runs)", report.executions);
}

#[test]
fn chan_backpressure_has_no_lost_wakeup() {
    // A sender parks on a full buffer; the receiver drains one slot. In
    // every schedule the parked sender must be woken (a lost not_full
    // wakeup would deadlock, which the scheduler reports).
    let report = check(Options::exhaustive(2), || {
        let (tx, rx) = chan::bounded::<u32>(1);
        tx.send(10).unwrap_or_else(|_| panic!("receiver alive"));
        let t = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(20).unwrap_or_else(|_| panic!("receiver alive")))
        };
        assert_eq!(rx.recv(), Ok(10));
        assert_eq!(rx.recv(), Ok(20));
        t.join();
    });
    report.assert_pass();
    assert!(report.complete);
}

#[test]
fn chan_receiver_death_wakes_blocked_sender() {
    // The deterministic version of the sleep-based unit test: a sender
    // parked on not_full must observe the last receiver's death as a
    // SendError in every schedule, never a deadlock.
    let report = check(Options::exhaustive(2), || {
        let (tx, rx) = chan::bounded::<u32>(1);
        tx.send(1).unwrap_or_else(|_| panic!("receiver alive"));
        let t = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(2))
        };
        drop(rx);
        let r = t.join();
        assert_eq!(r, Err(SendError(2)), "blocked sender saw the disconnect");
    });
    report.assert_pass();
    assert!(report.complete);
}

#[test]
fn chan_sender_death_wakes_blocked_receiver() {
    // Dual direction: a receiver parked on not_empty must observe the
    // last sender's death as RecvError in every schedule.
    let report = check(Options::exhaustive(2), || {
        let (tx, rx) = chan::bounded::<u32>(1);
        let t = thread::spawn(move || {
            let first = rx.recv();
            let second = rx.recv();
            (first, second)
        });
        tx.send(7).unwrap_or_else(|_| panic!("receiver alive"));
        drop(tx);
        assert_eq!(t.join(), (Ok(7), Err(RecvError)));
    });
    report.assert_pass();
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// lock
// ---------------------------------------------------------------------

#[test]
fn lock_grants_follow_dispatch_order_in_every_schedule() {
    // The deterministic version of `grants_follow_dispatch_order`: the
    // wait-list, not thread scheduling, decides — even though the checker
    // tries every thread scheduling.
    let report = check(Options::exhaustive(2), || {
        let mgr = Arc::new(LockManager::new(1));
        for t in 0..2u64 {
            mgr.dispatch(t, &[(0, Mode::X)]);
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Start in reverse txn order to give the younger txn every chance
        // to get there first.
        for t in (0..2u64).rev() {
            let mgr = Arc::clone(&mgr);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                mgr.acquire(0, t, Mode::X);
                order.lock().push(t);
                mgr.release(0, t);
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock(), vec![0, 1], "chronological grant order");
    });
    report.assert_pass();
    assert!(report.complete, "lock dispatch space exhausted ({} runs)", report.executions);
}

#[test]
fn lock_x_mode_is_mutually_exclusive() {
    let report = check(Options::exhaustive(2), || {
        let mgr = Arc::new(LockManager::new(1));
        mgr.dispatch(0, &[(0, Mode::X)]);
        mgr.dispatch(1, &[(0, Mode::X)]);
        let inside = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let mgr = Arc::clone(&mgr);
            let inside = Arc::clone(&inside);
            handles.push(thread::spawn(move || {
                mgr.acquire(0, t, Mode::X);
                let n = inside.load(Ordering::SeqCst);
                assert_eq!(n, 0, "two txns inside an X section");
                inside.store(n + 1, Ordering::SeqCst);
                inside.store(n, Ordering::SeqCst);
                mgr.release(0, t);
            }));
        }
        for h in handles {
            h.join();
        }
    });
    report.assert_pass();
    assert!(report.complete);
}

#[test]
fn lock_cancel_unblocks_younger_txn_in_every_schedule() {
    // The deterministic version of `cancel_unblocks_younger_txn`: no
    // schedule may leave txn 1 stranded behind the cancelled request.
    let report = check(Options::exhaustive(2), || {
        let mgr = Arc::new(LockManager::new(1));
        mgr.dispatch(0, &[(0, Mode::X)]);
        mgr.dispatch(1, &[(0, Mode::X)]);
        let m = Arc::clone(&mgr);
        let t = thread::spawn(move || {
            m.acquire(0, 1, Mode::X);
            m.release(0, 1);
        });
        mgr.cancel(0, 0, Mode::X);
        t.join();
        assert_eq!(mgr.waitlist_len(0), 0);
    });
    report.assert_pass();
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// cmstree: the X-guard insert/expire/report protocol
// ---------------------------------------------------------------------

/// The protocol shape of the PR-2 race, parameterized by where the
/// report happens.
///
/// Pre-state: one level-0 match `a` (edge 1). Two transactions in
/// dispatch (timestamp) order:
///
/// * txn 0 — insertion of edge 2: probe level 0 under S, insert the
///   completing child under X(1), and *report* the match by expanding it
///   back into edges. `guarded` controls whether the report runs under
///   the X guard (correct) or after its release (the seed's bug).
/// * txn 1 — expiry of edge 1: payload-scan + partial-remove level 0
///   under X(0), cascade to level 1 under X(1), then reclaim and reuse
///   the arena slots for an unrelated insert (edge 99) — which is what
///   turns an unguarded late read into an observable corruption.
fn x_guard_protocol(guarded: bool) {
    let tree = Arc::new(CmsTree::new(StoreLayout { sub_lens: vec![2] }));
    let mgr = Arc::new(LockManager::new(tree.n_items()));
    let _ = tree.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
    // Single-dispatcher contract: all requests appended in txn order
    // before the workers start.
    mgr.dispatch(0, &[(0, Mode::S), (1, Mode::X)]);
    mgr.dispatch(1, &[(0, Mode::X), (1, Mode::X), (0, Mode::X)]);

    let inserter = {
        let (tree, mgr) = (Arc::clone(&tree), Arc::clone(&mgr));
        thread::spawn(move || {
            // Probe level 0 for the prefix match.
            mgr.acquire(0, 0, Mode::S);
            let mut parent = None;
            tree.for_each_sub(0, 0, &mut |h, edges| {
                if edges == [EdgeId(1)] {
                    parent = Some(h);
                }
            });
            mgr.release(0, 0);
            let parent = match parent {
                Some(p) => p,
                // The deleter cannot have removed `a` yet (its X(0)
                // request is younger than our S(0)), so this is
                // unreachable; keep the checker honest if it ever isn't.
                None => panic!("prefix match vanished under dispatch order"),
            };
            // Insert the completing match under X(1) and report it.
            mgr.acquire(1, 0, Mode::X);
            let b = tree.insert_sub(0, 1, parent, EdgeId(2), 2, 0);
            if guarded {
                let mut out = Vec::new();
                tree.expand_sub(b, &mut out);
                assert_eq!(out, vec![EdgeId(1), EdgeId(2)], "guarded report");
                mgr.release(1, 0);
            } else {
                // BUG (the seed's PR-2 shape): report after the guard.
                mgr.release(1, 0);
                let mut out = Vec::new();
                tree.expand_sub(b, &mut out);
                assert_eq!(out, vec![EdgeId(1), EdgeId(2)], "unguarded report");
            }
        })
    };

    let deleter = {
        let (tree, mgr) = (Arc::clone(&tree), Arc::clone(&mgr));
        thread::spawn(move || {
            // Expiry of edge 1: level pass in lock order, then reclaim.
            mgr.acquire(0, 1, Mode::X);
            let l0 = tree.partial_remove(
                tree.sub_item(0, 0),
                &tree.payload_matches(tree.sub_item(0, 0), 1, 1),
            );
            mgr.release(0, 1);
            mgr.acquire(1, 1, Mode::X);
            let l1 = tree.partial_remove(tree.sub_item(0, 1), &tree.children_of(&l0));
            mgr.release(1, 1);
            let mut all = l0;
            all.extend_from_slice(&l1);
            // "Finally remove" — and reuse the slots, as a later arrival
            // would: an unguarded reader now sees edge 99's node.
            tree.reclaim(&all);
            mgr.acquire(0, 1, Mode::X);
            tree.insert_sub(0, 0, u64::MAX, EdgeId(99), 99, 0);
            mgr.release(0, 1);
        })
    };

    inserter.join();
    deleter.join();
}

#[test]
fn cmstree_guarded_report_passes_exhaustively() {
    // The correct protocol: reports happen under the insertion's X guard,
    // so no schedule — within 2 preemptions — can corrupt a report.
    let report = check(Options::exhaustive(2), || x_guard_protocol(true));
    report.assert_pass();
    assert!(report.complete, "X-guard space exhausted ({} runs)", report.executions);
}

#[test]
fn cmstree_narrowed_guard_is_caught_with_a_replayable_schedule() {
    // The PR-2 regression pin: narrow the guard (report after release)
    // and the checker must find the corrupting interleaving, minimized
    // and replayable.
    let report = check(Options::exhaustive(2), || x_guard_protocol(false));
    let failure = report.assert_fails();
    assert!(
        failure.message.contains("unguarded report"),
        "the failure is the unguarded report, got: {}",
        failure.message
    );
    // The printed schedule deterministically reproduces the corruption.
    let again = replay(&failure.schedule, || x_guard_protocol(false))
        .unwrap_or_else(|| panic!("schedule \"{}\" did not replay", failure.schedule));
    assert!(again.message.contains("unguarded report"), "got: {}", again.message);
    // Narrowing really is the cause: the race needs at least one
    // preemption (serial schedules report before the deleter runs).
    let serial = check(Options::exhaustive(0), || x_guard_protocol(false));
    serial.assert_pass();
}

/// The keyed read against partial removal, reclamation and slot reuse.
///
/// Pre-state (layout `[2, 1]`): two level-0 matches under key 0, `a`
/// (edge 1) then `c` (edge 3), so key 0's list is `a → c`. Two
/// transactions in dispatch order:
///
/// * txn 0 — expiry of edge 1: payload-scan + partial-remove level 0
///   under X(0) (unlinking `a` from its item list *and* its key list),
///   cascade to level 1 under X(1), reclaim, then reuse the slot for an
///   insert into subquery 1's item under X(2) — an item the reader's
///   locks never order against.
/// * txn 1 — an arrival probing level 0 by key under S(0), granted once
///   txn 0 releases X(0). Its walk races txn 0's cascade, reclaim and
///   reuse, and must see exactly the linked node `c`, never `a`'s slot.
fn keyed_probe_protocol() {
    let tree = Arc::new(CmsTree::new(StoreLayout { sub_lens: vec![2, 1] }));
    let mgr = Arc::new(LockManager::new(tree.n_items()));
    let _a = tree.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
    let _c = tree.insert_sub(0, 0, u64::MAX, EdgeId(3), 3, 0);
    mgr.dispatch(0, &[(0, Mode::X), (1, Mode::X), (2, Mode::X)]);
    mgr.dispatch(1, &[(0, Mode::S)]);

    let deleter = {
        let (tree, mgr) = (Arc::clone(&tree), Arc::clone(&mgr));
        thread::spawn(move || {
            mgr.acquire(0, 0, Mode::X);
            let item = tree.sub_item(0, 0);
            let l0 = tree.partial_remove(item, &tree.payload_matches(item, 1, 1));
            mgr.release(0, 0);
            mgr.acquire(1, 0, Mode::X);
            let l1 = tree.partial_remove(tree.sub_item(0, 1), &tree.children_of(&l0));
            mgr.release(1, 0);
            let mut all = l0;
            all.extend_from_slice(&l1);
            tree.reclaim(&all);
            mgr.acquire(2, 0, Mode::X);
            tree.insert_sub(1, 0, u64::MAX, EdgeId(99), 99, 0);
            mgr.release(2, 0);
        })
    };

    let reader = {
        let (tree, mgr) = (Arc::clone(&tree), Arc::clone(&mgr));
        thread::spawn(move || {
            mgr.acquire(0, 1, Mode::S);
            let mut rows = Vec::new();
            tree.for_each_sub_keyed(0, 0, 0, &mut |_, edges| rows.push(edges.to_vec()));
            mgr.release(0, 1);
            assert_eq!(rows, vec![vec![EdgeId(3)]], "keyed walk saw an unlinked node");
        })
    };

    deleter.join();
    reader.join();
}

#[test]
fn cmstree_keyed_walk_sees_only_linked_nodes() {
    let report = check(Options::exhaustive(2), keyed_probe_protocol);
    report.assert_pass();
    assert!(report.complete, "keyed-probe space exhausted ({} runs)", report.executions);
}
