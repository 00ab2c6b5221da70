//! A minimal bounded MPMC channel for the dispatcher → worker hand-off.
//!
//! The concurrent engine needs exactly three things from its channel: a
//! bounded buffer (back-pressure keeps the dispatcher from racing ahead of
//! the workers and inflating the predicted-lock wait-lists), multiple
//! consumers (the worker pool), and disconnect detection (dropping the last
//! sender drains and ends the workers). A `parking_lot` mutex + two condvars
//! over a `VecDeque` gives all three without an external dependency; the
//! channel is nowhere near the throughput bottleneck — transactions do
//! joins, not queue hops.

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

struct State<T> {
    buf: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// The sending half; clonable. Dropping the last clone disconnects.
pub struct Sender<T>(Arc<Chan<T>>);

/// The receiving half; clonable (MPMC).
pub struct Receiver<T>(Arc<Chan<T>>);

/// Error returned by [`Sender::send`] when every receiver is gone. In the
/// engine this only happens if all workers died (panicked), and the
/// dispatcher's `expect` then surfaces the failure instead of deadlocking
/// against a buffer nobody will ever drain.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders disconnected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Creates a bounded channel with capacity `cap` (≥ 1).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(cap.max(1)),
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap: cap.max(1),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

impl<T> Sender<T> {
    /// Blocks until buffer space is available, then enqueues;
    /// `Err(SendError)` if every receiver is gone (nobody will drain).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.state.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.buf.len() < self.0.cap {
                break;
            }
            self.0.not_full.wait(&mut st);
        }
        st.buf.push_back(value);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Values currently queued — a load gauge, racy by nature: the
    /// depth can change the instant the lock drops.
    pub fn len(&self) -> usize {
        self.0.state.lock().buf.len()
    }

    /// Whether the queue is currently empty (see [`Sender::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.senders -= 1;
        let disconnected = st.senders == 0;
        drop(st);
        if disconnected {
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks for the next value; `Err(RecvError)` once the channel is
    /// drained and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.state.lock();
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            self.0.not_empty.wait(&mut st);
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.receivers -= 1;
        let disconnected = st.receivers == 0;
        drop(st);
        if disconnected {
            // Wake blocked senders so they observe the disconnect.
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_disconnect() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_when_all_receivers_die() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        drop(rx);
        // Buffer full AND no receivers: must error out, not deadlock.
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn blocked_sender_wakes_on_receiver_death() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(2))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx); // the sender is parked on not_full; this must wake it
        assert_eq!(t.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn multiple_consumers_drain_everything() {
        let (tx, rx) = bounded::<u64>(4);
        let n = 1000u64;
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        for i in 1..=n {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, n * (n + 1) / 2);
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(2).unwrap())
        };
        // The second send blocks until we consume.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }
}
