//! Instrumented sync primitives for model runs.
//!
//! API-compatible with the `parking_lot` subset the workspace uses
//! (`lock()` returns a guard directly, `Condvar::wait(&mut guard)`), plus
//! atomics mirroring `std::sync::atomic`. Each type carries a weak link
//! to the model run it was created under; operations on a model thread
//! route through the deterministic scheduler in `crate::sched`, while
//! the same objects used off model threads (or after their run ended)
//! silently behave as the real primitives. That fallback is what lets a
//! whole crate be compiled against these types (`--cfg tcs_model`) while
//! its ordinary unit tests keep passing.
//!
//! Model semantics and their limits:
//!
//! * Mutex ownership is handed off FIFO on release, so the model
//!   explores the FIFO subset of schedules — barging (a late arrival
//!   overtaking a woken waiter) is not modeled.
//! * Condvar waiters have no spurious wakeups: a lost wakeup therefore
//!   shows up as a scheduler-detected deadlock instead of a silent hang.
//! * Atomics are sequentially consistent under the baton scheduler
//!   regardless of the requested `Ordering`; each access is a scheduling
//!   point, which is what lets the checker interleave lock-free reads
//!   against writers. Weak-memory reorderings are out of scope.

use crate::sched;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, PoisonError, RwLock as StdRwLock};

pub use std::sync::atomic::Ordering;

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// Model-aware mutex with the `parking_lot` API shape.
///
/// Internally wraps a `std` mutex for the data; under the baton
/// scheduler the wrapped mutex is never contended (model ownership is
/// granted first), so poisoning is the only std behavior to paper over.
pub struct Mutex<T: ?Sized> {
    model: sched::ModelRef,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex, registering it with the current model run (if
    /// any).
    pub fn new(value: T) -> Mutex<T> {
        Mutex { model: sched::register_mutex(), inner: StdMutex::new(value) }
    }

    /// Acquires the lock, blocking deterministically under the model.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some((ctx, id)) = sched::resolve(&self.model) {
            sched::mutex_lock(&ctx, id);
        }
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { lock: self, inner: Some(inner) }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`]. The inner std guard is parked in an
/// `Option` so [`Condvar::wait`] can release and re-acquire it in place.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("guard dereferenced inside a condvar wait"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("guard dereferenced inside a condvar wait"),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // `inner` is None only while parked in a condvar wait, where the
        // model ownership has already been released — skip the model
        // unlock then (this arm is reached during abort unwinding).
        if let Some(g) = self.inner.take() {
            drop(g);
            if let Some((ctx, id)) = sched::resolve(&self.lock.model) {
                sched::mutex_unlock(&ctx, id);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// Model-aware condition variable (`parking_lot`-style `wait(&mut
/// guard)`).
pub struct Condvar {
    model: sched::ModelRef,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates the condvar, registering it with the current model run
    /// (if any).
    pub fn new() -> Condvar {
        Condvar { model: sched::register_condvar(), inner: StdCondvar::new() }
    }

    /// Atomically releases the guard's mutex and waits; on return the
    /// guard is re-acquired. No spurious wakeups under the model.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let model = match (sched::resolve(&self.model), sched::resolve(&guard.lock.model)) {
            (Some((ctx, cv)), Some((_, mu))) => Some((ctx, cv, mu)),
            _ => None,
        };
        match model {
            Some((ctx, cv, mu)) => {
                drop(guard.inner.take());
                sched::cv_wait(&ctx, cv, mu);
                guard.inner = Some(guard.lock.inner.lock().unwrap_or_else(PoisonError::into_inner));
            }
            None => {
                if let Some(g) = guard.inner.take() {
                    guard.inner = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
                }
            }
        }
    }

    /// Wakes one waiter. Under the model the woken thread is re-queued
    /// on its mutex (granted immediately if free); the notify itself is
    /// not a scheduling point — ordering against waits is decided by the
    /// surrounding mutex acquisitions.
    pub fn notify_one(&self) {
        match sched::resolve(&self.model) {
            Some((ctx, cv)) => sched::cv_notify(&ctx, cv, false),
            None => {
                self.inner.notify_one();
            }
        }
    }

    /// Wakes every waiter (see [`Condvar::notify_one`]).
    pub fn notify_all(&self) {
        match sched::resolve(&self.model) {
            Some((ctx, cv)) => sched::cv_notify(&ctx, cv, true),
            None => {
                self.inner.notify_all();
            }
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// Model-aware reader-writer lock (`parking_lot` API shape: `read()` /
/// `write()` return guards directly). Model semantics: FIFO queue,
/// consecutive readers admitted together, no writer preference beyond
/// queue order.
pub struct RwLock<T: ?Sized> {
    model: sched::ModelRef,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates the lock, registering it with the current model run (if
    /// any).
    pub fn new(value: T) -> RwLock<T> {
        RwLock { model: sched::register_rwlock(), inner: StdRwLock::new(value) }
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some((ctx, id)) = sched::resolve(&self.model) {
            sched::rw_lock(&ctx, id, false);
        }
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { lock: self, inner }
    }

    /// Acquires the exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some((ctx, id)) = sched::resolve(&self.model) {
            sched::rw_lock(&ctx, id, true);
        }
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { lock: self, inner }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((ctx, id)) = sched::resolve(&self.lock.model) {
            sched::rw_unlock(&ctx, id, false);
        }
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((ctx, id)) = sched::resolve(&self.lock.model) {
            sched::rw_unlock(&ctx, id, true);
        }
    }
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

macro_rules! model_atomic {
    ($name:ident, $std:ty, $val:ty) => {
        /// Instrumented atomic: every access is a scheduling point on a
        /// model thread (a no-op otherwise) and then delegates to the
        /// `std` atomic. Under the baton scheduler all accesses are
        /// sequentially consistent whatever `Ordering` is requested.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates the atomic (const, so statics still work).
            pub const fn new(v: $val) -> Self {
                Self { inner: <$std>::new(v) }
            }

            /// Atomic load (scheduling point on model threads).
            pub fn load(&self, order: Ordering) -> $val {
                sched::maybe_yield();
                self.inner.load(order)
            }

            /// Atomic store (scheduling point on model threads).
            pub fn store(&self, v: $val, order: Ordering) {
                sched::maybe_yield();
                self.inner.store(v, order)
            }

            /// Atomic swap (scheduling point on model threads).
            pub fn swap(&self, v: $val, order: Ordering) -> $val {
                sched::maybe_yield();
                self.inner.swap(v, order)
            }

            /// Atomic add (scheduling point on model threads).
            pub fn fetch_add(&self, v: $val, order: Ordering) -> $val {
                sched::maybe_yield();
                self.inner.fetch_add(v, order)
            }

            /// Atomic subtract (scheduling point on model threads).
            pub fn fetch_sub(&self, v: $val, order: Ordering) -> $val {
                sched::maybe_yield();
                self.inner.fetch_sub(v, order)
            }

            /// Atomic max (scheduling point on model threads).
            pub fn fetch_max(&self, v: $val, order: Ordering) -> $val {
                sched::maybe_yield();
                self.inner.fetch_max(v, order)
            }

            /// Atomic compare-exchange (scheduling point on model
            /// threads).
            pub fn compare_exchange(
                &self,
                current: $val,
                new: $val,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$val, $val> {
                sched::maybe_yield();
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

model_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Instrumented atomic boolean (see the numeric atomics; booleans lack
/// the arithmetic ops).
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates the atomic (const, so statics still work).
    pub const fn new(v: bool) -> Self {
        Self { inner: std::sync::atomic::AtomicBool::new(v) }
    }

    /// Atomic load (scheduling point on model threads).
    pub fn load(&self, order: Ordering) -> bool {
        sched::maybe_yield();
        self.inner.load(order)
    }

    /// Atomic store (scheduling point on model threads).
    pub fn store(&self, v: bool, order: Ordering) {
        sched::maybe_yield();
        self.inner.store(v, order)
    }

    /// Atomic swap (scheduling point on model threads).
    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        sched::maybe_yield();
        self.inner.swap(v, order)
    }

    /// Atomic compare-exchange (scheduling point on model threads).
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        sched::maybe_yield();
        self.inner.compare_exchange(current, new, success, failure)
    }
}
