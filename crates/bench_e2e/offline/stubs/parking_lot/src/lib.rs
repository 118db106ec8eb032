//! Offline stand-in for the `parking_lot` crate.
//!
//! The sandbox has no crates.io access, so the benchmark builds the
//! repository's crates against this file instead. It provides the two
//! lock types the repository uses, with `parking_lot`'s calling
//! convention (`lock()`, `read()` and `write()` return the guard
//! directly) on top of the standard library's futex-based locks. A lock
//! poisoned by a panicking holder is recovered rather than propagated,
//! which is `parking_lot`'s behaviour: it has no poisoning.

use std::fmt;
use std::sync::{self, PoisonError};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock without poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking; the borrow proves exclusivity.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// A reader-writer lock without poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes shared access if no writer holds the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Takes exclusive access if the lock is free.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking; the borrow proves exclusivity.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_come_back_directly() {
        let mutex = Mutex::new(1);
        *mutex.lock() += 1;
        assert_eq!(mutex.into_inner(), 2);
        let lock = RwLock::new(vec![1]);
        lock.write().push(2);
        assert_eq!(lock.read().len(), 2);
    }

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let mutex = std::sync::Arc::new(Mutex::new(0));
        let held = std::sync::Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*mutex.lock(), 0);
    }
}
