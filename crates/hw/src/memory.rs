//! Memory capacity tracking.
//!
//! The DPU's modest onboard memory (16 GB on BlueField-2) is the paper's
//! central constraint for storage offloading (§7): workloads whose working
//! set exceeds it must be *partially* offloaded. This tracker makes that
//! constraint explicit and RAII-safe.

use std::cell::Cell;
use std::rc::Rc;

/// Error returned when a reservation would exceed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes that were still free.
    pub available: u64,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for MemoryError {}

struct MemInner {
    capacity: u64,
    used: Cell<u64>,
    peak: Cell<u64>,
}

/// A device memory pool with explicit capacity.
#[derive(Clone)]
pub struct Memory {
    inner: Rc<MemInner>,
}

impl Memory {
    /// Creates a pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Memory {
            inner: Rc::new(MemInner {
                capacity,
                used: Cell::new(0),
                peak: Cell::new(0),
            }),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.inner.used.get()
    }

    /// Bytes still free.
    pub fn available(&self) -> u64 {
        self.inner.capacity - self.inner.used.get()
    }

    /// High-water mark of reservations.
    pub fn peak(&self) -> u64 {
        self.inner.peak.get()
    }

    /// Reserves `bytes`, failing if they do not fit. The reservation frees
    /// itself on drop.
    pub fn try_reserve(&self, bytes: u64) -> Result<MemoryReservation, MemoryError> {
        let used = self.inner.used.get();
        if bytes > self.inner.capacity - used {
            return Err(MemoryError {
                requested: bytes,
                available: self.inner.capacity - used,
            });
        }
        let now_used = used + bytes;
        self.inner.used.set(now_used);
        if now_used > self.inner.peak.get() {
            self.inner.peak.set(now_used);
        }
        Ok(MemoryReservation {
            pool: self.inner.clone(),
            bytes,
        })
    }
}

impl std::fmt::Debug for MemoryReservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryReservation")
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// RAII handle for reserved bytes.
pub struct MemoryReservation {
    pool: Rc<MemInner>,
    bytes: u64,
}

impl MemoryReservation {
    /// Size of this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grows the reservation in place, failing without change if the extra
    /// bytes do not fit.
    pub fn grow(&mut self, extra: u64) -> Result<(), MemoryError> {
        let used = self.pool.used.get();
        if extra > self.pool.capacity - used {
            return Err(MemoryError {
                requested: extra,
                available: self.pool.capacity - used,
            });
        }
        self.pool.used.set(used + extra);
        if used + extra > self.pool.peak.get() {
            self.pool.peak.set(used + extra);
        }
        self.bytes += extra;
        Ok(())
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.pool.used.set(self.pool.used.get() - self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let mem = Memory::new(1_000);
        let r = mem.try_reserve(600).unwrap();
        assert_eq!(mem.used(), 600);
        assert_eq!(mem.available(), 400);
        assert!(mem.try_reserve(500).is_err());
        drop(r);
        assert_eq!(mem.used(), 0);
        assert!(mem.try_reserve(1_000).is_ok());
    }

    #[test]
    fn error_reports_availability() {
        let mem = Memory::new(100);
        let _r = mem.try_reserve(70).unwrap();
        let err = mem.try_reserve(50).unwrap_err();
        assert_eq!(
            err,
            MemoryError {
                requested: 50,
                available: 30
            }
        );
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mem = Memory::new(1_000);
        let a = mem.try_reserve(400).unwrap();
        let b = mem.try_reserve(300).unwrap();
        drop(a);
        drop(b);
        assert_eq!(mem.peak(), 700);
        assert_eq!(mem.used(), 0);
    }

    #[test]
    fn grow_extends_reservation() {
        let mem = Memory::new(100);
        let mut r = mem.try_reserve(40).unwrap();
        r.grow(30).unwrap();
        assert_eq!(r.bytes(), 70);
        assert_eq!(mem.used(), 70);
        assert!(r.grow(40).is_err());
        assert_eq!(r.bytes(), 70);
        drop(r);
        assert_eq!(mem.used(), 0);
    }
}
