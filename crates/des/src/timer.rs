//! The timer table: armed timers live in slots of a slab, and a binary
//! heap orders their `(deadline, seq, slot)` keys.
//!
//! `seq` is the arming order, so same-deadline timers fire in the order
//! they were armed, and it doubles as the slot's generation: a key whose
//! `seq` no longer names its slot's timer is stale. Cancelling a timer
//! frees its slot at once and leaves its key for the heap to skip when it
//! surfaces; a compaction bounds how many such keys the heap carries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::task::Waker;

use crate::time::Time;

/// An armed timer: its slot, and the `seq` it was armed with.
#[derive(Clone, Copy)]
pub(crate) struct TimerId {
    slot: usize,
    seq: u64,
}

struct Slot {
    seq: u64,
    deadline: Time,
    /// `None` once the timer fired or was cancelled: the slot is free.
    waker: Option<Waker>,
}

impl Slot {
    /// The waker of the timer armed with `seq`, if this slot still holds
    /// it.
    fn armed(&self, seq: u64) -> Option<&Waker> {
        if self.seq == seq {
            self.waker.as_ref()
        } else {
            None
        }
    }
}

/// Stale keys the heap may carry beyond one per live timer before it is
/// compacted.
const SLACK: usize = 64;

#[derive(Default)]
pub(crate) struct Timers {
    heap: BinaryHeap<Reverse<(Time, u64, usize)>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    next_seq: u64,
    /// Keys in `heap` whose timer was cancelled.
    stale: usize,
    /// Latest deadline of any cancelled timer.
    horizon: Time,
}

impl Timers {
    pub(crate) fn arm(&mut self, deadline: Time, waker: Waker) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = Slot {
            seq,
            deadline,
            waker: Some(waker),
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((deadline, seq, slot)));
        TimerId { slot, seq }
    }

    /// The waker `id` will wake, if it is still armed.
    pub(crate) fn waker_of(&self, id: TimerId) -> Option<&Waker> {
        self.slots[id.slot].armed(id.seq)
    }

    /// Disarms `id` if it has not fired yet and hands back the waker it
    /// would have woken, for the caller to drop outside any borrow of
    /// `self`.
    pub(crate) fn cancel(&mut self, id: TimerId) -> Option<Waker> {
        let slot = &mut self.slots[id.slot];
        if slot.seq != id.seq {
            return None;
        }
        let waker = slot.waker.take()?;
        self.horizon = self.horizon.max(slot.deadline);
        self.free.push(id.slot);
        self.stale += 1;
        if self.stale > self.live().max(SLACK) {
            let slots = &self.slots;
            self.heap
                .retain(|&Reverse((_, seq, i))| slots[i].armed(seq).is_some());
            self.stale = 0;
        }
        Some(waker)
    }

    /// Timers armed and neither fired nor cancelled.
    pub(crate) fn live(&self) -> usize {
        self.heap.len() - self.stale
    }

    /// Keys in the heap, stale ones included.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> usize {
        self.heap.len()
    }

    /// Timers ever armed.
    #[cfg(test)]
    pub(crate) fn arms(&self) -> u64 {
        self.next_seq
    }

    /// The latest deadline of any cancelled timer (0 if none was).
    pub(crate) fn horizon(&self) -> Time {
        self.horizon
    }

    /// Drops stale keys off the top of the heap and returns the earliest
    /// live key.
    fn peek_live(&mut self) -> Option<(Time, u64, usize)> {
        while let Some(&Reverse(key @ (_, seq, i))) = self.heap.peek() {
            if self.slots[i].armed(seq).is_some() {
                return Some(key);
            }
            self.heap.pop();
            self.stale -= 1;
        }
        None
    }

    /// Deadline of the earliest live timer.
    pub(crate) fn next_deadline(&mut self) -> Option<Time> {
        self.peek_live().map(|(deadline, _, _)| deadline)
    }

    /// Fires the earliest live timer if it is due by `limit`: frees its
    /// slot and returns its deadline and waker.
    pub(crate) fn pop_due(&mut self, limit: Time) -> Option<(Time, Waker)> {
        let (deadline, _, i) = self.peek_live().filter(|&(d, _, _)| d <= limit)?;
        self.heap.pop();
        self.free.push(i);
        let waker = self.slots[i]
            .waker
            .take()
            .expect("a live key names an armed slot");
        Some((deadline, waker))
    }
}
