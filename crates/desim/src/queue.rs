//! Event priority queue with deterministic tie-breaking.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A heap entry, ordered by its `(time, push order)` key alone. `BinaryHeap`
/// is a max-heap, so the key is reversed: the earliest time pops first and
/// equal times resolve in insertion order, whatever the heap's internals.
struct Entry<E>(Reverse<(SimTime, u64)>, E);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A deterministic min-priority queue of timed events: a binary heap keyed
/// by `(time, push order)`, so events scheduled for the same instant pop in
/// insertion (FIFO) order.
///
/// # Examples
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_nanos(5);
/// q.push(t, "a");
/// q.push(t, "b");
/// q.push(SimTime::from_nanos(9), "c");
/// assert_eq!([q.pop_at(t), q.pop_at(t), q.pop_at(t)], [Some("a"), Some("b"), None]);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(9), "c")));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.heap.push(Entry(Reverse((at, self.next_seq)), event));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry(Reverse((at, _)), event) = self.heap.pop()?;
        Some((at, event))
    }

    /// Removes and returns the earliest pending event if it is due exactly at
    /// `t`; a `while let` drain also takes what its handlers schedule for `t`.
    pub fn pop_at(&mut self, t: SimTime) -> Option<E> {
        (self.peek_time() == Some(t)).then(|| self.heap.pop().expect("peeked").1)
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Entry(Reverse((at, _)), _)| *at)
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        (0..100).for_each(|i| q.push(SimTime::from_nanos(7), i));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_at_drains_one_instant_and_what_its_handlers_push_for_it() {
        let (t1, t2) = (SimTime::from_nanos(1), SimTime::from_nanos(2));
        let mut q = EventQueue::new();
        q.push(t2, 9);
        q.push(t1, 0);
        assert_eq!(q.pop_at(t2), None, "the head is earlier than t2");
        assert_eq!(q.pop_at(SimTime::ZERO), None, "nothing is due before t1");
        let mut seen = Vec::new();
        while let Some(e) = q.pop_at(t1) {
            seen.push(e);
            if e < 3 {
                q.push(t2, 10 + e);
                q.push(t1, e + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let later: Vec<_> = std::iter::from_fn(|| q.pop_at(t2)).collect();
        assert_eq!(later, vec![9, 10, 11, 12], "the later events stay queued");
        assert!(q.is_empty());
    }
}
