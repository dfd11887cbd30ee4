//! A time-ordered event queue for discrete-event simulation.
//!
//! Events pop in timestamp order, FIFO among equal timestamps. The at-scale
//! evaluation (Figure 13) replays a request trace against a multi-rack
//! cluster; its event loop (`ClusterSim` in `dscs-cluster`) streams the sorted
//! arrivals itself and keeps only the pending completions and scaling events
//! in an [`EventQueue`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event carrying a payload of type `E`.
#[derive(Debug, Clone)]
pub struct Event<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Caller-defined payload.
    pub payload: E,
    seq: u64,
}

impl<E> Event<E> {
    fn new(at: SimTime, payload: E, seq: u64) -> Self {
        Event { at, payload, seq }
    }
}

// BinaryHeap is a max-heap; invert ordering so the earliest event pops first,
// with the insertion sequence breaking ties for FIFO behaviour.
impl<E> PartialEq for Event<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Event<E> {}

impl<E> PartialOrd for Event<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Event<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Event<E>>,
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

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event::new(at, payload, seq));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<E>> {
        self.heap.pop()
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
