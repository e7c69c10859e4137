//! Deterministic time-ordered event queue.
//!
//! [`EventQueue`] is a binary heap ordered by `(at, seq)`: timestamp
//! first, then insertion sequence, so events scheduled for the same
//! instant pop in FIFO order and whole simulations reproduce
//! bit-for-bit across runs.
//!
//! See DESIGN.md § "DES internals" for why a plain heap, and not a
//! calendar queue, serves the engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled on an [`EventQueue`].
#[derive(Debug, Clone, Copy)]
pub struct Event<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence number: among equal timestamps, lower pops first.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

struct HeapEntry<T>(Event<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// A deterministic queue of timed events, popped in `(at, seq)` order.
///
/// # Example
///
/// ```
/// use fleetio_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(10), 'b');
/// q.push(SimTime::from_micros(10), 'c'); // same instant: FIFO order
/// q.push(SimTime::from_micros(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
    /// Lifetime count of popped events (survives [`EventQueue::clear`]),
    /// the numerator for events/sec throughput reporting.
    popped: u64,
    /// With `--features audit`: timestamp of the last popped event, for
    /// monotonicity auditing of the queue ordering itself.
    #[cfg(feature = "audit")]
    last_popped: Option<SimTime>,
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            #[cfg(feature = "audit")]
            last_popped: None,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns the event's sequence
    /// number (useful for cancellation bookkeeping by the caller).
    pub fn push(&mut self, at: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        #[cfg(feature = "audit")]
        {
            // A past-time push (tolerated by the API, never issued by the
            // engine) legitimately makes `at` the earliest poppable time,
            // so the monotonicity watermark rolls back to it.
            if self.last_popped.is_some_and(|p| at < p) {
                self.last_popped = Some(at);
            }
        }
        self.heap.push(HeapEntry(Event { at, seq, payload }));
        seq
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let ev = self.heap.pop()?.0;
        self.popped += 1;
        #[cfg(feature = "audit")]
        {
            if let Some(prev) = self.last_popped {
                debug_assert!(
                    ev.at >= prev,
                    "event queue popped {} after {prev}: heap ordering broken",
                    ev.at
                );
            }
            self.last_popped = Some(ev.at);
        }
        Some(ev)
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `deadline`: the engine loop's single peek-and-pop step.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event<T>> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Lifetime count of events popped from this queue (not reset by
    /// [`EventQueue::clear`]): the sim-events/sec numerator for
    /// throughput reporting.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events (and, under the `audit` feature, the
    /// popped-time watermark — a cleared queue may be reused for a new run).
    pub fn clear(&mut self) {
        self.heap.clear();
        #[cfg(feature = "audit")]
        {
            self.last_popped = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let want: Vec<i32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "early");
        q.push(SimTime::from_micros(100), "late");
        assert_eq!(
            q.pop_before(SimTime::from_micros(50)).map(|e| e.payload),
            Some("early")
        );
        assert!(q.pop_before(SimTime::from_micros(50)).is_none());
        assert_eq!(q.len(), 1);
        // The deadline is inclusive: an event firing exactly at it pops.
        assert_eq!(
            q.pop_before(SimTime::from_micros(100)).map(|e| e.payload),
            Some("late")
        );
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.payload), None);
    }

    #[test]
    fn popped_counts_lifetime_pops_across_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.popped(), 0);
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.pop();
        assert_eq!(q.popped(), 1);
        q.clear();
        assert_eq!(q.popped(), 1, "clear drops pending, not history");
        q.push(SimTime::ZERO, 3);
        q.pop();
        q.pop(); // Empty pop does not count.
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn past_time_pushes_still_order_correctly() {
        // The engine never pushes into the past, but the API tolerates it.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "future");
        assert_eq!(q.pop().map(|e| e.payload), Some("future"));
        q.push(SimTime::from_micros(1), "past");
        q.push(SimTime::from_millis(20), "later");
        assert_eq!(q.pop().map(|e| e.payload), Some("past"));
        assert_eq!(q.pop().map(|e| e.payload), Some("later"));
    }

    /// Property: pops come out sorted by time, FIFO among equal stamps.
    #[test]
    fn prop_pops_are_sorted_and_stable() {
        let mut rng = SmallRng::seed_from_u64(0x9_0e0e);
        for _case in 0..256 {
            let n = rng.gen_range(1usize..200);
            let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1_000)).collect();
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push((e.at, e.payload));
            }
            // Sorted by time.
            for w in popped.windows(2) {
                assert!(w[0].0 <= w[1].0);
                // FIFO among equal timestamps: insertion index increases.
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1);
                }
            }
            assert_eq!(popped.len(), times.len());
        }
    }
}
