//! A deterministic discrete-event queue.
//!
//! Events are popped in timestamp order. Ties are broken by insertion
//! sequence so that runs are bit-for-bit reproducible regardless of
//! scheduler internals.
//!
//! No runtime schedules on this queue: the runtimes advance per-rank and
//! per-engine clocks in closed form. The queue is the first-principles
//! discrete-event reference that tests replay those closed forms against
//! (`gpusim`'s `des_crosscheck`).
//!
//! Storage is arena-backed: payloads live in a slab whose freed slots are
//! recycled through a free list, and a hand-rolled index min-heap orders
//! small `Copy` `(at, seq, slot)` entries. Once the queue has reached its
//! high-water mark, a steady-state schedule/pop cycle touches no allocator
//! at all. The differential proptests at the bottom of this file pin the
//! pop order against a reference `BinaryHeap`.

use std::cmp::Ordering;

use crate::time::SimTime;

/// An event of payload `T` scheduled at a virtual instant.
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic insertion index (FIFO among equal timestamps).
    pub seq: u64,
    /// The payload.
    pub payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour inside BinaryHeap (earliest first,
        // then lowest sequence number).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A heap entry: ordering key plus the arena slot holding the payload.
///
/// `Copy` on purpose — sift operations move these, never the payloads.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    /// Min key: earliest timestamp first, then lowest sequence number.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A min-queue of timestamped events with deterministic FIFO tie-breaking.
///
/// Arena-backed: payloads live in `slots`, freed slots recycle through
/// `free`, and an index min-heap orders `Copy` entries. After warm-up a
/// schedule/pop cycle performs zero heap allocations.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Payload slab; `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// Indices of free slots in `slots`, reused LIFO.
    free: Vec<u32>,
    /// Index min-heap ordered by `(at, seq)`.
    heap: Vec<HeapEntry>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with arena and index capacity for `cap` in-flight
    /// events, so the first `cap` schedules never reallocate.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            heap: Vec::with_capacity(cap),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns the event's sequence id.
    // doebench::hot
    pub fn schedule(&mut self, at: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event arena overflow");
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        seq
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Pop the earliest event.
    ///
    /// # Panics
    /// Panics if event timestamps would move backwards relative to a
    /// previously popped event — that indicates a scheduling bug upstream.
    // doebench::hot
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        assert!(
            entry.at >= self.last_popped,
            "event queue time went backwards: {:?} after {:?}",
            entry.at,
            self.last_popped
        );
        self.last_popped = entry.at;
        let Some(payload) = self.slots[entry.slot as usize].take() else {
            unreachable!("heap entry points at an occupied slot")
        };
        self.free.push(entry.slot);
        Some(Scheduled {
            at: entry.at,
            seq: entry.seq,
            payload,
        })
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < n && self.heap[right].key() < self.heap[left].key() {
                smallest = right;
            }
            if self.heap[smallest].key() < self.heap[i].key() {
                self.heap.swap(i, smallest);
                i = smallest;
            } else {
                break;
            }
        }
    }

    /// Pop all events with timestamps `<= t`, earliest first, handing each
    /// to `sink` without building an intermediate `Vec` — the
    /// allocation-free form for hot event loops.
    pub fn drain_until(&mut self, t: SimTime, mut sink: impl FnMut(Scheduled<T>)) {
        while self.peek_time().is_some_and(|next| next <= t) {
            let Some(ev) = self.pop() else { break };
            sink(ev);
        }
    }

    /// Pop all events with timestamps `<= t`, earliest first.
    ///
    /// Allocates a fresh `Vec` per call; prefer [`Self::drain_until`] in
    /// loops that run per simulated operation.
    pub fn pop_until(&mut self, t: SimTime) -> Vec<Scheduled<T>> {
        let mut out = Vec::new();
        self.drain_until(t, |ev| out.push(ev));
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending event (e.g. device reset). Retains the arena and
    /// index capacity for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.heap.clear();
    }

    /// Capacity of the payload arena — its high-water mark of simultaneous
    /// in-flight events (diagnostic; steady state should plateau here).
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn t(us: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(1.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_is_inclusive() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        q.schedule(t(3.0), 3);
        let popped = q.pop_until(t(2.0));
        assert_eq!(popped.iter().map(|e| e.payload).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_until_visits_in_order_without_collecting() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), 2);
        q.schedule(t(1.0), 1);
        q.schedule(t(3.0), 3);
        let mut seen = Vec::new();
        q.drain_until(t(2.0), |ev| seen.push(ev.payload));
        assert_eq!(seen, [1, 2]);
        assert_eq!(q.len(), 1);
        // Nothing at or before the cut: sink never runs.
        q.drain_until(t(2.5), |_| unreachable!("no events <= 2.5 us left"));
    }

    #[test]
    fn drain_until_on_empty_queue_never_calls_sink() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.drain_until(t(100.0), |_| unreachable!("empty queue has no events"));
        assert!(q.is_empty());
    }

    #[test]
    fn drain_until_past_everything_empties_the_queue() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(t(i as f64), i);
        }
        let mut seen = Vec::new();
        q.drain_until(t(1e9), |ev| seen.push(ev.payload));
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn drain_until_tie_break_at_exactly_t_is_inclusive_and_fifo() {
        let mut q = EventQueue::new();
        // Three events at exactly the cut, one just after, one before.
        q.schedule(t(2.0), "tie-1");
        q.schedule(t(2.0) + SimDuration::from_ps(1), "after");
        q.schedule(t(1.0), "before");
        q.schedule(t(2.0), "tie-2");
        q.schedule(t(2.0), "tie-3");
        let mut seen = Vec::new();
        q.drain_until(t(2.0), |ev| seen.push(ev.payload));
        // Inclusive at t, FIFO among the equal timestamps.
        assert_eq!(seen, ["before", "tie-1", "tie-2", "tie-3"]);
        assert_eq!(q.len(), 1);
        let rest = q.pop().map(|e| e.payload);
        assert_eq!(rest, Some("after"));
    }

    #[test]
    fn drain_until_repeated_calls_resume_where_they_stopped() {
        let mut q = EventQueue::new();
        for i in 0..6 {
            q.schedule(t(i as f64), i);
        }
        let mut first = Vec::new();
        q.drain_until(t(2.0), |ev| first.push(ev.payload));
        assert_eq!(first, [0, 1, 2]);
        let mut second = Vec::new();
        q.drain_until(t(5.0), |ev| second.push(ev.payload));
        assert_eq!(second, [3, 4, 5]);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn arena_slots_are_recycled_in_steady_state() {
        let mut q = EventQueue::with_capacity(4);
        // Warm up to 3 simultaneous in-flight events.
        for i in 0..3 {
            q.schedule(t(i as f64), i);
        }
        // Steady state: pop one, schedule one, a thousand times over.
        for i in 3..1000 {
            q.pop().expect("queue holds 3 events");
            q.schedule(t(i as f64), i);
        }
        // The arena never grew past the high-water mark.
        assert_eq!(q.arena_len(), 3);
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![997, 998, 999]);
    }

    /// Operations a queue run is built from, for the differential proptest.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u64),
        /// Push at exactly the current floor — maximizes same-timestamp ties.
        PushTie,
        Pop,
        DrainUntil(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..1_000).prop_map(Op::Push),
            (0u64..12).prop_map(Op::Push),
            Just(Op::PushTie),
            Just(Op::Pop),
            (0u64..1_000).prop_map(Op::DrainUntil),
        ]
    }

    proptest! {
        /// The arena heap vs. a reference `BinaryHeap`: identical
        /// observable (timestamp, seq, payload) pop order under arbitrary
        /// interleaved push / tie-push / pop / drain_until sequences.
        #[test]
        fn prop_heap_and_reference_agree(ops in proptest::collection::vec(op_strategy(), 0..160)) {
            use std::collections::BinaryHeap;

            let mut q: EventQueue<u32> = EventQueue::new();
            let mut reference: BinaryHeap<Scheduled<u32>> = BinaryHeap::new();
            let mut ref_seq = 0u64;
            // The reference has no monotonicity guard, so only advance time:
            // drop ops that would schedule before the last observed pop.
            let mut floor = SimTime::ZERO;
            let mut payload = 0u32;

            for op in ops {
                let push_at = match op {
                    Op::Push(ps) => Some(floor + SimDuration::from_ps(ps)),
                    Op::PushTie => Some(floor),
                    Op::Pop | Op::DrainUntil(_) => None,
                };
                if let Some(at) = push_at {
                    prop_assert_eq!(q.schedule(at, payload), ref_seq);
                    reference.push(Scheduled { at, seq: ref_seq, payload });
                    ref_seq += 1;
                    payload += 1;
                }
                match op {
                    Op::Push(_) | Op::PushTie => {}
                    Op::Pop => match (q.pop(), reference.pop()) {
                        (None, None) => {}
                        (Some(g), Some(w)) => {
                            prop_assert_eq!(g.at, w.at);
                            prop_assert_eq!(g.seq, w.seq);
                            prop_assert_eq!(g.payload, w.payload);
                            floor = g.at;
                        }
                        (g, w) => prop_assert!(false, "pop mismatch: {:?} vs {:?}", g, w),
                    },
                    Op::DrainUntil(ps) => {
                        let cut = floor + SimDuration::from_ps(ps);
                        let mut want = Vec::new();
                        while reference.peek().is_some_and(|e| e.at <= cut) {
                            let Some(e) = reference.pop() else { break };
                            want.push(e);
                        }
                        let mut got = Vec::new();
                        q.drain_until(cut, |ev| got.push(ev));
                        prop_assert_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(&want) {
                            prop_assert_eq!(g.at, w.at);
                            prop_assert_eq!(g.seq, w.seq);
                            prop_assert_eq!(g.payload, w.payload);
                        }
                        if let Some(last) = want.last() {
                            floor = last.at;
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_time(), reference.peek().map(|e| e.at));
            }
        }
    }

    proptest! {
        /// Deep-population differential run against a reference
        /// `BinaryHeap`, checked pop-by-pop.
        #[test]
        fn prop_deep_population_pops_identically(
            times in proptest::collection::vec(0u64..50_000, 300..600),
        ) {
            use std::collections::BinaryHeap;

            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            for (i, &ps) in times.iter().enumerate() {
                let at = SimTime::from_ps(ps);
                let seq = q.schedule(at, i);
                reference.push(Scheduled { at, seq, payload: i });
            }
            loop {
                match (q.pop(), reference.pop()) {
                    (None, None) => break,
                    (Some(g), Some(w)) => {
                        prop_assert_eq!(g.at, w.at);
                        prop_assert_eq!(g.seq, w.seq);
                        prop_assert_eq!(g.payload, w.payload);
                    }
                    (g, w) => prop_assert!(false, "pop mismatch: {:?} vs {:?}", g, w),
                }
            }
        }

        #[test]
        fn prop_pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &ps) in times.iter().enumerate() {
                q.schedule(SimTime::from_ps(ps), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some(ev) = q.pop() {
                if let Some((pt, pseq)) = prev {
                    prop_assert!(ev.at >= pt);
                    if ev.at == pt {
                        // FIFO among equal timestamps
                        prop_assert!(ev.payload > pseq);
                    }
                }
                prev = Some((ev.at, ev.payload));
            }
        }

        #[test]
        fn prop_pop_until_partitions(times in proptest::collection::vec(0u64..1_000, 0..100), cut in 0u64..1_000) {
            let mut q = EventQueue::new();
            for &ps in &times {
                q.schedule(SimTime::from_ps(ps), ps);
            }
            let popped = q.pop_until(SimTime::from_ps(cut));
            prop_assert!(popped.iter().all(|e| e.at <= SimTime::from_ps(cut)));
            prop_assert_eq!(popped.len() + q.len(), times.len());
            if let Some(nt) = q.peek_time() {
                prop_assert!(nt > SimTime::from_ps(cut));
            }
        }
    }
}
