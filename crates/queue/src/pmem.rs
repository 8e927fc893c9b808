//! Algorithm 1 over an interposable persistence backend.
//!
//! These queues keep their volatile state (head mirror, reservation list)
//! in plain variables and every persistent access on a
//! [`persist_mem::PmemBackend`], so the `pfi` fault injector can shadow
//! every persistence event and crash the protocol at arbitrary points, and
//! `serve` shards can run them over `DirectPmem`. Recovery is shared with
//! every other execution mode: [`crate::recovery::recover`] runs unchanged
//! on the materialized image.
//!
//! Two designs, as in §6 of the paper:
//!
//! - [`PmemCwlQueue`] — Copy While Locked, single inserter. Its insert is
//!   the same critical section the traced [`crate::traced::CwlQueue`]
//!   runs under its lock, with the same [`BarrierMode`];
//!   [`BarrierMode::Elided`] is the known-buggy specimen the injector must
//!   catch (the head can persist while its entry is dropped under any
//!   model weaker than sequential strict persistency).
//! - [`PmemTwoLockQueue`] — Two-Lock Concurrent, reservation / completion
//!   split. Completions may finish out of reservation order; the head
//!   pointer only ever advances over the contiguous completed prefix.
//!   Deviation from Algorithm 1: each completion persists its own entry
//!   (flush + fence) *before* marking itself done, instead of relying on a
//!   single barrier at head-update time. This is the conservative
//!   placement that stays correct under strand persistency, where a
//!   barrier in the updating strand does not order entry persists from
//!   other strands; it also makes completed inserts durable as soon as the
//!   head covering them persists, which the injector's linearizable-prefix
//!   check relies on.

use crate::entry::{copy_entry, ENTRY_BYTES};
use crate::traced::{cwl_critical_section, BarrierMode, QueueLayout, QueueParams};
use persist_mem::PmemBackend;
use std::collections::VecDeque;

/// Copy While Locked over a [`PmemBackend`] (single inserter — the lock
/// holder of Algorithm 1; the backend event stream is inherently serial).
#[derive(Debug, Clone)]
pub struct PmemCwlQueue {
    layout: QueueLayout,
    mode: BarrierMode,
    /// Volatile mirror of the head pointer (absolute bytes). Rebuilt from
    /// the image after recovery, lost at crash.
    head: u64,
}

impl PmemCwlQueue {
    /// Creates an empty queue over `layout`.
    pub fn new(layout: QueueLayout, mode: BarrierMode) -> Self {
        PmemCwlQueue { layout, mode, head: 0 }
    }

    /// The queue's persistent layout.
    pub fn layout(&self) -> &QueueLayout {
        &self.layout
    }

    /// Absolute head position (bytes) after the inserts so far.
    pub fn head_bytes(&self) -> u64 {
        self.head
    }

    /// Inserts one self-validating entry; returns the absolute byte
    /// position it was written at.
    pub fn insert(&mut self, mem: impl PmemBackend) -> u64 {
        let h = cwl_critical_section(mem, &self.layout, self.mode);
        self.head = h + QueueParams::SLOT_BYTES;
        h
    }
}

/// One reservation in the 2LC volatile insert list.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    start: u64,
    done: bool,
}

/// Two-Lock Concurrent over a [`PmemBackend`].
///
/// [`PmemTwoLockQueue::reserve`] models the critical section under
/// `reserveLock` (volatile only: it assigns the next data-segment region);
/// [`PmemTwoLockQueue::complete`] models the entry copy plus the
/// `updateLock` section. Completions may be issued in any order;
/// the head pointer advances only over the contiguous completed prefix,
/// so the persisted head never exposes a hole.
#[derive(Debug, Clone)]
pub struct PmemTwoLockQueue {
    layout: QueueLayout,
    /// Volatile reservation head (absolute bytes).
    headv: u64,
    /// Volatile mirror of the persisted head pointer.
    head: u64,
    /// Outstanding reservations, oldest first.
    pending: VecDeque<Reservation>,
}

impl PmemTwoLockQueue {
    /// Creates an empty queue over `layout`.
    pub fn new(layout: QueueLayout) -> Self {
        PmemTwoLockQueue { layout, headv: 0, head: 0, pending: VecDeque::new() }
    }

    /// The queue's persistent layout.
    pub fn layout(&self) -> &QueueLayout {
        &self.layout
    }

    /// Persisted head position (bytes) — only reservations below this are
    /// recoverable.
    pub fn head_bytes(&self) -> u64 {
        self.head
    }

    /// Number of reservations not yet covered by the persisted head.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Takes the next data-segment region (Algorithm 1 lines 17–20).
    /// Volatile bookkeeping only; returns the reservation's absolute start.
    pub fn reserve(&mut self) -> u64 {
        let start = self.headv;
        self.headv += QueueParams::SLOT_BYTES;
        self.pending.push_back(Reservation { start, done: false });
        start
    }

    /// Copies and persists the entry for reservation `start`, then
    /// advances the head over the completed prefix (lines 21–31). Returns
    /// the persisted head after the call.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not an outstanding reservation.
    pub fn complete(&mut self, mut mem: impl PmemBackend, start: u64) -> u64 {
        let cap = self.layout.params.capacity_bytes();
        let r = self
            .pending
            .iter_mut()
            .find(|r| r.start == start)
            .expect("complete() of an outstanding reservation");
        assert!(!r.done, "reservation completed twice");
        r.done = true;

        mem.strand(); // line 21: this copy is its own strand
        // Line 22: COPY(data[start], (length, entry), length + sl)
        let dst = copy_entry(&mut mem, self.layout.data, cap, start);
        // Entry durable before this insert can be marked done (see module
        // docs for why the fence sits here rather than at head-update).
        mem.persist(dst, ENTRY_BYTES);

        // Lines 23–31: pop the completed prefix, publish the new head.
        let mut newhead = None;
        while self.pending.front().is_some_and(|r| r.done) {
            let r = self.pending.pop_front().expect("checked front");
            newhead = Some(r.start + QueueParams::SLOT_BYTES);
        }
        if let Some(nh) = newhead {
            mem.store_u64(self.layout.head, nh); // line 28
            mem.persist(self.layout.head, 8);
            self.head = nh;
        }
        self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery;
    use persist_mem::{DirectPmem, MemAddr};

    fn layout(capacity: u64, margin: u64) -> QueueLayout {
        QueueLayout {
            head: MemAddr::persistent(0),
            data: MemAddr::persistent(persist_mem::CACHE_LINE_BYTES),
            params: QueueParams::new(capacity).with_recovery_margin(margin),
        }
    }

    #[test]
    fn cwl_inserts_recover_over_direct_backend() {
        let layout = layout(8, 1);
        let mut q = PmemCwlQueue::new(layout, BarrierMode::Full);
        let mut mem = DirectPmem::new();
        for _ in 0..5 {
            q.insert(&mut mem);
        }
        let rq = recovery::recover(mem.image(), &layout).unwrap();
        assert_eq!(rq.head_bytes, 5 * QueueParams::SLOT_BYTES);
        assert_eq!(rq.entries.len(), 5);
    }

    #[test]
    fn cwl_wraps_and_respects_margin() {
        let layout = layout(4, 1);
        let mut q = PmemCwlQueue::new(layout, BarrierMode::Full);
        let mut mem = DirectPmem::new();
        for _ in 0..10 {
            q.insert(&mut mem);
        }
        let rq = recovery::recover(mem.image(), &layout).unwrap();
        assert_eq!(rq.head_bytes, 10 * QueueParams::SLOT_BYTES);
        assert_eq!(rq.entries.len(), 3); // capacity − margin after wrap
    }

    #[test]
    fn elided_mode_is_functionally_identical_without_crashes() {
        let layout = layout(8, 1);
        let mut q = PmemCwlQueue::new(layout, BarrierMode::Elided);
        let mut mem = DirectPmem::new();
        for _ in 0..6 {
            q.insert(&mut mem);
        }
        let rq = recovery::recover(mem.image(), &layout).unwrap();
        assert_eq!(rq.entries.len(), 6);
    }

    #[test]
    fn twolock_out_of_order_completion_keeps_prefix() {
        let layout = layout(8, 3);
        let mut q = PmemTwoLockQueue::new(layout);
        let mut mem = DirectPmem::new();
        let a = q.reserve();
        let b = q.reserve();
        let c = q.reserve();
        // Completing the middle and last reservations does not advance the
        // head past the incomplete first one.
        assert_eq!(q.complete(&mut mem, b), 0);
        assert_eq!(q.complete(&mut mem, c), 0);
        assert_eq!(recovery::recover(mem.image(), &layout).unwrap().entries.len(), 0);
        // Completing the first reservation publishes all three.
        assert_eq!(q.complete(&mut mem, a), 3 * QueueParams::SLOT_BYTES);
        let rq = recovery::recover(mem.image(), &layout).unwrap();
        assert_eq!(rq.entries.len(), 3);
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn twolock_wraps_with_margin() {
        let layout = layout(8, 3);
        let mut q = PmemTwoLockQueue::new(layout);
        let mut mem = DirectPmem::new();
        for _ in 0..20 {
            let s = q.reserve();
            q.complete(&mut mem, s);
        }
        let rq = recovery::recover(mem.image(), &layout).unwrap();
        assert_eq!(rq.head_bytes, 20 * QueueParams::SLOT_BYTES);
        assert_eq!(rq.entries.len(), 5); // capacity − margin after wrap
    }

    #[test]
    #[should_panic(expected = "outstanding reservation")]
    fn twolock_rejects_unknown_completion() {
        let layout = layout(8, 3);
        let mut q = PmemTwoLockQueue::new(layout);
        let mut mem = DirectPmem::new();
        q.complete(&mut mem, 999);
    }
}
