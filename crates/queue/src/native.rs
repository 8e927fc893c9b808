//! Native (untraced) queue implementations for instruction-rate
//! measurement.
//!
//! Table 1 normalizes persist-bound throughput to the *instruction
//! execution rate*: how fast the queue inserts when persists are free. The
//! paper measures this on real hardware (a Xeon E5645); we measure it on
//! the host with the same code shape — real threads, MCS locks, and real
//! cache-line flush instructions at each persist point (`clflush`/`sfence`
//! on x86_64) so the persist-interface cost is included.

use crate::entry::EntryCodec;
use crate::traced::QueueParams;
use crate::PAYLOAD_BYTES;
use persist_mem::hw;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Queue node for [`NativeMcsLock`]; one per thread per lock, 128-byte
/// aligned against false sharing.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct McsNode {
    next: AtomicUsize,
    locked: AtomicBool,
}

impl McsNode {
    /// Creates an unlinked node.
    pub fn new() -> Self {
        Self::default()
    }
}

/// MCS queue lock over real atomics — the lock the paper uses for all
/// critical sections (§7).
#[derive(Debug, Default)]
pub struct NativeMcsLock {
    tail: AtomicUsize,
}

impl NativeMcsLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock through `node`.
    ///
    /// The node must not be in use by another acquisition.
    pub fn acquire(&self, node: &McsNode) {
        node.next.store(0, Ordering::Relaxed);
        node.locked.store(true, Ordering::Relaxed);
        let me = node as *const McsNode as usize;
        let pred = self.tail.swap(me, Ordering::AcqRel);
        if pred != 0 {
            // SAFETY: `pred` points to a live McsNode: its owner cannot
            // return from release() (and thus invalidate it) until it has
            // observed and unblocked us via our `next` link.
            let pred = unsafe { &*(pred as *const McsNode) };
            pred.next.store(me, Ordering::Release);
            let mut spins = 0u32;
            while node.locked.load(Ordering::Acquire) {
                spins += 1;
                if spins > 64 {
                    // On few-core hosts the holder needs the CPU.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Releases the lock acquired through `node`.
    pub fn release(&self, node: &McsNode) {
        let me = node as *const McsNode as usize;
        if node.next.load(Ordering::Acquire) == 0 {
            if self
                .tail
                .compare_exchange(me, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            let mut spins = 0u32;
            while node.next.load(Ordering::Acquire) == 0 {
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        let succ = node.next.load(Ordering::Acquire);
        // SAFETY: the successor is spinning on its own node; it stays alive
        // until we clear its `locked` flag.
        unsafe { &*(succ as *const McsNode) }.locked.store(false, Ordering::Release);
    }
}

/// Shared circular data segment written through raw pointers.
///
/// Writers are guaranteed disjoint regions (by the queue lock in CWL, by
/// reservation in 2LC), which is exactly the aliasing contract the raw
/// writes rely on.
#[derive(Debug)]
struct DataSegment {
    bytes: UnsafeCell<Box<[u8]>>,
}

// SAFETY: concurrent access only through `write_entry`, whose callers
// guarantee disjoint regions.
unsafe impl Sync for DataSegment {}

impl DataSegment {
    fn new(capacity_bytes: u64) -> Self {
        DataSegment { bytes: UnsafeCell::new(vec![0u8; capacity_bytes as usize].into_boxed_slice()) }
    }

    /// Writes `length || payload` at `pos` and flushes the lines.
    ///
    /// Callers must hold the right to `[pos, pos + slot)` exclusively.
    fn write_entry(&self, pos: u64, payload: &[u8]) {
        debug_assert_eq!(payload.len(), PAYLOAD_BYTES);
        // SAFETY: `pos` is a slot start (`head % capacity`, and the
        // capacity is a whole number of slots), and a slot holds the 8-byte
        // length plus the payload, so every write stays inside the boxed
        // segment. The caller owns `[pos, pos + slot)` exclusively, so no
        // other thread reads or writes these bytes meanwhile, and
        // `payload` (a separate allocation) cannot overlap them.
        unsafe {
            let base = (*self.bytes.get()).as_mut_ptr().add(pos as usize);
            base.cast::<u64>().write_unaligned(PAYLOAD_BYTES as u64);
            std::ptr::copy_nonoverlapping(payload.as_ptr(), base.add(8), payload.len());
            hw::flush_range(base, 8 + payload.len());
        }
    }

    fn read_slot(&self, pos: u64) -> (u64, Vec<u8>) {
        // SAFETY: in bounds as in `write_entry`. Reads happen only in
        // validation, after the inserting threads are done, so no write to
        // the slot is in flight.
        unsafe {
            let base = (*self.bytes.get()).as_ptr().add(pos as usize);
            let len = base.cast::<u64>().read_unaligned();
            let mut payload = vec![0u8; PAYLOAD_BYTES];
            std::ptr::copy_nonoverlapping(base.add(8), payload.as_mut_ptr(), PAYLOAD_BYTES);
            (len, payload)
        }
    }
}

/// Native Copy While Locked.
#[derive(Debug)]
pub struct NativeCwlQueue {
    head: AtomicU64,
    data: DataSegment,
    lock: NativeMcsLock,
    params: QueueParams,
}

impl NativeCwlQueue {
    /// Creates an empty queue.
    pub fn new(params: QueueParams) -> Self {
        NativeCwlQueue {
            head: AtomicU64::new(0),
            data: DataSegment::new(params.capacity_bytes()),
            lock: NativeMcsLock::new(),
            params,
        }
    }

    /// Inserts one entry; returns its absolute byte position.
    pub fn insert(&self, node: &McsNode) -> u64 {
        let cap = self.params.capacity_bytes();
        hw::persist_fence(); // line 3 persist barrier
        self.lock.acquire(node);
        hw::persist_fence(); // line 5
        let h = self.head.load(Ordering::Relaxed);
        let pos = h % cap;
        let payload = EntryCodec::encode(pos, h / cap);
        self.data.write_entry(pos, &payload); // line 7 (copy + flush)
        hw::persist_fence(); // line 8
        self.head.store(h + QueueParams::SLOT_BYTES, Ordering::Release); // line 9
        // SAFETY: &self.head is a live field of self.
        unsafe { hw::flush_cache_line(&self.head as *const _ as *const u8) };
        hw::persist_fence(); // line 11
        self.lock.release(node);
        hw::persist_fence(); // line 13
        h
    }

    /// Current head pointer (absolute bytes).
    pub fn head_bytes(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Validates every entry the head pointer claims; returns the count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid entry.
    pub fn validate(&self) -> Result<u64, String> {
        validate_segment(&self.data, self.head_bytes(), self.params)
    }
}

/// One 2LC reservation-ring slot.
#[derive(Debug, Default)]
#[repr(align(128))]
struct RingSlot {
    end: AtomicU64,
    state: AtomicU64,
}

const FREE: u64 = 0;
const DONE: u64 = 2;

/// Native Two-Lock Concurrent.
#[derive(Debug)]
pub struct NativeTwoLockQueue {
    head: AtomicU64,
    headv: AtomicU64,
    data: DataSegment,
    reserve: NativeMcsLock,
    update: NativeMcsLock,
    ring: Vec<RingSlot>,
    ticket: AtomicU64,
    front: AtomicU64,
    params: QueueParams,
}

impl NativeTwoLockQueue {
    /// Creates an empty queue.
    pub fn new(params: QueueParams) -> Self {
        NativeTwoLockQueue {
            head: AtomicU64::new(0),
            headv: AtomicU64::new(0),
            data: DataSegment::new(params.capacity_bytes()),
            reserve: NativeMcsLock::new(),
            update: NativeMcsLock::new(),
            ring: (0..64).map(|_| RingSlot::default()).collect(),
            ticket: AtomicU64::new(0),
            front: AtomicU64::new(0),
            params,
        }
    }

    /// Inserts one entry; returns its absolute byte position. `node_r` and
    /// `node_u` are this thread's MCS nodes for the two locks.
    pub fn insert(&self, node_r: &McsNode, node_u: &McsNode) -> u64 {
        let cap = self.params.capacity_bytes();
        // Reserve a region and a ring slot.
        self.reserve.acquire(node_r);
        let start = self.headv.load(Ordering::Relaxed);
        self.headv.store(start + QueueParams::SLOT_BYTES, Ordering::Relaxed);
        let ticket = self.ticket.load(Ordering::Relaxed);
        let slot = &self.ring[(ticket % self.ring.len() as u64) as usize];
        let mut spins = 0u32;
        while slot.state.load(Ordering::Acquire) != FREE {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        slot.end.store(start + QueueParams::SLOT_BYTES, Ordering::Relaxed);
        slot.state.store(1, Ordering::Release); // PENDING
        self.ticket.store(ticket + 1, Ordering::Relaxed);
        self.reserve.release(node_r);

        // Copy outside any lock (the design's persist concurrency).
        let pos = start % cap;
        let payload = EntryCodec::encode(pos, start / cap);
        self.data.write_entry(pos, &payload);

        // Publish over the contiguous completed prefix.
        self.update.acquire(node_u);
        slot.state.store(DONE, Ordering::Release);
        let mut front = self.front.load(Ordering::Relaxed);
        let mut newhead = None;
        loop {
            let f = &self.ring[(front % self.ring.len() as u64) as usize];
            if f.state.load(Ordering::Acquire) != DONE {
                break;
            }
            newhead = Some(f.end.load(Ordering::Relaxed));
            f.state.store(FREE, Ordering::Release);
            front += 1;
        }
        self.front.store(front, Ordering::Relaxed);
        if let Some(nh) = newhead {
            hw::persist_fence(); // line 27 persist barrier
            self.head.store(nh, Ordering::Release);
            // SAFETY: &self.head is a live field of self.
            unsafe { hw::flush_cache_line(&self.head as *const _ as *const u8) };
        }
        self.update.release(node_u);
        start
    }

    /// Current head pointer (absolute bytes).
    pub fn head_bytes(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Validates every entry the head pointer claims; returns the count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid entry.
    pub fn validate(&self) -> Result<u64, String> {
        validate_segment(&self.data, self.head_bytes(), self.params)
    }
}

fn validate_segment(data: &DataSegment, head: u64, params: QueueParams) -> Result<u64, String> {
    let slot_bytes = QueueParams::SLOT_BYTES;
    let cap = params.capacity_bytes();
    if !head.is_multiple_of(slot_bytes) {
        return Err(format!("head {head} misaligned"));
    }
    let total = head / slot_bytes;
    let valid = total.min(params.capacity_entries);
    for k in 0..valid {
        let p = head - (valid - k) * slot_bytes;
        let (len, payload) = data.read_slot(p % cap);
        if len != PAYLOAD_BYTES as u64 {
            return Err(format!("slot {}: bad length {len}", p % cap));
        }
        EntryCodec::validate(&payload, p % cap, p / cap)
            .map_err(|e| format!("slot {}: {e}", p % cap))?;
    }
    Ok(valid)
}

/// Which native queue to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Copy While Locked.
    Cwl,
    /// Two-Lock Concurrent.
    TwoLock,
}

/// Measures the native insert rate: `threads` threads each insert
/// `inserts_per_thread` entries; returns aggregate inserts per second.
///
/// This is the paper's *instruction execution rate* measurement (§7), used
/// as the Table 1 normalization denominator and the Figure 3 compute-bound
/// ceiling.
pub fn measure_insert_rate(kind: QueueKind, threads: u32, inserts_per_thread: u64) -> f64 {
    let params = QueueParams::new(8192);
    let total = threads as u64 * inserts_per_thread;
    let elapsed = match kind {
        QueueKind::Cwl => {
            let q = NativeCwlQueue::new(params);
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        let node = McsNode::new();
                        for _ in 0..inserts_per_thread {
                            q.insert(&node);
                        }
                    });
                }
            });
            start.elapsed()
        }
        QueueKind::TwoLock => {
            let q = NativeTwoLockQueue::new(params);
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        let node_r = McsNode::new();
                        let node_u = McsNode::new();
                        for _ in 0..inserts_per_thread {
                            q.insert(&node_r, &node_u);
                        }
                    });
                }
            });
            start.elapsed()
        }
    };
    total as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_cwl_single_thread() {
        let q = NativeCwlQueue::new(QueueParams::new(64));
        let node = McsNode::new();
        for _ in 0..20 {
            q.insert(&node);
        }
        assert_eq!(q.head_bytes(), 20 * QueueParams::SLOT_BYTES);
        assert_eq!(q.validate().unwrap(), 20);
    }

    #[test]
    fn native_cwl_multithreaded() {
        let q = NativeCwlQueue::new(QueueParams::new(1024));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let node = McsNode::new();
                    for _ in 0..50 {
                        q.insert(&node);
                    }
                });
            }
        });
        assert_eq!(q.head_bytes(), 200 * QueueParams::SLOT_BYTES);
        assert_eq!(q.validate().unwrap(), 200);
    }

    #[test]
    fn native_2lc_multithreaded() {
        let q = NativeTwoLockQueue::new(QueueParams::new(1024));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let node_r = McsNode::new();
                    let node_u = McsNode::new();
                    for _ in 0..50 {
                        q.insert(&node_r, &node_u);
                    }
                });
            }
        });
        assert_eq!(q.head_bytes(), 200 * QueueParams::SLOT_BYTES);
        assert_eq!(q.validate().unwrap(), 200);
    }

    #[test]
    fn native_2lc_wraps() {
        let q = NativeTwoLockQueue::new(QueueParams::new(8));
        let node_r = McsNode::new();
        let node_u = McsNode::new();
        for _ in 0..20 {
            q.insert(&node_r, &node_u);
        }
        assert_eq!(q.head_bytes(), 20 * QueueParams::SLOT_BYTES);
        assert_eq!(q.validate().unwrap(), 8);
    }

    #[test]
    fn mcs_lock_mutual_exclusion() {
        let lock = NativeMcsLock::new();
        let counter = UnsafeCell::new(0u64);
        struct Shared<'a>(&'a NativeMcsLock, &'a UnsafeCell<u64>);
        // SAFETY: the counter is only touched while holding the lock, which
        // is what this test checks.
        unsafe impl Sync for Shared<'_> {}
        let shared = Shared(&lock, &counter);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sh = &shared;
                s.spawn(move || {
                    let node = McsNode::new();
                    for _ in 0..10_000 {
                        sh.0.acquire(&node);
                        // SAFETY: a non-atomic increment, exclusive under
                        // the lock.
                        unsafe { *sh.1.get() += 1 };
                        sh.0.release(&node);
                    }
                });
            }
        });
        // SAFETY: every thread has joined; nothing else holds the cell.
        assert_eq!(unsafe { *counter.get() }, 40_000);
    }

    #[test]
    fn measured_rate_is_positive() {
        let r = measure_insert_rate(QueueKind::Cwl, 1, 2000);
        assert!(r > 0.0);
        let r = measure_insert_rate(QueueKind::TwoLock, 2, 1000);
        assert!(r > 0.0);
    }
}
