//! Bounded producer/consumer queue: the insert-only queue of §6 extended
//! with a persistent tail pointer and a consumer side.
//!
//! The paper's queue only inserts; once its circular buffer wraps, the
//! oldest head-window entry may be mid-overwrite at failure, and under
//! strand persistency or racing epochs *no* fixed recovery margin bounds
//! the damage (see `QueueParams::recovery_margin`). The classic fix is
//! flow control against a consumer-maintained tail — and persistency
//! gives it teeth through exactly the idiom §5.3 describes for strands:
//!
//! > "a persist strand begins by reading persisted memory locations after
//! > which new persists must be ordered. These reads introduce ordering
//! > dependences through strong persist atomicity, which can then be
//! > enforced with a subsequent persist barrier."
//!
//! The producer *reads the tail pointer* (waiting for space), then issues
//! a persist barrier, then copies. Through strong persist atomicity the
//! copy is ordered after the tail persist the producer observed, so at
//! recovery any visible copy byte implies the recovered tail has already
//! advanced past the slot being overwritten: the window `[tail, head)` is
//! always fully valid — **no recovery margin, under every model,
//! including strand and across wrap-around**. The crash tests verify
//! this, and that removing the barrier reintroduces the corruption.

use crate::entry::{copy_entry, EntryCodec, PAYLOAD_BYTES};
use crate::traced::QueueParams;
use mem_trace::locks::McsLock;
use mem_trace::{Scheduler, ThreadCtx, TracedMem};
use persist_mem::{MemAddr, MemoryImage, CACHE_LINE_BYTES};

/// Placement of a bounded queue in the persistent space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedLayout {
    /// Producer-side head pointer (absolute bytes, monotone).
    pub head: MemAddr,
    /// Consumer-side tail pointer (absolute bytes, monotone, ≤ head).
    pub tail: MemAddr,
    /// Base of the circular data segment.
    pub data: MemAddr,
    /// Sizing.
    pub params: QueueParams,
}

impl BoundedLayout {
    /// Allocates head, tail and data segment.
    ///
    /// # Panics
    ///
    /// Panics on allocation failure (the simulated space is unbounded).
    pub fn allocate<S: Scheduler>(mem: &TracedMem<S>, params: QueueParams) -> Self {
        let head = mem.setup_alloc(CACHE_LINE_BYTES, CACHE_LINE_BYTES).expect("head");
        let tail = mem.setup_alloc(CACHE_LINE_BYTES, CACHE_LINE_BYTES).expect("tail");
        let data = mem
            .setup_alloc(params.capacity_bytes(), CACHE_LINE_BYTES)
            .expect("data segment");
        BoundedLayout { head, tail, data, params }
    }
}

/// Fixed volatile addresses for the bounded queue's locks and MCS nodes
/// (disjoint from the `traced` module's map).
const INSERT_LOCK: MemAddr = MemAddr::volatile(448);
const CONSUME_LOCK: MemAddr = MemAddr::volatile(512);
const NODE_BASE: u64 = 1 << 21;

fn mcs_node(thread: u64, which: u64) -> MemAddr {
    MemAddr::volatile(NODE_BASE + thread * 4 * CACHE_LINE_BYTES + which * CACHE_LINE_BYTES)
}

/// Copy While Locked with a consumer side and wrap-safe flow control.
#[derive(Debug, Clone, Copy)]
pub struct BoundedQueue {
    layout: BoundedLayout,
    insert_lock: McsLock,
    consume_lock: McsLock,
    /// Whether the producer issues the §5.3 read-then-barrier idiom
    /// before copying (disabled only by tests demonstrating the bug).
    tail_read_barrier: bool,
}

impl BoundedQueue {
    /// Creates the queue over an allocated layout.
    pub fn new(layout: BoundedLayout) -> Self {
        BoundedQueue {
            layout,
            insert_lock: McsLock::new(INSERT_LOCK),
            consume_lock: McsLock::new(CONSUME_LOCK),
            tail_read_barrier: true,
        }
    }

    /// Disables the tail-read persist barrier — the deliberately broken
    /// variant used to show the idiom is load-bearing.
    #[must_use]
    pub fn without_tail_read_barrier(mut self) -> Self {
        self.tail_read_barrier = false;
        self
    }

    /// The queue's layout.
    pub fn layout(&self) -> &BoundedLayout {
        &self.layout
    }

    /// Inserts one self-validating entry, blocking (spinning) while the
    /// buffer is full. Returns the absolute byte position.
    pub fn insert<S: Scheduler>(&self, ctx: &ThreadCtx<'_, S>) -> u64 {
        let t = ctx.thread_id().as_u64();
        let node = mcs_node(t, 0);
        let cap = self.layout.params.capacity_bytes();
        let slot_bytes = QueueParams::SLOT_BYTES;

        ctx.persist_barrier();
        self.insert_lock.acquire(ctx, node);
        ctx.mem_barrier();
        ctx.persist_barrier();
        ctx.new_strand();

        let h = ctx.load_u64(self.layout.head);
        // Flow control: wait until the slot we are about to overwrite has
        // been consumed. The tail *read* adopts the tail persist's
        // ordering...
        while h + slot_bytes - ctx.load_u64(self.layout.tail) > cap {
            std::thread::yield_now();
        }
        // ...and this barrier makes the copy depend on it (§5.3): at
        // recovery, a visible copy byte implies the observed tail persist.
        if self.tail_read_barrier {
            ctx.persist_barrier();
            ctx.mem_barrier();
        }

        copy_entry(ctx, self.layout.data, cap, h);

        ctx.mem_barrier();
        ctx.persist_barrier();
        ctx.store_u64(self.layout.head, h + slot_bytes);
        ctx.persist_barrier();
        ctx.mem_barrier();
        self.insert_lock.release(ctx, node);
        ctx.persist_barrier();
        h
    }

    /// Pops the oldest entry if one exists; returns its absolute byte
    /// position. The entry is validated before the tail advances.
    ///
    /// # Panics
    ///
    /// Panics if the stored entry fails validation — that would mean the
    /// producers' persist ordering is broken.
    pub fn pop<S: Scheduler>(&self, ctx: &ThreadCtx<'_, S>) -> Option<u64> {
        let t = ctx.thread_id().as_u64();
        let node = mcs_node(t, 1);
        let cap = self.layout.params.capacity_bytes();
        let slot_bytes = QueueParams::SLOT_BYTES;

        self.consume_lock.acquire(ctx, node);
        ctx.mem_barrier();
        let tl = ctx.load_u64(self.layout.tail);
        let h = ctx.load_u64(self.layout.head);
        if tl == h {
            self.consume_lock.release(ctx, node);
            return None;
        }
        let pos = tl % cap;
        let base = self.layout.data.add(pos);
        let len = ctx.load_u64(base);
        assert_eq!(len, PAYLOAD_BYTES as u64, "corrupt entry length at the consumer");
        let mut payload = vec![0u8; PAYLOAD_BYTES];
        ctx.read_bytes(base.add(8), &mut payload);
        EntryCodec::validate(&payload, pos, tl / cap).expect("consumer read a corrupt entry");
        // Order the tail advance after the head/entry state just observed
        // (the loads adopted those persists' ordering; the barrier makes
        // the tail persist inherit it). Without this, a failure could
        // expose tail > head.
        ctx.persist_barrier();
        ctx.mem_barrier();
        // Free the slot: persist the advanced tail. Losing this persist at
        // failure only re-exposes the entry (at-least-once consumption).
        ctx.store_u64(self.layout.tail, tl + slot_bytes);
        ctx.persist_barrier();
        ctx.mem_barrier();
        self.consume_lock.release(ctx, node);
        Some(tl)
    }
}

/// Recovers a bounded queue: the window `[tail, head)` must decode to
/// valid entries; no safety margin is needed (see the module docs).
///
/// # Errors
///
/// Returns a description of the first inconsistency.
pub fn recover_bounded(
    image: &MemoryImage,
    layout: &BoundedLayout,
) -> Result<crate::recovery::RecoveredQueue, String> {
    let slot_bytes = QueueParams::SLOT_BYTES;
    let cap = layout.params.capacity_bytes();
    let head = image.read_u64(layout.head).map_err(|e| e.to_string())?;
    let tail = image.read_u64(layout.tail).map_err(|e| e.to_string())?;
    if head % slot_bytes != 0 || tail % slot_bytes != 0 {
        return Err(format!("misaligned pointers: head {head}, tail {tail}"));
    }
    if tail > head {
        return Err(format!("tail {tail} ahead of head {head}"));
    }
    if head - tail > cap {
        return Err(format!("window {} exceeds capacity {cap}", head - tail));
    }
    let mut entries = Vec::new();
    let mut p = tail;
    while p < head {
        let slot = p % cap;
        let lap = p / cap;
        let base = layout.data.add(slot);
        let len = image.read_u64(base).map_err(|e| e.to_string())?;
        if len != PAYLOAD_BYTES as u64 {
            return Err(format!("entry at slot {slot} (lap {lap}) has length {len}"));
        }
        let mut payload = vec![0u8; PAYLOAD_BYTES];
        image.read(base.add(8), &mut payload).map_err(|e| e.to_string())?;
        EntryCodec::validate(&payload, slot, lap)
            .map_err(|e| format!("entry at slot {slot} (lap {lap}): {e}"))?;
        entries.push(crate::recovery::RecoveredEntry { slot_offset: slot, lap });
        p += slot_bytes;
    }
    Ok(crate::recovery::RecoveredQueue { head_bytes: head, entries })
}

/// Crash-consistency invariant for [`persistency::crash::check`].
pub fn bounded_crash_invariant(
    layout: BoundedLayout,
) -> impl Fn(&MemoryImage) -> Result<(), String> {
    move |image| recover_bounded(image, &layout).map(|_| ())
}

/// Runs a producer/consumer workload: `producers` threads insert
/// `inserts_per_producer` entries each while one consumer thread pops
/// until it has drained them all. Returns the trace and layout.
pub fn run_bounded_workload<S: Scheduler>(
    mem: TracedMem<S>,
    params: QueueParams,
    producers: u32,
    inserts_per_producer: u64,
) -> (mem_trace::Trace, BoundedLayout) {
    let layout = BoundedLayout::allocate(&mem, params);
    let queue = BoundedQueue::new(layout);
    let total = producers as u64 * inserts_per_producer;
    let trace = mem.run(producers + 1, move |ctx| {
        let t = ctx.thread_id().as_u64();
        if t < producers as u64 {
            for i in 0..inserts_per_producer {
                let id = t * inserts_per_producer + i;
                ctx.work_begin(id);
                queue.insert(ctx);
                ctx.work_end(id);
            }
        } else {
            let mut drained = 0;
            while drained < total {
                if queue.pop(ctx).is_some() {
                    drained += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    });
    (trace, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{FreeRunScheduler, SeededScheduler};
    use persistency::crash::{check, Exploration};
    use persistency::dag::PersistDag;
    use persistency::{AnalysisConfig, Model};

    #[test]
    fn produce_consume_drains_everything() {
        let params = QueueParams::new(8);
        let (trace, layout) =
            run_bounded_workload(TracedMem::new(FreeRunScheduler), params, 2, 20);
        trace.validate_sc().unwrap();
        let image = trace.final_image();
        let q = recover_bounded(&image, &layout).unwrap();
        assert_eq!(q.head_bytes, 40 * QueueParams::SLOT_BYTES);
        assert!(q.entries.is_empty(), "consumer drained the queue");
    }

    #[test]
    fn wrap_with_consumer_is_crash_consistent_under_all_models() {
        // Capacity 4, 16 inserts: four laps of wrap-around. With the tail
        // flow control and the §5.3 read-barrier idiom, every model —
        // including strand, which breaks the consumer-less queue here —
        // recovers cleanly from every sampled cut.
        let params = QueueParams::new(4);
        let (trace, layout) =
            run_bounded_workload(TracedMem::new(SeededScheduler::new(7)), params, 1, 16);
        trace.validate_sc().unwrap();
        for model in Model::ALL {
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(model)).unwrap();
            let report = check(
                &dag,
                Exploration::Sampled { seed: 3, extensions: 200 },
                bounded_crash_invariant(layout),
            )
            .unwrap();
            assert!(report.is_consistent(), "{model}: {report}");
        }
    }

    #[test]
    fn missing_tail_read_barrier_corrupts_under_strand() {
        // Without the read-then-barrier idiom the producer's copy races
        // the tail persist it depends on: a cut can show the overwrite
        // inside the recovered window.
        let params = QueueParams::new(4);
        let mem = TracedMem::new(SeededScheduler::new(7));
        let layout = BoundedLayout::allocate(&mem, params);
        let queue = BoundedQueue::new(layout).without_tail_read_barrier();
        let trace = mem.run(2, move |ctx| {
            if ctx.thread_id().0 == 0 {
                for _ in 0..16 {
                    queue.insert(ctx);
                }
            } else {
                let mut drained = 0;
                while drained < 16 {
                    if queue.pop(ctx).is_some() {
                        drained += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        });
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Strand)).unwrap();
        let report = check(
            &dag,
            Exploration::Sampled { seed: 5, extensions: 400 },
            bounded_crash_invariant(layout),
        )
        .unwrap();
        assert!(
            !report.is_consistent(),
            "dropping the §5.3 idiom must reintroduce wrap corruption"
        );
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let params = QueueParams::new(4);
        let mem = TracedMem::new(FreeRunScheduler);
        let layout = BoundedLayout::allocate(&mem, params);
        let queue = BoundedQueue::new(layout);
        mem.run(1, move |ctx| {
            assert_eq!(queue.pop(ctx), None);
            queue.insert(ctx);
            assert!(queue.pop(ctx).is_some());
            assert_eq!(queue.pop(ctx), None);
        });
    }

    #[test]
    fn recovery_rejects_inverted_pointers() {
        let mem = TracedMem::new(FreeRunScheduler);
        let layout = BoundedLayout::allocate(&mem, QueueParams::new(4));
        let mut image = MemoryImage::new();
        image.write_u64(layout.tail, 5 * QueueParams::SLOT_BYTES).unwrap();
        image.write_u64(layout.head, QueueParams::SLOT_BYTES).unwrap();
        assert!(recover_bounded(&image, &layout).unwrap_err().contains("ahead"));
    }

    #[test]
    fn recovery_rejects_oversized_window() {
        let mem = TracedMem::new(FreeRunScheduler);
        let layout = BoundedLayout::allocate(&mem, QueueParams::new(4));
        let mut image = MemoryImage::new();
        image.write_u64(layout.head, 9 * QueueParams::SLOT_BYTES).unwrap();
        assert!(recover_bounded(&image, &layout).unwrap_err().contains("capacity"));
    }

    #[test]
    fn multi_producer_seeded_runs_drain() {
        let params = QueueParams::new(8);
        let (trace, layout) =
            run_bounded_workload(TracedMem::new(SeededScheduler::new(11)), params, 3, 5);
        trace.validate_sc().unwrap();
        let q = recover_bounded(&trace.final_image(), &layout).unwrap();
        assert_eq!(q.head_bytes, 15 * QueueParams::SLOT_BYTES);
        assert!(q.entries.is_empty());
    }
}
