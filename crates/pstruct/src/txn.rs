//! Word-granularity durable transactions via a persistent undo log.
//!
//! The Mnemosyne/NV-Heaps lineage the paper cites (§9) layers transactions
//! over persistent memory. This module implements the classic undo-log
//! protocol on the traced substrate:
//!
//! 1. **Log**: before mutating a word in place, append `(addr, old value)`
//!    to the persistent undo log and persist it *before* the mutation
//!    (persist barrier). The entry count is mirrored in the open
//!    [`Txn`]; the persistent count word is the authority at recovery.
//! 2. **Mutate** in place (flushed, not fenced: the mutations may persist
//!    concurrently with each other).
//! 3. **Commit**: persist barrier, then persist the commit mark.
//! 4. **Truncate**: persist barrier, then reset the log header for the
//!    next transaction.
//!
//! Recovery ([`UndoLog::recover_image`]) rolls an uncommitted transaction
//! back by applying the undo records newest-first, yielding atomicity:
//! after recovery, either none or all of a transaction's writes are
//! visible.
//!
//! The log header and entries are fixed-layout persistent structures, so
//! the recovery observer can check atomicity over every reachable failure
//! state.

use mem_trace::{Scheduler, TracedMem};
use persist_mem::{MemAddr, MemoryImage, PmemBackend, CACHE_LINE_BYTES};

/// Transaction states in the log header.
const IDLE: u64 = 0;
const ACTIVE: u64 = 1;
const COMMITTED: u64 = 2;

/// Header field offsets.
const STATUS: u64 = 0;
const COUNT: u64 = 8;

/// Entry field offsets (one cache line per entry).
const E_ADDR: u64 = 0;
const E_OLD: u64 = 8;

/// A single-transaction persistent undo log.
///
/// One transaction may be active at a time (the classic single-writer
/// redo/undo region; concurrent transactions would each own a log).
///
/// # Example
///
/// ```rust
/// use mem_trace::{TracedMem, FreeRunScheduler};
/// use pstruct::txn::UndoLog;
///
/// let mem = TracedMem::new(FreeRunScheduler);
/// let log = UndoLog::create(&mem, 16);
/// let acct_a = mem.setup_alloc(8, 8).unwrap();
/// let acct_b = mem.setup_alloc(8, 8).unwrap();
/// let trace = mem.run(1, |ctx| {
///     ctx.store_u64(acct_a, 100);
///     ctx.store_u64(acct_b, 0);
///     ctx.persist_barrier();
///     // Transfer 40 from A to B, atomically with respect to failure.
///     let mut txn = log.begin(ctx);
///     txn.write(ctx, acct_a, 60);
///     txn.write(ctx, acct_b, 40);
///     txn.commit(ctx);
/// });
/// let recovered = log.recover_image(trace.final_image()).unwrap();
/// assert_eq!(recovered.read_u64(acct_a).unwrap(), 60);
/// assert_eq!(recovered.read_u64(acct_b).unwrap(), 40);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct UndoLog {
    header: MemAddr,
    entries: MemAddr,
    capacity: u64,
}

/// An open transaction handle (consumed by [`Txn::commit`] or
/// [`Txn::abort`]).
#[derive(Debug)]
#[must_use = "an uncommitted transaction rolls back at recovery"]
pub struct Txn<'l> {
    log: &'l UndoLog,
    /// Volatile mirror of the entry count (the persistent word is the
    /// authority at recovery).
    count: u64,
}

impl UndoLog {
    /// Allocates a log with room for `capacity` undo entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or allocation fails.
    pub fn create<S: Scheduler>(mem: &TracedMem<S>, capacity: u64) -> Self {
        assert!(capacity > 0, "log needs at least one entry");
        let header = mem
            .setup_alloc(CACHE_LINE_BYTES, CACHE_LINE_BYTES)
            .expect("log header allocation");
        let entries = mem
            .setup_alloc(capacity * CACHE_LINE_BYTES, CACHE_LINE_BYTES)
            .expect("log entries allocation");
        UndoLog { header, entries, capacity }
    }

    /// Places a log at fixed persistent addresses (no traced allocator),
    /// for backends that have none (`DirectPmem`, the `pfi` shadow). The
    /// header occupies one cache line at `header`; entries occupy
    /// `capacity` lines at `entries`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, either address is not persistent or
    /// not line aligned, or the two regions overlap.
    pub fn from_raw(header: MemAddr, entries: MemAddr, capacity: u64) -> Self {
        assert!(capacity > 0, "log needs at least one entry");
        for a in [header, entries] {
            assert!(a.is_persistent(), "undo log lives in the persistent space");
            assert_eq!(a.offset() % CACHE_LINE_BYTES, 0, "log regions must be line aligned");
        }
        let (h, e) = (header.offset(), entries.offset());
        assert!(
            h + CACHE_LINE_BYTES <= e || e + capacity * CACHE_LINE_BYTES <= h,
            "log header and entries overlap"
        );
        UndoLog { header, entries, capacity }
    }

    fn entry(&self, i: u64) -> MemAddr {
        self.entries.add(i * CACHE_LINE_BYTES)
    }

    /// Opens a transaction. Like the kv operations it opens no strand:
    /// a caller running independent transactions calls `strand()` first
    /// (see [`crate::kv::PersistentKv::put`]).
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active (the log is single-owner).
    pub fn begin(&self, mut mem: impl PmemBackend) -> Txn<'_> {
        let status = mem.load_u64(self.header.add(STATUS));
        assert_eq!(status, IDLE, "undo log already owns an active transaction");
        mem.store_u64(self.header.add(COUNT), 0);
        mem.persist(self.header, 16); // empty log before the transaction activates
        mem.store_u64(self.header.add(STATUS), ACTIVE);
        mem.persist(self.header, 16);
        Txn { log: self, count: 0 }
    }

    /// Recovers a persistent image: rolls back an uncommitted transaction
    /// and resets the log. Consumes and returns the image.
    ///
    /// # Errors
    ///
    /// Returns a description if the log header is malformed (count out of
    /// range).
    pub fn recover_image(&self, mut image: MemoryImage) -> Result<MemoryImage, String> {
        for step in self.recovery_script(&image)? {
            if let RecoveryStep::Write { addr, value } = step {
                image.write_u64(addr, value).map_err(|e| e.to_string())?;
            }
        }
        Ok(image)
    }

    /// Computes the write/barrier sequence recovery would perform on
    /// `image`, without applying it.
    ///
    /// Applying every [`RecoveryStep::Write`] in order reproduces
    /// [`UndoLog::recover_image`]; the explicit [`RecoveryStep::Barrier`]
    /// between the rollback writes and the header reset is the persist
    /// ordering a *re-crash during recovery* relies on (the rollback must
    /// be durable before the status word leaves `ACTIVE`, or a second
    /// crash could drop the restored values while the log claims nothing
    /// is in flight). The `pfi` injector replays this script through its
    /// shadow backend to crash recovery itself.
    ///
    /// # Errors
    ///
    /// Returns a description if the log header is malformed (count out of
    /// range).
    pub fn recovery_script(&self, image: &MemoryImage) -> Result<Vec<RecoveryStep>, String> {
        let status = image.read_u64(self.header.add(STATUS)).map_err(|e| e.to_string())?;
        let count = image.read_u64(self.header.add(COUNT)).map_err(|e| e.to_string())?;
        if count > self.capacity {
            return Err(format!("undo log count {count} exceeds capacity {}", self.capacity));
        }
        let mut steps = Vec::new();
        if status == ACTIVE {
            // Roll back newest-first.
            for i in (0..count).rev() {
                let e = self.entry(i);
                let addr = image.read_u64(e.add(E_ADDR)).map_err(|er| er.to_string())?;
                let old = image.read_u64(e.add(E_OLD)).map_err(|er| er.to_string())?;
                steps.push(RecoveryStep::Write { addr: MemAddr::from_bits(addr), value: old });
            }
            steps.push(RecoveryStep::Barrier);
        }
        // COMMITTED or IDLE: in-place state is authoritative.
        steps.push(RecoveryStep::Write { addr: self.header.add(STATUS), value: IDLE });
        steps.push(RecoveryStep::Write { addr: self.header.add(COUNT), value: 0 });
        steps.push(RecoveryStep::Barrier);
        Ok(steps)
    }
}

/// One step of the undo-log recovery procedure, as produced by
/// [`UndoLog::recovery_script`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Store `value` at persistent `addr` (and flush its line).
    Write {
        /// Destination of the recovery store.
        addr: MemAddr,
        /// Value to restore.
        value: u64,
    },
    /// Persist barrier: preceding writes must be durable before any
    /// following write persists.
    Barrier,
}

impl Txn<'_> {
    /// Writes `value` to persistent `addr` under the transaction: the old
    /// value is logged and persisted before the in-place mutation. The
    /// mutation itself is flushed but not fenced — [`Txn::commit`] fences
    /// once for all of them.
    ///
    /// # Panics
    ///
    /// Panics if the log is full or `addr` is not persistent.
    pub fn write(&mut self, mut mem: impl PmemBackend, addr: MemAddr, value: u64) {
        assert!(addr.is_persistent(), "transactions cover the persistent space");
        let log = self.log;
        assert!(self.count < log.capacity, "undo log full");
        let old = mem.load_u64(addr);
        let e = log.entry(self.count);
        mem.store_u64(e.add(E_ADDR), addr.to_bits());
        mem.store_u64(e.add(E_OLD), old);
        mem.persist(e, 16); // entry payload before it is counted
        mem.store_u64(log.header.add(COUNT), self.count + 1);
        mem.persist(log.header, 16); // undo record durable before the mutation
        mem.store_u64(addr, value);
        mem.flush(addr, 8);
        self.count += 1;
    }

    /// Commits: all in-place writes persist before the commit mark, which
    /// persists before the log truncates.
    pub fn commit(self, mut mem: impl PmemBackend) {
        let log = self.log;
        mem.fence(); // mutations (flushed at write time) before the mark
        mem.store_u64(log.header.add(STATUS), COMMITTED);
        mem.persist(log.header, 16); // commit before truncation
        mem.store_u64(log.header.add(COUNT), 0);
        mem.persist(log.header, 16);
        mem.store_u64(log.header.add(STATUS), IDLE);
        mem.persist(log.header, 16);
    }

    /// Aborts: rolls the in-place state back from the log, newest entry
    /// first, then retires the log.
    pub fn abort(self, mut mem: impl PmemBackend) {
        let log = self.log;
        for i in (0..self.count).rev() {
            let e = log.entry(i);
            let addr = MemAddr::from_bits(mem.load_u64(e.add(E_ADDR)));
            let old = mem.load_u64(e.add(E_OLD));
            mem.store_u64(addr, old);
            mem.flush(addr, 8);
        }
        mem.fence(); // rollback writes before the log retires
        mem.store_u64(log.header.add(COUNT), 0);
        mem.persist(log.header, 16);
        mem.store_u64(log.header.add(STATUS), IDLE);
        mem.persist(log.header, 16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::FreeRunScheduler;
    use persistency::dag::PersistDag;
    use persistency::observer::RecoveryObserver;
    use persistency::{AnalysisConfig, Model};

    /// Sets up two "accounts" with 100/0 and runs `n` transfer
    /// transactions of 10 each; returns (trace, log, a, b).
    fn transfers(n: u64) -> (mem_trace::Trace, UndoLog, MemAddr, MemAddr) {
        let mem = TracedMem::new(FreeRunScheduler);
        let log = UndoLog::create(&mem, 8);
        let a = mem.setup_alloc(8, 8).unwrap();
        let b = mem.setup_alloc(8, 8).unwrap();
        let trace = mem.run(1, move |ctx| {
            ctx.store_u64(a, 100);
            ctx.store_u64(b, 0);
            ctx.persist_barrier();
            for _ in 0..n {
                let va = ctx.load_u64(a);
                let vb = ctx.load_u64(b);
                let mut txn = log.begin(ctx);
                txn.write(ctx, a, va - 10);
                txn.write(ctx, b, vb + 10);
                txn.commit(ctx);
            }
        });
        (trace, log, a, b)
    }

    #[test]
    fn committed_transfers_survive() {
        let (trace, log, a, b) = transfers(3);
        let img = log.recover_image(trace.final_image()).unwrap();
        assert_eq!(img.read_u64(a).unwrap(), 70);
        assert_eq!(img.read_u64(b).unwrap(), 30);
    }

    #[test]
    fn abort_rolls_back() {
        let mem = TracedMem::new(FreeRunScheduler);
        let log = UndoLog::create(&mem, 8);
        let a = mem.setup_alloc(8, 8).unwrap();
        let trace = mem.run(1, move |ctx| {
            ctx.store_u64(a, 5);
            ctx.persist_barrier();
            let mut txn = log.begin(ctx);
            txn.write(ctx, a, 99);
            assert_eq!(ctx.load_u64(a), 99);
            txn.abort(ctx);
            assert_eq!(ctx.load_u64(a), 5);
        });
        let img = log.recover_image(trace.final_image()).unwrap();
        assert_eq!(img.read_u64(a).unwrap(), 5);
    }

    #[test]
    fn every_failure_state_is_atomic_under_epoch() {
        let (trace, log, a, b) = transfers(2);
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let obs = RecoveryObserver::new(&dag);
        for cut in obs.sample_cuts(11, 300) {
            let img = obs.recover(&cut);
            let img = log.recover_image(img).expect("log decodes");
            let va = img.read_u64(a).unwrap();
            let vb = img.read_u64(b).unwrap();
            // Atomicity: the recovered state is a transaction boundary
            // (conservation) — never a half-applied transfer.
            assert_eq!(va + vb, if va == 0 && vb == 0 { 0 } else { 100 },
                "non-atomic state: a={va} b={vb}");
            assert!(va % 10 == 0 && vb % 10 == 0, "torn transfer: a={va} b={vb}");
        }
    }

    #[test]
    fn every_failure_state_is_atomic_under_strand_single_strand() {
        // Without NewStrand the whole run is one strand: barriers behave
        // like epoch's and the protocol stays atomic.
        let (trace, log, a, b) = transfers(2);
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Strand)).unwrap();
        let obs = RecoveryObserver::new(&dag);
        for cut in obs.sample_cuts(13, 300) {
            let img = obs.recover(&cut);
            let img = log.recover_image(img).expect("log decodes");
            let va = img.read_u64(a).unwrap();
            let vb = img.read_u64(b).unwrap();
            assert!(va + vb == 100 || (va == 0 && vb == 0));
        }
    }

    #[test]
    fn missing_undo_barrier_breaks_atomicity() {
        // Mutate in place *without* waiting for the undo record: a failure
        // can catch the mutation persisted but the log record lost —
        // rollback then cannot restore the old value.
        let mem = TracedMem::new(FreeRunScheduler);
        let log = UndoLog::create(&mem, 8);
        let a = mem.setup_alloc(8, 8).unwrap();
        let b = mem.setup_alloc(8, 8).unwrap();
        let trace = mem.run(1, move |ctx| {
            ctx.store_u64(a, 100);
            ctx.store_u64(b, 0);
            ctx.persist_barrier();
            // Hand-rolled buggy transaction.
            ctx.store_u64(log.header.add(COUNT), 0);
            ctx.persist_barrier();
            ctx.store_u64(log.header.add(STATUS), ACTIVE);
            ctx.persist_barrier();
            for (addr, val) in [(a, 90u64), (b, 10u64)] {
                let count = ctx.load_u64(log.header.add(COUNT));
                let old = ctx.load_u64(addr);
                let e = log.entry(count);
                ctx.store_u64(e.add(E_ADDR), addr.to_bits());
                ctx.store_u64(e.add(E_OLD), old);
                ctx.store_u64(log.header.add(COUNT), count + 1);
                // BUG: no barrier — mutation races the undo record.
                ctx.store_u64(addr, val);
            }
            ctx.persist_barrier();
            ctx.store_u64(log.header.add(STATUS), COMMITTED);
            ctx.persist_barrier();
            ctx.store_u64(log.header.add(COUNT), 0);
            ctx.persist_barrier();
            ctx.store_u64(log.header.add(STATUS), IDLE);
        });
        let dag = PersistDag::build(&trace, &AnalysisConfig::new(Model::Epoch)).unwrap();
        let obs = RecoveryObserver::new(&dag);
        let mut broken = false;
        for cut in obs.sample_cuts(17, 400) {
            let img = obs.recover(&cut);
            if let Ok(img) = log.recover_image(img) {
                let va = img.read_u64(a).unwrap();
                let vb = img.read_u64(b).unwrap();
                let pristine = va == 0 && vb == 0;
                if !pristine && va + vb != 100 {
                    broken = true;
                    break;
                }
            }
        }
        assert!(broken, "the missing undo barrier must be observable");
    }

    #[test]
    fn log_overflow_is_rejected() {
        let mem = TracedMem::new(FreeRunScheduler);
        let log = UndoLog::create(&mem, 1);
        let a = mem.setup_alloc(16, 8).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mem.run(1, move |ctx| {
                let mut txn = log.begin(ctx);
                txn.write(ctx, a, 1);
                txn.write(ctx, a.add(8), 2); // second write overflows
                txn.commit(ctx);
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn pmem_transactions_commit_and_roll_back() {
        use persist_mem::DirectPmem;
        let log = UndoLog::from_raw(MemAddr::persistent(0), MemAddr::persistent(64), 8);
        let a = MemAddr::persistent(1024);
        let b = MemAddr::persistent(1088);
        let mut mem = DirectPmem::new();
        mem.store_u64(a, 100);
        mem.store_u64(b, 0);
        mem.persist(a, 8);

        let mut txn = log.begin(&mut mem);
        txn.write(&mut mem, a, 60);
        txn.write(&mut mem, b, 40);
        txn.commit(&mut mem);
        let img = log.recover_image(mem.image().clone()).unwrap();
        assert_eq!(img.read_u64(a).unwrap(), 60);
        assert_eq!(img.read_u64(b).unwrap(), 40);

        // Uncommitted transaction: recovery rolls the writes back.
        let mut txn = log.begin(&mut mem);
        txn.write(&mut mem, a, 1);
        txn.write(&mut mem, b, 99);
        let _ = txn; // crash before commit
        let img = log.recover_image(mem.image().clone()).unwrap();
        assert_eq!(img.read_u64(a).unwrap(), 60);
        assert_eq!(img.read_u64(b).unwrap(), 40);
        assert_eq!(img.read_u64(MemAddr::persistent(0)).unwrap(), IDLE);
        assert_eq!(img.read_u64(MemAddr::persistent(8)).unwrap(), 0);
    }

    #[test]
    fn recovery_script_matches_recover_image() {
        use persist_mem::DirectPmem;
        let log = UndoLog::from_raw(MemAddr::persistent(0), MemAddr::persistent(64), 4);
        let a = MemAddr::persistent(2048);
        let mut mem = DirectPmem::new();
        mem.store_u64(a, 5);
        mem.persist(a, 8);
        let mut txn = log.begin(&mut mem);
        txn.write(&mut mem, a, 77);
        let _ = txn; // left ACTIVE

        let image = mem.image().clone();
        let script = log.recovery_script(&image).unwrap();
        // Rollback write, barrier, header reset, final barrier.
        assert!(script.contains(&RecoveryStep::Write { addr: a, value: 5 }));
        assert_eq!(script.iter().filter(|s| **s == RecoveryStep::Barrier).count(), 2);
        assert!(
            script.windows(2).any(|w| matches!(
                w,
                [RecoveryStep::Write { .. }, RecoveryStep::Barrier]
            )),
            "rollback writes must precede a barrier"
        );

        // Applying the script reproduces recover_image.
        let mut by_hand = image.clone();
        for step in &script {
            if let RecoveryStep::Write { addr, value } = step {
                by_hand.write_u64(*addr, *value).unwrap();
            }
        }
        assert_eq!(by_hand, log.recover_image(image).unwrap());
    }

    #[test]
    fn idle_recovery_script_has_no_rollback() {
        let log = UndoLog::from_raw(MemAddr::persistent(0), MemAddr::persistent(64), 4);
        let script = log.recovery_script(&MemoryImage::new()).unwrap();
        assert!(!script
            .iter()
            .any(|s| matches!(s, RecoveryStep::Write { addr, .. } if addr.offset() >= 64)));
    }

    #[test]
    fn corrupt_count_is_reported() {
        let mem = TracedMem::new(FreeRunScheduler);
        let log = UndoLog::create(&mem, 4);
        let mut img = MemoryImage::new();
        img.write_u64(log.header.add(STATUS), ACTIVE).unwrap();
        img.write_u64(log.header.add(COUNT), 99).unwrap();
        assert!(log.recover_image(img).unwrap_err().contains("capacity"));
    }
}
