//! Fuzz targets: the native persistence protocols under test.
//!
//! A target bundles a workload (run against the shadow backend with
//! [`ShadowPmem::op_begin`] / [`ShadowPmem::op_end`] brackets), the
//! structure's *real* recovery entry point, and a post-recovery invariant
//! plus linearizable-prefix durability check. The injector calls them in
//! that order on every materialized crash image.
//!
//! Recovery is expressed as a [`RecoveryStep`] script so the injector can
//! crash *recovery itself* (multi-crash): the queues and the KV table
//! recover read-only (empty script — validation only), the undo log
//! returns its rollback writes.
//!
//! The durability check is the paper's recovery criterion specialized per
//! structure: every operation whose `OpEnd` preceded the crash must be
//! visible after recovery, no operation that never began may be, and the
//! in-flight window in between may land either way (atomically, for the
//! transaction target).

use crate::shadow::ShadowPmem;
use persist_mem::{MemAddr, MemoryImage, PmemBackend, CACHE_LINE_BYTES};
use pqueue::pmem::{PmemCwlQueue, PmemTwoLockQueue};
use pqueue::recovery;
use pqueue::traced::{BarrierMode, QueueLayout, QueueParams};
use pstruct::kv::PersistentKv;
use pstruct::txn::{RecoveryStep, UndoLog};

/// A crash-fuzzable persistent structure.
///
/// Targets are stateless between calls (`Send + Sync`), so one boxed
/// target can serve injection shards running on several worker threads.
pub trait FuzzTarget: Send + Sync {
    /// Short name used in reports (`cwl`, `2lc`, `kv`, …).
    fn name(&self) -> &'static str;

    /// Runs `ops` logical operations against `mem`, bracketing each with
    /// `op_begin` / `op_end`.
    fn run(&self, mem: &mut ShadowPmem, ops: u64);

    /// The structure's real recovery on a post-crash image, expressed as
    /// the persistent writes it performs (empty for read-only recovery).
    ///
    /// # Errors
    ///
    /// An `Err` means recovery itself rejected the image — for the stock
    /// protocols that is a crash-consistency failure.
    fn recovery_script(&self, image: &MemoryImage) -> Result<Vec<RecoveryStep>, String>;

    /// Checks invariants and operation durability on the *recovered*
    /// image: `completed` operations finished before the crash (all must
    /// be visible), `begun` operations had started (`begun - completed`
    /// are in flight and may land either way).
    ///
    /// # Errors
    ///
    /// An `Err` describes the violated invariant.
    fn check(&self, image: &MemoryImage, completed: u64, begun: u64) -> Result<(), String>;
}

/// Standard layout for the queue targets: head pointer in the first cache
/// line, data segment right after.
fn queue_layout(capacity: u64, margin: u64) -> QueueLayout {
    QueueLayout {
        head: MemAddr::persistent(0),
        data: MemAddr::persistent(CACHE_LINE_BYTES),
        params: QueueParams::new(capacity).with_recovery_margin(margin),
    }
}

/// Shared queue durability check: the persisted head must cover every
/// completed insert and claim nothing that never began. Structural
/// validation of the entries the head covers is recovery's job
/// ([`recovery::recover_head`] in `recovery_script`), which the injector
/// always runs first on the same image — the check reads the head alone.
fn check_queue_head(
    image: &MemoryImage,
    layout: &QueueLayout,
    completed: u64,
    begun: u64,
) -> Result<(), String> {
    let head_bytes = image.read_u64(layout.head).map_err(|e| e.to_string())?;
    let slot = QueueParams::SLOT_BYTES;
    if head_bytes < completed * slot {
        return Err(format!(
            "durability: {completed} inserts completed but head {head_bytes} covers only {}",
            head_bytes / slot
        ));
    }
    if head_bytes > begun * slot {
        return Err(format!(
            "phantom inserts: head {head_bytes} covers {} entries but only {begun} ever began",
            head_bytes / slot
        ));
    }
    Ok(())
}

/// Copy While Locked (Algorithm 1), with selectable barrier placement —
/// [`BarrierMode::Elided`] is the known-buggy specimen.
pub struct CwlTarget {
    layout: QueueLayout,
    mode: BarrierMode,
}

impl CwlTarget {
    /// The stock protocol.
    pub fn new() -> Self {
        CwlTarget { layout: queue_layout(8, 1), mode: BarrierMode::Full }
    }

    /// The barrier-elided variant the injector must catch.
    pub fn elided() -> Self {
        CwlTarget { layout: queue_layout(8, 1), mode: BarrierMode::Elided }
    }
}

impl Default for CwlTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for CwlTarget {
    fn name(&self) -> &'static str {
        match self.mode {
            BarrierMode::Full => "cwl",
            BarrierMode::Racing => "cwl-racing",
            BarrierMode::Elided => "cwl-elided",
        }
    }

    fn run(&self, mem: &mut ShadowPmem, ops: u64) {
        let mut q = PmemCwlQueue::new(self.layout, self.mode);
        for j in 0..ops {
            mem.op_begin(j);
            q.insert(&mut *mem);
            mem.op_end(j);
        }
    }

    fn recovery_script(&self, image: &MemoryImage) -> Result<Vec<RecoveryStep>, String> {
        recovery::recover_head(image, &self.layout).map(|_| Vec::new())
    }

    fn check(&self, image: &MemoryImage, completed: u64, begun: u64) -> Result<(), String> {
        check_queue_head(image, &self.layout, completed, begun)
    }
}

/// Two-Lock Concurrent: reservations in groups of three, completed out of
/// order (second, third, first), so the persisted head always advances
/// over a contiguous completed prefix with up to three inserts in flight.
pub struct TwoLockTarget {
    layout: QueueLayout,
}

impl TwoLockTarget {
    /// The stock protocol. Margin 3: after a wrap, all three in-flight
    /// completions may be mid-overwrite of the oldest window slots.
    pub fn new() -> Self {
        TwoLockTarget { layout: queue_layout(8, 3) }
    }
}

impl Default for TwoLockTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for TwoLockTarget {
    fn name(&self) -> &'static str {
        "2lc"
    }

    fn run(&self, mem: &mut ShadowPmem, ops: u64) {
        let mut q = PmemTwoLockQueue::new(self.layout);
        let slot = QueueParams::SLOT_BYTES;
        let mut ended = 0u64;
        let mut next = 0u64;
        while next < ops {
            let group = (ops - next).min(3);
            let starts: Vec<u64> = (next..next + group)
                .map(|id| {
                    mem.op_begin(id);
                    q.reserve()
                })
                .collect();
            // Complete out of reservation order; an op ends once the
            // persisted head covers its slot.
            let order: &[usize] = if group == 3 { &[1, 2, 0] } else { &[0, 1][..group as usize] };
            for &i in order {
                let head = q.complete(&mut *mem, starts[i]);
                while (ended + 1) * slot <= head {
                    mem.op_end(ended);
                    ended += 1;
                }
            }
            next += group;
        }
    }

    fn recovery_script(&self, image: &MemoryImage) -> Result<Vec<RecoveryStep>, String> {
        recovery::recover_head(image, &self.layout).map(|_| Vec::new())
    }

    fn check(&self, image: &MemoryImage, completed: u64, begun: u64) -> Result<(), String> {
        check_queue_head(image, &self.layout, completed, begun)
    }
}

/// The persistent KV table under a fixed put/remove script over eight
/// keys, checked against a logical replay of the completed prefix.
pub struct KvTarget {
    kv: PersistentKv,
}

impl KvTarget {
    /// A 32-bucket table at the start of the persistent space.
    pub fn new() -> Self {
        KvTarget { kv: PersistentKv::from_raw(MemAddr::persistent(0), 32) }
    }

    /// The scripted operation `j`: `Some(value)` = put, `None` = remove.
    fn op(j: u64) -> (u64, Option<u64>) {
        let key = 1 + j % 8;
        if j % 4 == 3 {
            (key, None)
        } else {
            (key, Some(1000 + j))
        }
    }

    /// The map a crash-free prefix of `n` operations leaves behind,
    /// indexed by key (keys are 1..=8; slot 0 is unused). A fixed array
    /// instead of a map: `check` runs once per injection, and the fuzz
    /// loop injects hundreds of thousands of crashes per second.
    fn expected_after(n: u64) -> [Option<u64>; 9] {
        let mut m = [None; 9];
        for j in 0..n {
            let (k, v) = Self::op(j);
            m[k as usize] = v;
        }
        m
    }
}

impl Default for KvTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for KvTarget {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn run(&self, mem: &mut ShadowPmem, ops: u64) {
        for j in 0..ops {
            mem.op_begin(j);
            mem.strand(); // each operation is its own strand
            match Self::op(j) {
                (k, Some(v)) => {
                    self.kv.put(&mut *mem, k, v);
                }
                (k, None) => {
                    self.kv.remove(&mut *mem, k);
                }
            }
            mem.op_end(j);
        }
    }

    fn recovery_script(&self, image: &MemoryImage) -> Result<Vec<RecoveryStep>, String> {
        self.kv.recover_each(image, |_, _| {}).map(|()| Vec::new())
    }

    fn check(&self, image: &MemoryImage, completed: u64, begun: u64) -> Result<(), String> {
        let mut recovered = [None; 9];
        let mut bad: Option<String> = None;
        self.kv.recover_each(image, |k, v| {
            if bad.is_some() {
                return;
            }
            match recovered.get_mut(k as usize) {
                Some(slot @ None) => *slot = Some(v),
                Some(Some(_)) => bad = Some(format!("key {k} recovered from two buckets")),
                None => bad = Some(format!("recovered key {k} was never written")),
            }
        })?;
        if let Some(msg) = bad {
            return Err(msg);
        }
        let expected = Self::expected_after(completed);
        // The in-flight operation's key may be before, after, or mid-update
        // (absent); every other key must match the completed prefix.
        let in_flight = (begun > completed).then(|| Self::op(completed).0);
        let after = Self::expected_after(completed + 1);
        for key in 1..=8usize {
            let got = recovered[key];
            let want = expected[key];
            if Some(key as u64) == in_flight {
                let ok = got == want || got == after[key] || got.is_none();
                if !ok {
                    return Err(format!(
                        "in-flight key {key}: recovered {got:?}, expected {want:?} or {:?} or absent",
                        after[key]
                    ));
                }
            } else if got != want {
                return Err(format!(
                    "key {key}: recovered {got:?} but the completed prefix of {completed} ops gives {want:?}"
                ));
            }
        }
        Ok(())
    }
}

/// The undo log running alternating transfers between two accounts; the
/// atomicity invariant is the classic `a + b` conservation. Recovery
/// *writes* (rollback), so this is the multi-crash target.
pub struct TxnTarget {
    log: UndoLog,
    a: MemAddr,
    b: MemAddr,
}

impl TxnTarget {
    /// Log header at 0, entries at 64 (capacity 8), accounts at 4096/4160.
    pub fn new() -> Self {
        TxnTarget {
            log: UndoLog::from_raw(MemAddr::persistent(0), MemAddr::persistent(64), 8),
            a: MemAddr::persistent(4096),
            b: MemAddr::persistent(4160),
        }
    }

    /// Account state after `transfers` completed transfers.
    fn expected(transfers: u64) -> (u64, u64) {
        if transfers % 2 == 1 {
            (90, 10)
        } else {
            (100, 0)
        }
    }
}

impl Default for TxnTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for TxnTarget {
    fn name(&self) -> &'static str {
        "txn"
    }

    fn run(&self, mem: &mut ShadowPmem, ops: u64) {
        // Op 0 initializes the accounts; ops 1.. are alternating transfers.
        mem.op_begin(0);
        mem.strand();
        mem.store_u64(self.a, 100);
        mem.flush(self.a, 8);
        mem.store_u64(self.b, 0);
        mem.flush(self.b, 8);
        mem.fence();
        mem.op_end(0);
        for j in 1..ops {
            mem.op_begin(j);
            mem.strand(); // each transaction is its own strand
            let mut txn = self.log.begin(&mut *mem);
            let (av, bv) = (mem.load_u64(self.a), mem.load_u64(self.b));
            if j % 2 == 1 {
                txn.write(&mut *mem, self.a, av - 10);
                txn.write(&mut *mem, self.b, bv + 10);
            } else {
                txn.write(&mut *mem, self.a, av + 10);
                txn.write(&mut *mem, self.b, bv - 10);
            }
            txn.commit(&mut *mem);
            mem.op_end(j);
        }
    }

    fn recovery_script(&self, image: &MemoryImage) -> Result<Vec<RecoveryStep>, String> {
        self.log.recovery_script(image)
    }

    fn check(&self, image: &MemoryImage, completed: u64, begun: u64) -> Result<(), String> {
        let status = image.read_u64(MemAddr::persistent(0)).map_err(|e| e.to_string())?;
        let count = image.read_u64(MemAddr::persistent(8)).map_err(|e| e.to_string())?;
        if status != 0 || count != 0 {
            return Err(format!(
                "log not reset after recovery: status {status}, count {count}"
            ));
        }
        let av = image.read_u64(self.a).map_err(|e| e.to_string())?;
        let bv = image.read_u64(self.b).map_err(|e| e.to_string())?;
        if completed == 0 {
            // Initialization may be in flight: b untouched, a either side.
            if !(av == 0 || av == 100) || bv != 0 {
                return Err(format!("mid-init accounts ({av}, {bv})"));
            }
            return Ok(());
        }
        if av + bv != 100 {
            return Err(format!("atomicity: a + b = {av} + {bv} != 100"));
        }
        // `completed` ops = init + (completed - 1) transfers.
        let settled = Self::expected(completed - 1);
        let in_flight = Self::expected(completed);
        let ok = (av, bv) == settled || (begun > completed && (av, bv) == in_flight);
        if !ok {
            return Err(format!(
                "accounts ({av}, {bv}) match neither {settled:?} (completed) nor {in_flight:?} (in-flight)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persist_mem::DirectPmem;

    /// Runs a target crash-free through the shadow, recovers the final
    /// image, and checks with everything completed.
    fn crash_free(target: &dyn FuzzTarget, ops: u64) {
        let mut mem = ShadowPmem::new();
        target.run(&mut mem, ops);
        let rec = mem.into_recording();
        let (completed, begun) = rec.ops_at(rec.events.len());
        assert_eq!(completed, ops);
        assert_eq!(begun, ops);
        let script = target.recovery_script(&rec.final_image).expect("clean recovery");
        let mut img = rec.final_image.clone();
        for step in script {
            if let RecoveryStep::Write { addr, value } = step {
                img.write_u64(addr, value).unwrap();
            }
        }
        target.check(&img, completed, begun).expect("crash-free state checks");
    }

    #[test]
    fn all_targets_pass_crash_free() {
        let targets: Vec<Box<dyn FuzzTarget>> = vec![
            Box::new(CwlTarget::new()),
            Box::new(CwlTarget::elided()),
            Box::new(TwoLockTarget::new()),
            Box::new(KvTarget::new()),
            Box::new(TxnTarget::new()),
        ];
        for t in &targets {
            crash_free(t.as_ref(), 17);
        }
    }

    #[test]
    fn queue_check_rejects_lost_completed_insert() {
        let t = CwlTarget::new();
        let mut mem = ShadowPmem::new();
        t.run(&mut mem, 4);
        let rec = mem.into_recording();
        // Claim 4 completed but hand over an image whose head covers 4 —
        // fine; then claim 5 completed — durability violation.
        t.check(&rec.final_image, 4, 4).unwrap();
        assert!(t.check(&rec.final_image, 5, 5).unwrap_err().contains("durability"));
    }

    #[test]
    fn kv_check_tracks_logical_replay() {
        let t = KvTarget::new();
        let mut mem = ShadowPmem::new();
        t.run(&mut mem, 12);
        let rec = mem.into_recording();
        t.check(&rec.final_image, 12, 12).unwrap();
        // Claiming fewer completed ops than actually ran must fail: op 11
        // (remove of key 4) would then wrongly be visible.
        assert!(t.check(&rec.final_image, 10, 10).is_err());
    }

    #[test]
    fn txn_check_enforces_conservation() {
        let t = TxnTarget::new();
        let mut direct = DirectPmem::new();
        direct.store_u64(t.a, 95);
        direct.store_u64(t.b, 0);
        let err = t.check(direct.image(), 3, 3).unwrap_err();
        assert!(err.contains("atomicity"), "{err}");
    }
}
