//! One shard: a native persistent structure, its memory image, and its
//! device timing mirror.
//!
//! Shards are independent recovery units: each owns a private persistent
//! address space (a [`DirectPmem`] image starting at offset zero), a
//! private [`ShardDevice`] bank array, and one single-writer structure
//! instance — the serve-side analog of per-shard logs in a production
//! store. Requests route to shards by key hash ([`crate::gen::shard_of`]).

use crate::device::{DevicePmem, ShardDevice};
use crate::gen::{Op, OpKind};
use nvram::DeviceConfig;
use persist_mem::{DirectPmem, MemAddr, PmemBackend, CACHE_LINE_BYTES};
use persistency::Model;
use pqueue::pmem::PmemCwlQueue;
use pqueue::traced::{BarrierMode, QueueLayout, QueueParams};
use pstruct::kv::PersistentKv;
use pstruct::txn::UndoLog;

/// Which native persistent structure the shards run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// [`PersistentKv`]: puts run the valid-flag publish protocol, gets
    /// probe the table.
    Kv,
    /// [`PmemCwlQueue`]: puts append (Algorithm 1), gets read the head.
    Queue,
    /// [`UndoLog`] transactions: puts transfer between two account words,
    /// gets read one.
    Txn,
}

impl StoreKind {
    /// Short name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Kv => "kv",
            StoreKind::Queue => "queue",
            StoreKind::Txn => "txn",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "kv" => Some(StoreKind::Kv),
            "queue" => Some(StoreKind::Queue),
            "txn" => Some(StoreKind::Txn),
            _ => None,
        }
    }
}

/// Number of account words a txn shard transfers between.
const TXN_ACCOUNTS: u64 = 1024;
/// Persistent offset of the txn account array (clear of the undo log).
const TXN_ACCOUNT_BASE: u64 = 64 * 1024;

enum Store {
    Kv(PersistentKv),
    Queue(PmemCwlQueue),
    Txn(UndoLog),
}

/// One shard's full state.
pub struct Shard {
    mem: DirectPmem,
    /// Device timing mirror (public so the harness can drive op windows).
    pub dev: ShardDevice,
    store: Store,
    /// Puts executed.
    pub puts: u64,
    /// Gets executed.
    pub gets: u64,
    /// Gets that found a value (kv only; queue/txn gets always "hit").
    pub hits: u64,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("puts", &self.puts)
            .field("gets", &self.gets)
            .field("hits", &self.hits)
            .finish_non_exhaustive()
    }
}

impl Shard {
    /// Builds an empty shard. `expected_keys` (for kv) and `expected_puts`
    /// (for queue) size the structures with 2x headroom so the fixed-
    /// capacity protocols never fill mid-run.
    pub fn new(
        kind: StoreKind,
        model: Model,
        device: DeviceConfig,
        expected_keys: u64,
        expected_puts: u64,
    ) -> Self {
        let store = match kind {
            StoreKind::Kv => {
                let buckets = (expected_keys * 2).max(1024).next_power_of_two();
                Store::Kv(PersistentKv::from_raw(MemAddr::persistent(0), buckets))
            }
            StoreKind::Queue => {
                let entries = (expected_puts * 2).max(64).next_power_of_two();
                let layout = QueueLayout {
                    head: MemAddr::persistent(0),
                    data: MemAddr::persistent(CACHE_LINE_BYTES),
                    params: QueueParams::new(entries),
                };
                Store::Queue(PmemCwlQueue::new(layout, BarrierMode::Full))
            }
            StoreKind::Txn => Store::Txn(UndoLog::from_raw(
                MemAddr::persistent(0),
                MemAddr::persistent(CACHE_LINE_BYTES),
                8,
            )),
        };
        Shard {
            mem: DirectPmem::new(),
            dev: ShardDevice::new(device, model),
            store,
            puts: 0,
            gets: 0,
            hits: 0,
        }
    }

    /// Executes one request against the structure, mirroring every persist
    /// into the device model. The caller brackets this with
    /// [`ShardDevice::begin_op`] / [`ShardDevice::end_op`].
    pub fn execute(&mut self, op: &Op) {
        let mut b = DevicePmem { mem: &mut self.mem, dev: &mut self.dev };
        match (&mut self.store, op.kind) {
            (Store::Kv(kv), OpKind::Put) => {
                b.strand(); // each request is its own strand
                kv.put(&mut b, op.key, op.seq);
                self.puts += 1;
            }
            (Store::Kv(kv), OpKind::Get) => {
                if kv.get(&mut b, op.key).is_some() {
                    self.hits += 1;
                }
                self.gets += 1;
            }
            (Store::Queue(q), OpKind::Put) => {
                q.insert(&mut b);
                self.puts += 1;
            }
            (Store::Queue(q), OpKind::Get) => {
                // Service-side peek: read the durable head word.
                let _ = b.load_u64(q.layout().head);
                self.hits += 1;
                self.gets += 1;
            }
            (Store::Txn(log), OpKind::Put) => {
                // Transfer between the two accounts the key hashes to:
                // classic undo-logged two-word atomic update. The offset is
                // never zero, so the two accounts are always distinct.
                let from_idx = op.key % TXN_ACCOUNTS;
                let to_idx =
                    (from_idx + 1 + (op.key / TXN_ACCOUNTS) % (TXN_ACCOUNTS - 1)) % TXN_ACCOUNTS;
                let from = TXN_ACCOUNT_BASE + 8 * from_idx;
                let to = TXN_ACCOUNT_BASE + 8 * to_idx;
                let (from, to) = (MemAddr::persistent(from), MemAddr::persistent(to));
                let vf = b.load_u64(from);
                let vt = b.load_u64(to);
                b.strand(); // each transaction is its own strand
                let mut txn = log.begin(&mut b);
                txn.write(&mut b, from, vf.wrapping_add(1));
                txn.write(&mut b, to, vt.wrapping_add(1));
                txn.commit(&mut b);
                self.puts += 1;
            }
            (Store::Txn(_), OpKind::Get) => {
                let a = MemAddr::persistent(TXN_ACCOUNT_BASE + 8 * (op.key % TXN_ACCOUNTS));
                let _ = b.load_u64(a);
                self.hits += 1;
                self.gets += 1;
            }
        }
    }

    /// Post-run structure validation: recovery must succeed on the final
    /// image and agree with the volatile op counts. This is the per-shard
    /// recovery-unit check — a shard whose protocol bookkeeping drifted
    /// from its image fails here.
    pub fn validate(&self) -> Result<(), String> {
        match &self.store {
            Store::Kv(kv) => {
                let entries = kv.recover(self.mem.image())?;
                if self.puts > 0 && entries.is_empty() {
                    return Err("kv recovery lost every inserted key".into());
                }
                Ok(())
            }
            Store::Queue(q) => {
                let head = self
                    .mem
                    .image()
                    .read_u64(q.layout().head)
                    .map_err(|e| e.to_string())?;
                if head != q.head_bytes() {
                    return Err(format!(
                        "queue head drifted: persisted {head}, volatile {}",
                        q.head_bytes()
                    ));
                }
                if q.head_bytes() <= q.layout().params.capacity_bytes() {
                    let rec = pqueue::recovery::recover(self.mem.image(), q.layout())?;
                    if rec.entries.len() as u64 != self.puts {
                        return Err(format!(
                            "queue recovered {} entries for {} inserts",
                            rec.entries.len(),
                            self.puts
                        ));
                    }
                }
                Ok(())
            }
            Store::Txn(log) => {
                // All transactions committed: recovery must be a no-op and
                // the account total must equal two increments per transfer.
                let image = log.recover_image(self.mem.image().clone())?;
                let mut total = 0u64;
                for i in 0..TXN_ACCOUNTS {
                    total = total.wrapping_add(
                        image
                            .read_u64(MemAddr::persistent(TXN_ACCOUNT_BASE + 8 * i))
                            .map_err(|e| e.to_string())?,
                    );
                }
                if total != 2 * self.puts {
                    return Err(format!(
                        "txn accounts total {total}, expected {}",
                        2 * self.puts
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Op, OpKind};

    fn run_ops(kind: StoreKind, model: Model, n: u64) -> Shard {
        let mut s = Shard::new(kind, model, DeviceConfig::new(4, 500.0), n, n);
        for i in 0..n {
            let kind = if i % 3 == 0 { OpKind::Get } else { OpKind::Put };
            let op = Op { seq: i, at_ns: i * 1000, key: 1 + i % 17, kind };
            s.dev.begin_op(op.at_ns as f64);
            s.execute(&op);
            let _ = s.dev.end_op(op.at_ns as f64 + 250.0);
        }
        s
    }

    #[test]
    fn every_kind_executes_and_validates() {
        for kind in [StoreKind::Kv, StoreKind::Queue, StoreKind::Txn] {
            for model in Model::ALL {
                let s = run_ops(kind, model, 60);
                assert_eq!(s.puts + s.gets, 60, "{kind:?}/{model}");
                s.validate().unwrap_or_else(|e| panic!("{kind:?}/{model}: {e}"));
                assert!(s.dev.stats().device_writes > 0, "{kind:?}/{model} persisted nothing");
            }
        }
    }

    #[test]
    fn kv_gets_hit_after_puts() {
        let s = run_ops(StoreKind::Kv, Model::Epoch, 120);
        assert!(s.hits > 0, "repeated keys must produce hits");
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in [StoreKind::Kv, StoreKind::Queue, StoreKind::Txn] {
            assert_eq!(StoreKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(StoreKind::from_name("nope"), None);
    }
}
