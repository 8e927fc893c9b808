//! Model-aware crash injection over a [`Recording`].
//!
//! A recorded store is split into per-cache-line [`Fragment`]s. At a crash
//! point `p` (an index into the event log: events `0..p` executed), every
//! fragment is in one of three states:
//!
//! - **unwritten** — its store lies at or after `p`;
//! - **durable** — the model's durability rule was satisfied before `p`
//!   (see below); the fragment is guaranteed to survive;
//! - **pending** — written but not guaranteed; the crash may keep or drop
//!   it, subject to the model's ordering constraints.
//!
//! The log is one serial persist stream, so every rule here reads only
//! the model's three serial-stream predicates
//! ([`Model::persists_at_store`], [`Model::totally_ordered`],
//! [`Model::strand_scoped`]); no model is named. BPFS answers all three
//! like epoch: it differs from epoch only in cross-thread conflict
//! detection, which a one-thread stream never exercises.
//!
//! Durability rules: when persists happen at the store (strict,
//! strict-rmo) the ISA has no flush; the backend's fence is read as the
//! model's sync point, so a fragment is durable once any fence follows its
//! store. Otherwise a fragment is durable once a *flush* covering its line
//! (issued after the store) has been followed by a *fence*; under strand
//! scoping the fence must be on the flush's strand.
//!
//! Ordering: the pending fragments split into groups the model orders
//! independently, and within a group either as a chain or by epoch.
//!
//! - When persists happen at the store, each group is a chain in store
//!   order and the survivors are a prefix of it: one group if the model is
//!   totally ordered (strict), one per cache line otherwise (strict-rmo:
//!   same-thread order is enforced only across memory barriers, and
//!   strong persist atomicity keeps per-line order; lines are mutually
//!   unordered).
//! - Otherwise fences delimit epochs: persists of epoch `e` all happen
//!   before any persist of epoch `e' > e`. Survivors are epoch-downward
//!   closed: everything below a boundary epoch survives, an arbitrary
//!   subset of the boundary epoch survives, everything above is dropped.
//!   One group (epoch, bpfs), or one per strand under strand scoping
//!   (fragments on different strands are unordered; this leaves out the
//!   strong persist atomicity that orders a later strand's overwrite
//!   after what an earlier strand fenced before its own store there).
//!
//! Durability is closed downward at build time: a fragment is durable
//! once anything its group orders after it is durable (that later persist
//! could not have happened first), or once a later fragment of its line is
//! (a line writes back whole). So the durable fragments of a line are
//! always a prefix of its stores, which [`crate::replay::Replayer`] relies
//! on.
//!
//! With torn persists enabled, fragments at the drop boundary (the last
//! survivor of a chain; boundary-epoch members) may additionally persist
//! only a subset of their [`AtomicPersistSize`] units — the same
//! granularity knob the `nvram` wear model sweeps. Fragments *below* the
//! boundary cannot tear: the fence that ordered them ahead of surviving
//! persists guaranteed all their units.

use crate::shadow::{Recording, ShadowEvent};
use mem_trace::rng::SmallRng;
use persist_mem::{AtomicPersistSize, FxHashMap, MemAddr, MemoryImage, CACHE_LINE_BYTES};
use persistency::Model;

/// A store restricted to one cache line.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Index of the originating `Store` event.
    pub event: usize,
    /// Fragment start address.
    pub addr: MemAddr,
    /// Fragment bytes.
    pub data: Vec<u8>,
    /// Cache line (persistent offset / line size).
    pub line: u64,
    /// Global fence count at the store (epoch id).
    pub epoch: u32,
    /// Strand id at the store.
    pub strand: u32,
    /// First event index whose execution makes the fragment durable
    /// ([`NEVER`] if none), per model in [`Model::ALL`] order, closed
    /// downward (see the module docs).
    durable: [usize; Model::ALL.len()],
}

impl Fragment {
    /// The event index after which this fragment is guaranteed durable
    /// under `model`, if any.
    pub fn durable_at(&self, model: Model) -> Option<usize> {
        Some(self.durable[model_index(model)]).filter(|&d| d != NEVER)
    }

    /// Number of atomic-persist units the fragment spans.
    pub fn units(&self, unit: u64) -> u32 {
        self.data.len().div_ceil(unit as usize) as u32
    }
}

fn model_index(model: Model) -> usize {
    Model::ALL.iter().position(|&m| m == model).expect("every model is in Model::ALL")
}

/// The key of the groups `model` orders independently, or `None` if it
/// orders the whole stream as one group.
fn group_key(model: Model) -> Option<fn(&Fragment) -> u64> {
    if model.totally_ordered() {
        None
    } else if model.persists_at_store() {
        Some(|f| f.line)
    } else if model.strand_scoped() {
        Some(|f| u64::from(f.strand))
    } else {
        None
    }
}

/// The durability point of a fragment that never becomes durable.
const NEVER: usize = usize::MAX;

/// A surviving pending fragment, possibly torn to a subset of its units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Survivor {
    /// Index into [`FragmentSet::fragments`].
    pub frag: usize,
    /// Bit `i` set = unit `i` (fragment-relative) persisted.
    pub unit_mask: u64,
}

/// A concrete injected crash: how far execution got, and which pending
/// fragments the NVRAM kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCase {
    /// Events executed before the crash.
    pub point: usize,
    /// Kept pending fragments (everything durable survives implicitly;
    /// every pending fragment absent here is dropped).
    pub survivors: Vec<Survivor>,
}

/// The per-line fragments of a recording, with durability metadata.
#[derive(Debug, Clone)]
pub struct FragmentSet {
    frags: Vec<Fragment>,
    events_len: usize,
    unit: u64,
}

impl FragmentSet {
    /// Splits every store of `rec` into line fragments and computes the
    /// per-model durability points. `unit` is the atomic persist size for
    /// torn-write modeling.
    pub fn build(rec: &Recording, unit: AtomicPersistSize) -> Self {
        Self::from_events(&rec.events, unit)
    }

    /// [`FragmentSet::build`] over a bare event log — the base and final
    /// images play no part in fragment construction, so callers holding a
    /// live [`crate::shadow::ShadowPmem`] can build without finishing it
    /// into a [`Recording`].
    pub fn from_events(events: &[ShadowEvent], unit: AtomicPersistSize) -> Self {
        let line_sz = CACHE_LINE_BYTES;
        // Tag every event with (epoch, strand).
        let mut tags = Vec::with_capacity(events.len());
        let (mut epoch, mut strand) = (0u32, 0u32);
        for e in events {
            tags.push((epoch, strand));
            match e {
                ShadowEvent::Fence => epoch += 1,
                ShadowEvent::Strand => strand += 1,
                _ => {}
            }
        }

        let mut frags = Vec::new();
        for (idx, e) in events.iter().enumerate() {
            let ShadowEvent::Store { addr, data } = e else { continue };
            let (epoch, strand) = tags[idx];
            let mut off = 0usize;
            while off < data.len() {
                let a = addr.add(off as u64);
                let line = a.offset() / line_sz;
                let line_end = (line + 1) * line_sz;
                let take = ((line_end - a.offset()) as usize).min(data.len() - off);
                frags.push(Fragment {
                    event: idx,
                    addr: a,
                    data: data[off..off + take].to_vec(),
                    line,
                    epoch,
                    strand,
                    durable: [NEVER; Model::ALL.len()],
                });
                off += take;
            }
        }

        // Durability scans (event counts are small; clarity over big-O):
        // the first fence after the store, the first fence after a
        // covering flush, and the first such fence on the flush's strand,
        // each model taking its own rule's.
        for f in &mut frags {
            let (mut fence, mut flushed, mut on_strand) = (None, None, None);
            let mut covered: Option<u32> = None; // strand of the last covering flush
            for (i, e) in events.iter().enumerate().skip(f.event + 1) {
                match e {
                    ShadowEvent::Flush { addr, len } => {
                        let lo = addr.offset() / line_sz;
                        let hi = (addr.offset() + (*len).max(1) - 1) / line_sz;
                        if (lo..=hi).contains(&f.line) {
                            covered = Some(tags[i].1);
                        }
                    }
                    ShadowEvent::Fence => {
                        fence = fence.or(Some(i));
                        if let Some(fl_strand) = covered {
                            flushed = flushed.or(Some(i));
                            if tags[i].1 == fl_strand {
                                on_strand = on_strand.or(Some(i));
                            }
                        }
                    }
                    _ => {}
                }
                if fence.is_some() && flushed.is_some() && on_strand.is_some() {
                    break;
                }
            }
            for (m, &model) in Model::ALL.iter().enumerate() {
                let d = if model.persists_at_store() {
                    fence
                } else if model.strand_scoped() {
                    on_strand
                } else {
                    flushed
                };
                f.durable[m] = d.unwrap_or(NEVER);
            }
        }

        // The next fragment on each fragment's line. Without strands the
        // epoch order already closes each line (a later store on a line is
        // in the same or a later epoch, and a flush covering it covers the
        // earlier one too), so only a stream with strands needs the links.
        let mut next_on_line = vec![None; frags.len()];
        if strand > 0 {
            let mut last: FxHashMap<u64, usize> = FxHashMap::default();
            for (i, f) in frags.iter().enumerate().rev() {
                next_on_line[i] = last.insert(f.line, i);
            }
        }

        // Downward closure, per model. When persists happen at the store
        // the first fence after a store also follows every earlier store,
        // so durability is already closed. Otherwise one reverse pass
        // carries the earliest durability of the later epochs of the
        // fragment's group (a strand, or the whole stream: either way a
        // contiguous run of fragments) and of the next fragment on its
        // line, which already includes everything after it.
        let predicates = |m: Model| (m.persists_at_store(), m.totally_ordered(), m.strand_scoped());
        for (m, &model) in Model::ALL.iter().enumerate() {
            if model.persists_at_store() {
                continue;
            }
            // Models that answer the predicates alike share durability.
            let twin = Model::ALL[..m].iter().position(|&o| predicates(o) == predicates(model));
            if let Some(t) = twin {
                for f in &mut frags {
                    f.durable[m] = f.durable[t];
                }
                continue;
            }
            // The (group, epoch) run being walked, the earliest durability
            // within it, and the earliest among its group's later epochs.
            let group = group_key(model);
            let mut run: Option<(u64, u32)> = None;
            let (mut in_run, mut after) = (NEVER, NEVER);
            for i in (0..frags.len()).rev() {
                let f = &frags[i];
                let key = (group.map_or(0, |k| k(f)), f.epoch);
                if run != Some(key) {
                    // An earlier epoch of the same group is ordered before
                    // the run just left; a new group starts unordered.
                    let same_group = run.is_some_and(|(g, _)| g == key.0);
                    after = if same_group { in_run.min(after) } else { NEVER };
                    in_run = NEVER;
                    run = Some(key);
                }
                let next = next_on_line[i].map_or(NEVER, |j| frags[j].durable[m]);
                let d = f.durable[m].min(after).min(next);
                in_run = in_run.min(d);
                frags[i].durable[m] = d;
            }
        }

        FragmentSet { frags, events_len: events.len(), unit: unit.bytes() }
    }

    /// All fragments, in store (sequence) order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.frags
    }

    /// Number of events in the underlying recording (crash points range
    /// over `0..=events_len`).
    pub fn events_len(&self) -> usize {
        self.events_len
    }

    /// The atomic persist unit used for torn-write masks.
    pub fn unit(&self) -> u64 {
        self.unit
    }

    fn is_durable(&self, i: usize, model: Model, point: usize) -> bool {
        self.frags[i].durable_at(model).is_some_and(|e| e < point)
    }

    /// Indices of fragments pending (written, not durable) at `point`.
    pub fn pending(&self, model: Model, point: usize) -> Vec<usize> {
        let m = model_index(model);
        (0..self.frags.len())
            .filter(|&i| {
                let f = &self.frags[i];
                f.event < point && f.durable[m] >= point
            })
            .collect()
    }

    /// Splits `pending` into the groups `model` orders independently, in
    /// ascending key order, each in sequence order. A one-group model
    /// keeps its group even when empty (a chain draw then still consumes
    /// its one random number).
    fn groups(&self, model: Model, pending: Vec<usize>) -> Vec<Vec<usize>> {
        let Some(key) = group_key(model) else { return vec![pending] };
        let mut keys: Vec<u64> = pending.iter().map(|&i| key(&self.frags[i])).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|k| pending.iter().copied().filter(|&i| key(&self.frags[i]) == k).collect())
            .collect()
    }

    fn full_mask(&self, i: usize) -> u64 {
        let n = self.frags[i].units(self.unit);
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Keeps boundary fragment `i`, torn to a random unit subset one time
    /// in four when `torn` is set (a subset that comes out empty drops it).
    fn keep_boundary(&self, i: usize, rng: &mut SmallRng, torn: bool, out: &mut Vec<Survivor>) {
        let full = self.full_mask(i);
        let mask = if torn && rng.gen_below(4) == 0 { rng.next_u64() & full } else { full };
        if mask != 0 {
            out.push(Survivor { frag: i, unit_mask: mask });
        }
    }

    /// Samples a crash case at `point`: a legal survivor subset of the
    /// pending fragments under `model`, optionally with torn boundary
    /// fragments.
    pub fn draw(&self, model: Model, point: usize, rng: &mut SmallRng, torn: bool) -> CrashCase {
        let pending = self.pending(model, point);
        let mut survivors = Vec::new();
        for group in self.groups(model, pending) {
            if model.persists_at_store() {
                // A prefix of the chain; only its last member may tear.
                let k = rng.gen_below(group.len() as u64 + 1) as usize;
                for (n, &i) in group.iter().take(k).enumerate() {
                    if n + 1 == k {
                        self.keep_boundary(i, rng, torn, &mut survivors);
                    } else {
                        survivors.push(Survivor { frag: i, unit_mask: self.full_mask(i) });
                    }
                }
            } else {
                self.draw_epochwise(&group, rng, &mut survivors, torn);
            }
        }
        survivors.sort_unstable_by_key(|s| s.frag);
        CrashCase { point, survivors }
    }

    /// Epoch-downward-closed draw over one group: pick a boundary epoch,
    /// keep everything below it, flip a coin (and possibly tear) inside
    /// it, drop everything above.
    fn draw_epochwise(
        &self,
        group: &[usize],
        rng: &mut SmallRng,
        survivors: &mut Vec<Survivor>,
        torn: bool,
    ) {
        if group.is_empty() {
            return;
        }
        let mut epochs: Vec<u32> = group.iter().map(|&i| self.frags[i].epoch).collect();
        epochs.sort_unstable();
        epochs.dedup();
        // One past the last = everything pending survives intact.
        let c = rng.gen_index(epochs.len() + 1);
        let boundary = epochs.get(c).copied();
        for &i in group {
            let e = self.frags[i].epoch;
            match boundary {
                Some(b) if e == b => {
                    if rng.gen_below(2) == 0 {
                        self.keep_boundary(i, rng, torn, survivors);
                    }
                }
                Some(b) if e > b => {}
                _ => survivors.push(Survivor { frag: i, unit_mask: self.full_mask(i) }),
            }
        }
    }

    /// Whether `case` is a crash the model could actually produce.
    pub fn is_legal(&self, model: Model, case: &CrashCase) -> bool {
        if case.point > self.events_len {
            return false;
        }
        let pending = self.pending(model, case.point);
        let kept: std::collections::BTreeMap<usize, u64> =
            case.survivors.iter().map(|s| (s.frag, s.unit_mask)).collect();
        if kept.len() != case.survivors.len() {
            return false; // duplicate fragment
        }
        for s in &case.survivors {
            if !pending.contains(&s.frag) {
                return false;
            }
            if s.unit_mask == 0 || s.unit_mask & !self.full_mask(s.frag) != 0 {
                return false;
            }
        }

        let prefix_ok = |group: &[usize]| -> bool {
            // Survivors must be a prefix; only the last kept may be torn.
            let mut seen_gap = false;
            let mut last_kept: Option<usize> = None;
            for &i in group {
                match kept.get(&i) {
                    Some(_) if seen_gap => return false,
                    Some(_) => last_kept = Some(i),
                    None => seen_gap = true,
                }
            }
            for &i in group {
                if let Some(&mask) = kept.get(&i) {
                    if mask != self.full_mask(i) && Some(i) != last_kept {
                        return false;
                    }
                }
            }
            true
        };
        let epoch_ok = |group: &[usize]| -> bool {
            let epoch_of = |i: usize| self.frags[i].epoch;
            let Some(boundary) =
                group.iter().filter(|i| kept.contains_key(i)).map(|&i| epoch_of(i)).max()
            else {
                return true; // nothing kept: dropping everything is legal
            };
            group.iter().all(|&i| {
                let e = epoch_of(i);
                match kept.get(&i) {
                    Some(&mask) if e < boundary => mask == self.full_mask(i),
                    None if e < boundary => false,
                    _ => true, // boundary epoch: any subset / mask; above: dropped
                }
            })
        };
        self.groups(model, pending)
            .iter()
            .all(|g| if model.persists_at_store() { prefix_ok(g) } else { epoch_ok(g) })
    }

    /// Builds the post-crash image for `case`: the base image plus every
    /// durable fragment plus the surviving units, applied in store order.
    pub fn materialize(&self, base: &MemoryImage, model: Model, case: &CrashCase) -> MemoryImage {
        let mut img = MemoryImage::new();
        self.materialize_into(&mut img, base, model, case);
        img
    }

    /// [`FragmentSet::materialize`] into a caller-owned image, reusing its
    /// allocations (`img` is overwritten, not merged into).
    pub fn materialize_into(
        &self,
        img: &mut MemoryImage,
        base: &MemoryImage,
        model: Model,
        case: &CrashCase,
    ) {
        let kept: std::collections::BTreeMap<usize, u64> =
            case.survivors.iter().map(|s| (s.frag, s.unit_mask)).collect();
        img.clone_from(base);
        for (i, f) in self.frags.iter().enumerate() {
            if f.event >= case.point {
                continue;
            }
            let mask = if self.is_durable(i, model, case.point) {
                self.full_mask(i)
            } else {
                match kept.get(&i) {
                    Some(&m) => m,
                    None => continue,
                }
            };
            let unit = self.unit as usize;
            for u in 0..f.units(self.unit) {
                if mask & (1 << u) == 0 {
                    continue;
                }
                let lo = u as usize * unit;
                let hi = (lo + unit).min(f.data.len());
                img.write(f.addr.add(lo as u64), &f.data[lo..hi])
                    .expect("materialized fragment in range");
            }
        }
    }

    /// Cache lines of pending fragments that `case` drops or tears.
    pub fn dropped_lines(&self, model: Model, case: &CrashCase) -> Vec<u64> {
        let kept: std::collections::BTreeMap<usize, u64> =
            case.survivors.iter().map(|s| (s.frag, s.unit_mask)).collect();
        let mut lines: Vec<u64> = self
            .pending(model, case.point)
            .into_iter()
            .filter(|i| kept.get(i) != Some(&self.full_mask(*i)))
            .map(|i| self.frags[i].line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Shrinks a failing case: first to the earliest crash point that
    /// still fails, then to the fewest dropped fragments. `still_fails`
    /// is consulted only with cases that [`FragmentSet::is_legal`] admits.
    pub fn shrink(
        &self,
        model: Model,
        case: &CrashCase,
        mut still_fails: impl FnMut(&CrashCase) -> bool,
    ) -> CrashCase {
        let mut best = case.clone();
        // Phase 1: earliest failing crash point. Re-point the case by
        // keeping, of everything that materialized at the original point,
        // what is still pending at the earlier point.
        for p in 0..best.point {
            let survivors: Vec<Survivor> = self
                .pending(model, p)
                .into_iter()
                .filter_map(|i| {
                    if self.is_durable(i, model, best.point) {
                        return Some(Survivor { frag: i, unit_mask: self.full_mask(i) });
                    }
                    best.survivors.iter().find(|s| s.frag == i).copied()
                })
                .collect();
            let candidate = CrashCase { point: p, survivors };
            if self.is_legal(model, &candidate) && still_fails(&candidate) {
                best = candidate;
                break;
            }
        }
        // Phase 2: un-drop fragments whose loss the failure does not need.
        let pending = self.pending(model, best.point);
        for &i in &pending {
            let full = self.full_mask(i);
            if best.survivors.iter().any(|s| s.frag == i && s.unit_mask == full) {
                continue;
            }
            let mut candidate = best.clone();
            candidate.survivors.retain(|s| s.frag != i);
            candidate.survivors.push(Survivor { frag: i, unit_mask: full });
            candidate.survivors.sort_unstable_by_key(|s| s.frag);
            if self.is_legal(model, &candidate) && still_fails(&candidate) {
                best = candidate;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ShadowPmem;
    use persist_mem::PmemBackend;

    /// store A; flush A; fence; store B (pending at end).
    fn simple_recording() -> Recording {
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1);
        s.persist(MemAddr::persistent(0), 8);
        s.store_u64(MemAddr::persistent(64), 2);
        s.into_recording()
    }

    #[test]
    fn durability_rules() {
        let rec = simple_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        assert_eq!(fs.fragments().len(), 2);
        // After all 4 events: A durable under every model, B pending.
        for model in Model::ALL {
            assert_eq!(fs.pending(model, 4), vec![1], "{model}");
        }
        // Before the fence (point 2) nothing is durable.
        assert_eq!(fs.pending(Model::Epoch, 2), vec![0]);
        // Strict's fence-only rule also needs the fence executed.
        assert_eq!(fs.pending(Model::Strict, 2), vec![0]);
    }

    #[test]
    fn durability_closes_over_groups_and_lines() {
        // Strand 0 stores A; strand 1 stores B on A's line, fences, then
        // stores C elsewhere and persists it.
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1);
        s.strand();
        s.store_u64(MemAddr::persistent(8), 2);
        s.fence();
        s.store_u64(MemAddr::persistent(64), 3);
        s.persist(MemAddr::persistent(64), 8);
        let fs = FragmentSet::build(&s.into_recording(), AtomicPersistSize::default());
        assert_eq!(fs.pending(Model::Strand, 6), vec![0, 1, 2]);
        // C's fence makes C durable, B with it (its strand ordered B
        // first), and A with B (A's bytes are in B's line).
        assert_eq!(fs.pending(Model::Strand, 7), Vec::<usize>::new());
    }

    #[test]
    fn strict_draw_is_prefix() {
        let mut s = ShadowPmem::new();
        for i in 0..4u64 {
            s.store_u64(MemAddr::persistent(i * 64), i);
        }
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let case = fs.draw(Model::Strict, 4, &mut rng, false);
            assert!(fs.is_legal(Model::Strict, &case));
            // Prefix property: kept indices are contiguous from 0.
            let idx: Vec<usize> = case.survivors.iter().map(|s| s.frag).collect();
            assert_eq!(idx, (0..idx.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn epoch_draw_is_downward_closed() {
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1); // epoch 0
        s.fence();
        s.store_u64(MemAddr::persistent(64), 2); // epoch 1
        s.fence();
        s.store_u64(MemAddr::persistent(128), 3); // epoch 2
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let mut rng = SmallRng::seed_from_u64(2);
        // No flushes at all: everything stays pending under epoch rules.
        for _ in 0..200 {
            let case = fs.draw(Model::Epoch, 5, &mut rng, false);
            assert!(fs.is_legal(Model::Epoch, &case));
            let kept: Vec<usize> = case.survivors.iter().map(|s| s.frag).collect();
            if kept.contains(&2) {
                assert!(kept.contains(&1) && kept.contains(&0), "not closed: {kept:?}");
            }
            if kept.contains(&1) {
                assert!(kept.contains(&0), "not closed: {kept:?}");
            }
        }
    }

    #[test]
    fn materialize_applies_durable_and_survivors() {
        let rec = simple_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let a = MemAddr::persistent(0);
        let b = MemAddr::persistent(64);
        // Drop the pending store entirely.
        let img = fs.materialize(&rec.base, Model::Epoch, &CrashCase { point: 4, survivors: vec![] });
        assert_eq!(img.read_u64(a).unwrap(), 1);
        assert_eq!(img.read_u64(b).unwrap(), 0);
        // Keep it.
        let case = CrashCase { point: 4, survivors: vec![Survivor { frag: 1, unit_mask: 1 }] };
        let img = fs.materialize(&rec.base, Model::Epoch, &case);
        assert_eq!(img.read_u64(b).unwrap(), 2);
    }

    #[test]
    fn torn_masks_apply_partial_units() {
        let mut s = ShadowPmem::new();
        s.store(MemAddr::persistent(0), &[0xAA; 16]); // 2 units in one line
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let case = CrashCase { point: 1, survivors: vec![Survivor { frag: 0, unit_mask: 0b10 }] };
        assert!(fs.is_legal(Model::Strict, &case));
        let img = fs.materialize(&rec.base, Model::Strict, &case);
        assert_eq!(img.read_u64(MemAddr::persistent(0)).unwrap(), 0);
        assert_eq!(img.read_u64(MemAddr::persistent(8)).unwrap(), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(fs.dropped_lines(Model::Strict, &case), vec![0]);
    }

    #[test]
    fn illegal_cases_are_rejected() {
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1);
        s.store_u64(MemAddr::persistent(64), 2);
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        // Keeping the later store while dropping the earlier breaks
        // strict's prefix rule but is fine under strict-rmo (two lines).
        let case = CrashCase { point: 2, survivors: vec![Survivor { frag: 1, unit_mask: 1 }] };
        assert!(!fs.is_legal(Model::Strict, &case));
        assert!(fs.is_legal(Model::StrictRmo, &case));
    }

    #[test]
    fn shrink_finds_minimal_point_and_drops() {
        // Failure condition: B's line (line 1) dropped while C's (line 2)
        // survived — needs C kept and B dropped; A is irrelevant.
        let mut s = ShadowPmem::new();
        s.store_u64(MemAddr::persistent(0), 1); // A, line 0
        s.store_u64(MemAddr::persistent(64), 2); // B, line 1
        s.store_u64(MemAddr::persistent(128), 3); // C, line 2
        let rec = s.into_recording();
        let fs = FragmentSet::build(&rec, AtomicPersistSize::default());
        let base = rec.base.clone();
        let fails = |case: &CrashCase| {
            let img = fs.materialize(&base, Model::StrictRmo, case);
            img.read_u64(MemAddr::persistent(128)).unwrap() == 3
                && img.read_u64(MemAddr::persistent(64)).unwrap() == 0
        };
        let all_dropped_but_c = CrashCase {
            point: 3,
            survivors: vec![Survivor { frag: 2, unit_mask: 1 }],
        };
        assert!(fails(&all_dropped_but_c));
        let shrunk = fs.shrink(Model::StrictRmo, &all_dropped_but_c, fails);
        assert_eq!(shrunk.point, 3, "C's store must have executed");
        // A was un-dropped (irrelevant to the failure); B stays dropped.
        assert!(shrunk.survivors.iter().any(|s| s.frag == 0));
        assert!(!shrunk.survivors.iter().any(|s| s.frag == 1));
        assert_eq!(fs.dropped_lines(Model::StrictRmo, &shrunk), vec![1]);
    }
}
