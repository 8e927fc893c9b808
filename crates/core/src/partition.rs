//! Chunked-parallel analysis over segment-indexed traces.
//!
//! Billion-event captures make the `psim analyze` pipeline — one streaming
//! profile pass plus one engine pass per persistency model — decode the
//! same bytes N+1 times on one core. This module splits the work across a
//! worker pool while keeping every result **bit-identical to the
//! sequential engines for any worker count**:
//!
//! - **Decode-parallel feed** ([`with_source`], [`analyze_full`]): the
//!   trace's segment index (see `docs/mptrace2.md`) lets independent
//!   decoders start mid-file; workers claim chunks in order but decode
//!   them *out of order* into a bounded pool of recycled event slabs,
//!   and each consumer walks the reassembled in-order stream — the
//!   *exact* sequential event sequence — so the engines themselves need
//!   no change and no stitching argument. A slow chunk never stalls the
//!   workers behind it: back-pressure comes only from the slab pool.
//! - **Model-parallel analysis** ([`analyze_full`]): the per-model engine
//!   passes are independent given the same stream; each model consumes the
//!   shared decoded chunks block-at-a-time on its own thread. Chunks are
//!   decoded once, reference-counted, and recycled as the slowest
//!   consumer passes them. With one worker the same sharing holds on one
//!   thread: each chunk is decoded once and pushed through the profile
//!   stitcher and every model's incremental engine run.
//! - **Chunk-parallel profiling** ([`profile_chunked`]): trace profiling
//!   *does* compose across arbitrary cuts. Per-chunk partial profiles
//!   carry a per-thread open-epoch frontier (persists not yet closed by a
//!   barrier) plus the in-chunk order of barrier closes; stitching folds
//!   each chunk's frontier into the next so the merged `epoch_sizes`
//!   vector is element-for-element the sequential one. See DESIGN.md §2b
//!   for why the timing engine's level recurrence does *not* compose this
//!   way (coalescing legality compares absolute levels across the cut),
//!   which is exactly why the engines parallelize over decode and models
//!   instead of over chunks.
//!
//! The pipeline degrades gracefully: one chunk, one worker, or an
//! unindexed file all fall back to plain sequential streaming with no
//! threads spawned.

use crate::timing::{Analyzer, TimingReport};
use crate::AnalysisConfig;
use mem_trace::mmapio::MappedTrace;
use mem_trace::profile::TraceProfile;
use mem_trace::{Event, EventSource, Op, Trace};
use obsv::{series, tracefmt};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Condvar, Mutex};

/// Timeline track group (`pid`) for the chunked analysis pipeline:
/// decode workers, per-model analyze lanes, and the profile stitcher.
/// Distinct from the serve harness's per-model pids (1..=5).
const ANALYZE_PID: u64 = 10;

/// Records one decoded chunk on the analysis timeline/series (wall
/// clock — the pipeline has no virtual clock). `t0`/`t1` bracket the
/// decode; `tid` is the worker's timeline lane.
fn trace_chunk(tid: u64, name: &str, t0: f64, t1: f64, chunk: usize, events: usize) {
    if tracefmt::recording() {
        tracefmt::span(
            ANALYZE_PID,
            tid,
            name,
            t0,
            t1 - t0,
            &[("chunk", chunk.to_string()), ("events", events.to_string())],
        );
    }
    if series::active() {
        series::add("analyze.win.chunks", t1 as u64, 1);
        series::add("analyze.win.events", t1 as u64, events as u64);
    }
}

/// `tracefmt::now_ns` only when some time-resolved sink is live, else
/// 0.0 (avoids the clock read on untraced hot paths).
fn trace_now() -> f64 {
    if tracefmt::recording() || series::active() {
        tracefmt::now_ns()
    } else {
        0.0
    }
}

/// A trace that can be decoded as independent, concatenable chunks.
///
/// Chunk `i` must yield exactly the events `[start_i, start_{i+1})` of the
/// underlying sequential stream; concatenating chunks `0..chunk_count()`
/// in order reproduces it exactly.
pub trait ChunkFeed: Sync {
    /// Number of threads in the trace.
    fn thread_count(&self) -> u32;

    /// Number of chunks (0 only for empty in-memory feeds).
    fn chunk_count(&self) -> usize;

    /// Appends chunk `i`'s events to `out`.
    ///
    /// # Errors
    ///
    /// Returns decode/I-O errors from the underlying bytes.
    fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()>;
}

impl ChunkFeed for MappedTrace {
    fn thread_count(&self) -> u32 {
        MappedTrace::thread_count(self)
    }

    fn chunk_count(&self) -> usize {
        self.segment_count()
    }

    fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()> {
        // One batched fill: the slab decoder reserves the exact segment
        // length and decodes it in a single tight loop.
        self.segment_source(i).fill_slab(out, usize::MAX).map(|_| ())
    }
}

/// [`ChunkFeed`] over an in-memory [`Trace`], cut every `chunk_events`
/// events — the differential-test harness for the chunked pipeline, and
/// the fallback when a capture was never serialized.
#[derive(Debug, Clone, Copy)]
pub struct TraceChunks<'a> {
    trace: &'a Trace,
    chunk_events: usize,
}

impl<'a> TraceChunks<'a> {
    /// Chunks `trace` every `chunk_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_events == 0`.
    pub fn new(trace: &'a Trace, chunk_events: usize) -> Self {
        assert!(chunk_events > 0, "chunk_events must be positive");
        TraceChunks { trace, chunk_events }
    }
}

impl ChunkFeed for TraceChunks<'_> {
    fn thread_count(&self) -> u32 {
        self.trace.thread_count()
    }

    fn chunk_count(&self) -> usize {
        self.trace.events().len().div_ceil(self.chunk_events)
    }

    fn decode_chunk(&self, i: usize, out: &mut Vec<Event>) -> io::Result<()> {
        let events = self.trace.events();
        let start = i * self.chunk_events;
        let end = (start + self.chunk_events).min(events.len());
        out.extend_from_slice(&events[start..end]);
        Ok(())
    }
}

/// Sequential [`EventSource`] over a feed: decodes chunks one at a time on
/// the calling thread. The no-threads fallback, and the reference the
/// parallel paths must match bit-for-bit.
struct SeqSource<'a, F: ?Sized> {
    feed: &'a F,
    next_chunk: usize,
    buf: Vec<Event>,
    idx: usize,
}

impl<'a, F: ChunkFeed + ?Sized> SeqSource<'a, F> {
    fn new(feed: &'a F) -> Self {
        SeqSource { feed, next_chunk: 0, buf: Vec::new(), idx: 0 }
    }
}

impl<F: ChunkFeed + ?Sized> EventSource for SeqSource<'_, F> {
    fn thread_count(&self) -> u32 {
        self.feed.thread_count()
    }

    fn next_event(&mut self) -> io::Result<Option<Event>> {
        loop {
            if self.idx < self.buf.len() {
                let e = self.buf[self.idx];
                self.idx += 1;
                return Ok(Some(e));
            }
            if self.next_chunk >= self.feed.chunk_count() {
                return Ok(None);
            }
            self.buf.clear();
            self.idx = 0;
            self.feed.decode_chunk(self.next_chunk, &mut self.buf)?;
            self.next_chunk += 1;
        }
    }

    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize> {
        let mut n = 0;
        while n < max {
            if self.idx < self.buf.len() {
                let take = (self.buf.len() - self.idx).min(max - n);
                out.extend_from_slice(&self.buf[self.idx..self.idx + take]);
                self.idx += take;
                n += take;
                continue;
            }
            if self.next_chunk >= self.feed.chunk_count() {
                break;
            }
            self.buf.clear();
            self.idx = 0;
            self.feed.decode_chunk(self.next_chunk, &mut self.buf)?;
            self.next_chunk += 1;
        }
        Ok(n)
    }
}

/// Extra slab slots beyond the structural minimum (one per decode worker
/// in flight plus one held per consumer). Bounds resident decoded memory
/// to `(workers + consumers + WINDOW_SLACK) · chunk_events` events
/// however unbalanced the consumers are.
const WINDOW_SLACK: usize = 2;

/// One decoded chunk awaiting consumption.
struct Slot {
    data: Arc<Vec<Event>>,
    /// Active consumers that have not taken this chunk yet.
    remaining: usize,
}

struct FeedState {
    /// Next chunk index no decode worker has claimed.
    next_claim: usize,
    /// Decoded chunks not yet consumed by every active consumer.
    ready: BTreeMap<usize, Slot>,
    /// Next chunk each consumer needs (`usize::MAX` = finished).
    consumer_pos: Vec<usize>,
    /// Consumers not yet finished.
    active: usize,
    /// Sticky first decode failure; consumers convert it back to an error.
    error: Option<(io::ErrorKind, String)>,
    /// Recycled event slabs awaiting reuse by a decode worker.
    free: Vec<Vec<Event>>,
    /// Slabs in flight, ready, or held by consumers — everything claimed
    /// from the pool and not yet back in `free`.
    outstanding: usize,
}

/// Shared decode pool between out-of-order decode workers and in-order
/// consumers.
///
/// Workers claim chunk indices sequentially but decode and publish them
/// in whatever order they finish; the only back-pressure is the slab pool
/// (`pool_cap`), not the consumers' positions. Deadlock-freedom: claims
/// are sequential, so whenever the slowest consumer needs chunk `f`,
/// every ready chunk below `f` has already been taken by all active
/// consumers (they advanced past it) and recycled — hence at most
/// `consumers` held slabs and `workers` in-flight slabs are outstanding,
/// and `pool_cap > workers + consumers` leaves a slab free to claim `f`.
struct Feed<'a, F: ?Sized> {
    feed: &'a F,
    n_chunks: usize,
    pool_cap: usize,
    state: Mutex<FeedState>,
    cond: Condvar,
}

impl<'a, F: ChunkFeed + ?Sized> Feed<'a, F> {
    fn new(feed: &'a F, consumers: usize, workers: usize) -> Self {
        Feed {
            feed,
            n_chunks: feed.chunk_count(),
            pool_cap: workers + consumers + WINDOW_SLACK,
            state: Mutex::new(FeedState {
                next_claim: 0,
                ready: BTreeMap::new(),
                consumer_pos: vec![0; consumers],
                active: consumers,
                error: None,
                free: Vec::new(),
                outstanding: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Decode-worker loop: claim the next chunk and a recycled slab,
    /// decode out-of-order, publish. Exits when chunks run out, every
    /// consumer finished, or a decode failed. `worker` only labels this
    /// loop's timeline lane.
    fn decode_loop(&self, worker: usize) {
        let tid = worker as u64 + 1;
        if tracefmt::recording() {
            tracefmt::name_process(ANALYZE_PID, "analyze");
            tracefmt::name_thread(ANALYZE_PID, tid, &format!("decode {worker}"));
        }
        loop {
            let (i, mut buf) = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if st.error.is_some() || st.next_claim >= self.n_chunks || st.active == 0 {
                        obsv::flush();
                        return;
                    }
                    if st.outstanding < self.pool_cap {
                        let i = st.next_claim;
                        st.next_claim += 1;
                        st.outstanding += 1;
                        let buf = st.free.pop().unwrap_or_default();
                        break (i, buf);
                    }
                    st = self.cond.wait(st).unwrap();
                }
            };
            buf.clear();
            let t0 = trace_now();
            let res = self.feed.decode_chunk(i, &mut buf);
            if res.is_ok() {
                trace_chunk(tid, "decode", t0, trace_now(), i, buf.len());
            }
            let mut st = self.state.lock().unwrap();
            match res {
                Ok(()) if st.active > 0 => {
                    let remaining = st.active;
                    st.ready.insert(i, Slot { data: Arc::new(buf), remaining });
                }
                Ok(()) => {
                    // Every consumer left while we decoded; recycle.
                    st.outstanding -= 1;
                    st.free.push(buf);
                }
                Err(e) => {
                    st.error = Some((e.kind(), e.to_string()));
                    st.outstanding -= 1;
                }
            }
            drop(st);
            self.cond.notify_all();
        }
    }
}

/// Consumer-side operations need no decoding, so they stay available on
/// cursors whose `Drop` cannot name the [`ChunkFeed`] bound.
impl<F: ?Sized> Feed<'_, F> {
    /// Blocks until chunk `i` is decoded and takes consumer `me`'s
    /// reference to it. The last taker receives the slot's own `Arc`, so
    /// the final [`release`](Feed::release) can reclaim the slab.
    fn take(&self, me: usize, i: usize) -> io::Result<Arc<Vec<Event>>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some((kind, msg)) = &st.error {
                return Err(io::Error::new(*kind, msg.clone()));
            }
            if let Some(slot) = st.ready.get_mut(&i) {
                slot.remaining -= 1;
                let data = if slot.remaining == 0 {
                    st.ready.remove(&i).expect("slot present").data
                } else {
                    Arc::clone(&slot.data)
                };
                st.consumer_pos[me] = i + 1;
                drop(st);
                self.cond.notify_all();
                return Ok(data);
            }
            st = self.cond.wait(st).unwrap();
        }
    }

    /// Returns a consumer's chunk reference. The last holder recycles the
    /// slab into the free pool, unblocking decode workers.
    ///
    /// The `try_unwrap` runs under the state lock: concurrent releases of
    /// the same chunk are serialized, so exactly one of them observes a
    /// unique `Arc` and performs the recycle.
    fn release(&self, data: Arc<Vec<Event>>) {
        let mut st = self.state.lock().unwrap();
        if let Ok(buf) = Arc::try_unwrap(data) {
            st.outstanding -= 1;
            st.free.push(buf);
            drop(st);
            self.cond.notify_all();
        }
    }

    /// Marks consumer `me` finished, releasing its claim on every chunk it
    /// has not consumed so the pool keeps draining for the others.
    fn finish(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        let pos = st.consumer_pos[me];
        if pos == usize::MAX {
            return;
        }
        st.consumer_pos[me] = usize::MAX;
        st.active -= 1;
        let stale: Vec<usize> =
            st.ready.range(pos..).map(|(&i, _)| i).collect();
        for i in stale {
            let slot = st.ready.get_mut(&i).unwrap();
            slot.remaining -= 1;
            if slot.remaining == 0 {
                let slot = st.ready.remove(&i).expect("slot present");
                if let Ok(buf) = Arc::try_unwrap(slot.data) {
                    st.outstanding -= 1;
                    st.free.push(buf);
                }
            }
        }
        drop(st);
        self.cond.notify_all();
    }
}

/// In-order consumer cursor over a [`Feed`]; holds at most one chunk at a
/// time, recycling it into the slab pool before taking the next, and
/// unregisters itself on drop so early exits (errors) cannot stall the
/// other consumers.
struct Cursor<'a, 'f, F: ?Sized> {
    fd: &'a Feed<'f, F>,
    me: usize,
    next_chunk: usize,
    cur: Option<Arc<Vec<Event>>>,
    idx: usize,
}

impl<'a, 'f, F: ?Sized> Cursor<'a, 'f, F> {
    fn new(fd: &'a Feed<'f, F>, me: usize) -> Self {
        Cursor { fd, me, next_chunk: 0, cur: None, idx: 0 }
    }

    /// Returns the held chunk (if any) to the slab pool.
    fn release_cur(&mut self) {
        if let Some(data) = self.cur.take() {
            self.fd.release(data);
        }
    }

    /// Releases the held chunk and pulls the next one as a borrowed slice,
    /// or `None` at end of stream.
    fn next_chunk_ref(&mut self) -> io::Result<Option<&[Event]>> {
        self.release_cur();
        if self.next_chunk >= self.fd.n_chunks {
            self.fd.finish(self.me);
            return Ok(None);
        }
        let data = self.fd.take(self.me, self.next_chunk)?;
        self.next_chunk += 1;
        self.idx = 0;
        Ok(Some(self.cur.insert(data).as_slice()))
    }
}

impl<F: ChunkFeed + ?Sized> EventSource for Cursor<'_, '_, F> {
    fn thread_count(&self) -> u32 {
        self.fd.feed.thread_count()
    }

    fn next_event(&mut self) -> io::Result<Option<Event>> {
        loop {
            if let Some(cur) = &self.cur {
                if self.idx < cur.len() {
                    let e = cur[self.idx];
                    self.idx += 1;
                    return Ok(Some(e));
                }
            }
            if self.next_chunk_ref()?.is_none() {
                return Ok(None);
            }
        }
    }

    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize> {
        let mut n = 0;
        while n < max {
            if let Some(cur) = &self.cur {
                if self.idx < cur.len() {
                    let take = (cur.len() - self.idx).min(max - n);
                    out.extend_from_slice(&cur[self.idx..self.idx + take]);
                    self.idx += take;
                    n += take;
                    continue;
                }
            }
            if self.next_chunk_ref()?.is_none() {
                break;
            }
        }
        Ok(n)
    }
}

impl<F: ?Sized> Drop for Cursor<'_, '_, F> {
    fn drop(&mut self) {
        self.release_cur();
        self.fd.finish(self.me);
    }
}

/// Runs `consume` against the feed's reassembled sequential event stream,
/// decoding chunks on up to `workers` threads ahead of the consumer.
///
/// The stream handed to `consume` is *exactly* the sequential one — same
/// events, same order, for any `workers` — so any single-pass analysis
/// (the DAG builder, the buffer simulator) parallelizes its decode without
/// changing its own logic. With one worker or one chunk no threads are
/// spawned.
pub fn with_source<F, R>(
    feed: &F,
    workers: usize,
    consume: impl FnOnce(&mut dyn EventSource) -> R,
) -> R
where
    F: ChunkFeed + ?Sized,
{
    let n_chunks = feed.chunk_count();
    if workers <= 1 || n_chunks <= 1 {
        return consume(&mut SeqSource::new(feed));
    }
    let fd = Feed::new(feed, 1, workers);
    std::thread::scope(|s| {
        for w in 0..workers.min(n_chunks) {
            let fd = &fd;
            s.spawn(move || fd.decode_loop(w));
        }
        let mut cursor = Cursor::new(&fd, 0);
        consume(&mut cursor)
    })
}

/// Per-chunk partial [`TraceProfile`]: everything a chunk contributes,
/// with the epoch structure split into an order-preserving close list and
/// a per-thread open frontier so chunks stitch exactly.
struct ChunkProfile {
    /// All scalar counters (epoch_sizes left empty).
    counts: TraceProfile,
    /// Barrier/sync closes in chunk event order: `(thread, persists since
    /// that thread's previous close inside this chunk)`.
    closes: Vec<(u32, u64)>,
    /// Per-thread persists after the thread's last close in this chunk
    /// (all of its persists, if it closed nothing here).
    open_tail: Vec<u64>,
}

impl ChunkProfile {
    fn of_events(events: &[Event], nthreads: u32) -> io::Result<Self> {
        let mut p = TraceProfile::default();
        let mut closes = Vec::new();
        let mut open = vec![0u64; nthreads as usize];
        for e in events {
            p.events += 1;
            let t = e.thread.index();
            if t >= open.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "event names a thread outside the trace's thread count",
                ));
            }
            match e.op {
                Op::Load { .. } => p.loads += 1,
                Op::Store { .. } => p.stores += 1,
                Op::Rmw { .. } => {
                    p.rmws += 1;
                    p.loads += 1;
                    p.stores += 1;
                }
                Op::PersistBarrier => {
                    p.persist_barriers += 1;
                    closes.push((t as u32, open[t]));
                    open[t] = 0;
                }
                Op::MemBarrier => p.mem_barriers += 1,
                Op::NewStrand => p.strands += 1,
                Op::PersistSync => {
                    p.syncs += 1;
                    closes.push((t as u32, open[t]));
                    open[t] = 0;
                }
                Op::WorkEnd { .. } => p.work_items += 1,
                Op::PAlloc { .. } | Op::PFree { .. } | Op::WorkBegin { .. } => {}
            }
            if e.op.is_persist() {
                p.persists += 1;
                open[t] += 1;
            }
        }
        Ok(ChunkProfile { counts: p, closes, open_tail: open })
    }
}

/// Folds [`ChunkProfile`]s, in chunk order, into the exact sequential
/// [`TraceProfile`].
///
/// `carry[t]` is thread `t`'s open-epoch frontier entering the next chunk.
/// A chunk's first close for a thread absorbs the carry (the epoch began
/// in an earlier chunk); later closes are fully chunk-local, and the
/// chunk's `open_tail` refills the carry. Because closes are replayed in
/// chunk event order and chunks in index order, the `epoch_sizes` vector
/// comes out element-for-element identical to the one-pass profile —
/// including the final trailing epochs, closed in thread-id order.
struct ProfileStitcher {
    p: TraceProfile,
    carry: Vec<u64>,
}

impl ProfileStitcher {
    fn new(nthreads: u32) -> Self {
        ProfileStitcher { p: TraceProfile::default(), carry: vec![0; nthreads as usize] }
    }

    fn push(&mut self, c: &ChunkProfile) {
        self.p.events += c.counts.events;
        self.p.loads += c.counts.loads;
        self.p.stores += c.counts.stores;
        self.p.rmws += c.counts.rmws;
        self.p.persists += c.counts.persists;
        self.p.persist_barriers += c.counts.persist_barriers;
        self.p.mem_barriers += c.counts.mem_barriers;
        self.p.strands += c.counts.strands;
        self.p.syncs += c.counts.syncs;
        self.p.work_items += c.counts.work_items;
        for &(t, n) in &c.closes {
            // First close of `t` in this chunk absorbs the carried-in
            // frontier; carry is zero for the rest.
            let size = self.carry[t as usize] + n;
            self.carry[t as usize] = 0;
            self.p.epoch_sizes.push(size);
        }
        for (carry, tail) in self.carry.iter_mut().zip(&c.open_tail) {
            *carry += tail;
        }
    }

    fn finish(mut self) -> TraceProfile {
        for open in self.carry {
            if open > 0 {
                self.p.epoch_sizes.push(open);
            }
        }
        self.p
    }
}

/// Profiles the feed with chunks decoded *and profiled* in parallel,
/// producing exactly [`TraceProfile::of_source`]'s sequential answer
/// (same `epoch_sizes`, same order) for any worker count.
///
/// # Errors
///
/// Propagates decode errors and the sequential profiler's
/// thread-out-of-range `InvalidData`.
pub fn profile_chunked<F>(feed: &F, workers: usize) -> io::Result<TraceProfile>
where
    F: ChunkFeed + ?Sized,
{
    let n_chunks = feed.chunk_count();
    let nthreads = feed.thread_count();
    if workers <= 1 || n_chunks <= 1 {
        return TraceProfile::of_source(SeqSource::new(feed));
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let parts: Mutex<Vec<Option<ChunkProfile>>> =
        Mutex::new((0..n_chunks).map(|_| None).collect());
    let first_err: Mutex<Option<io::Error>> = Mutex::new(None);
    std::thread::scope(|s| {
        for w in 0..workers.min(n_chunks) {
            let (next, parts, first_err) = (&next, &parts, &first_err);
            s.spawn(move || {
                let tid = 200 + w as u64;
                if tracefmt::recording() {
                    tracefmt::name_process(ANALYZE_PID, "analyze");
                    tracefmt::name_thread(ANALYZE_PID, tid, &format!("profile {w}"));
                }
                let mut buf = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n_chunks || first_err.lock().unwrap().is_some() {
                        obsv::flush();
                        return;
                    }
                    buf.clear();
                    let t0 = trace_now();
                    let part = feed
                        .decode_chunk(i, &mut buf)
                        .and_then(|()| ChunkProfile::of_events(&buf, nthreads));
                    match part {
                        Ok(p) => {
                            trace_chunk(tid, "profile-chunk", t0, trace_now(), i, buf.len());
                            parts.lock().unwrap()[i] = Some(p)
                        }
                        Err(e) => {
                            let mut fe = first_err.lock().unwrap();
                            if fe.is_none() {
                                *fe = Some(e);
                            }
                            obsv::flush();
                            return;
                        }
                    }
                }
            });
        }
    });
    if let Some(e) = first_err.into_inner().unwrap() {
        return Err(e);
    }
    let mut stitcher = ProfileStitcher::new(nthreads);
    for part in parts.into_inner().unwrap() {
        stitcher.push(&part.expect("no error, so every chunk profiled"));
    }
    Ok(stitcher.finish())
}

/// One shared-decode parallel pass producing the trace profile and one
/// [`TimingReport`] per config — everything `psim analyze` computes.
///
/// Chunks are decoded once by up to `workers` threads; each config's
/// engine pass and the profile stitcher consume them concurrently from a
/// bounded in-order window. Results are bit-identical to running
/// [`TraceProfile::of_source`] and [`crate::timing::analyze_source`]
/// sequentially, for any `workers`.
///
/// # Errors
///
/// Propagates decode/analysis errors (first error wins).
pub fn analyze_full<F>(
    feed: &F,
    configs: &[AnalysisConfig],
    workers: usize,
) -> io::Result<(TraceProfile, Vec<TimingReport>)>
where
    F: ChunkFeed + ?Sized,
{
    let n_chunks = feed.chunk_count();
    let nthreads = feed.thread_count();
    // Each chunk is decoded once and feeds the profile pass plus one
    // engine pass per config, on either path below.
    obsv::counter_add("analyze.chunks", n_chunks as u64);
    obsv::counter_add("analyze.passes", configs.len() as u64 + 1);
    if workers <= 1 || n_chunks <= 1 {
        // Shared-decode sequential pass: each chunk is decoded *once* and
        // pushed through the profile stitcher and every config's
        // incremental engine run, instead of re-decoding the trace once
        // per consumer.
        let mut analyzers: Vec<Analyzer> = configs.iter().map(|_| Analyzer::new()).collect();
        let mut runs: Vec<_> = analyzers
            .iter_mut()
            .zip(configs)
            .map(|(a, config)| a.begin(config, nthreads))
            .collect();
        let mut stitcher = ProfileStitcher::new(nthreads);
        let mut buf = Vec::new();
        if tracefmt::recording() {
            tracefmt::name_process(ANALYZE_PID, "analyze");
            tracefmt::name_thread(ANALYZE_PID, 0, "sequential");
        }
        for i in 0..n_chunks {
            buf.clear();
            let t0 = trace_now();
            feed.decode_chunk(i, &mut buf)?;
            stitcher.push(&ChunkProfile::of_events(&buf, nthreads)?);
            for run in &mut runs {
                run.push_events(&buf)?;
            }
            // One span per chunk covering decode + profile + every
            // engine pass (the shared-decode path has no separate lanes).
            trace_chunk(0, "chunk", t0, trace_now(), i, buf.len());
        }
        let reports = runs.into_iter().map(|run| run.finish()).collect();
        return Ok((stitcher.finish(), reports));
    }
    let fd = Feed::new(feed, configs.len() + 1, workers);
    std::thread::scope(|s| {
        for w in 0..workers.min(n_chunks) {
            let fd = &fd;
            s.spawn(move || fd.decode_loop(w));
        }
        let model_handles: Vec<_> = configs
            .iter()
            .enumerate()
            .map(|(k, config)| {
                let fd = &fd;
                s.spawn(move || {
                    // Analyze lanes sit above the decode lanes (tid 100+)
                    // so Perfetto groups them visibly apart.
                    let tid = 100 + k as u64;
                    if tracefmt::recording() {
                        tracefmt::name_thread(
                            ANALYZE_PID,
                            tid,
                            &format!("analyze {}", config.model.name()),
                        );
                    }
                    let mut analyzer = Analyzer::new();
                    let mut run = analyzer.begin(config, nthreads);
                    let mut cursor = Cursor::new(fd, k + 1);
                    let mut chunk = 0usize;
                    let res = loop {
                        match cursor.next_chunk_ref() {
                            Ok(Some(events)) => {
                                let t0 = trace_now();
                                if let Err(e) = run.push_events(events) {
                                    break Err(e);
                                }
                                if tracefmt::recording() {
                                    tracefmt::span(
                                        ANALYZE_PID,
                                        tid,
                                        "analyze",
                                        t0,
                                        trace_now() - t0,
                                        &[
                                            ("chunk", chunk.to_string()),
                                            ("events", events.len().to_string()),
                                        ],
                                    );
                                }
                                chunk += 1;
                            }
                            Ok(None) => break Ok(run.finish()),
                            Err(e) => break Err(e),
                        }
                    };
                    obsv::flush();
                    res
                })
            })
            .collect();
        // The profile consumer runs here: per-chunk partials + stitch, the
        // same math as `profile_chunked`, fed from the shared pool.
        let profile = {
            let stitch_tid = 99u64;
            if tracefmt::recording() {
                tracefmt::name_thread(ANALYZE_PID, stitch_tid, "profile stitch");
            }
            let mut cursor = Cursor::new(&fd, 0);
            let mut stitcher = ProfileStitcher::new(nthreads);
            let mut chunk = 0usize;
            loop {
                match cursor.next_chunk_ref() {
                    Ok(Some(events)) => match ChunkProfile::of_events(events, nthreads) {
                        Ok(part) => {
                            let t0 = trace_now();
                            stitcher.push(&part);
                            if tracefmt::recording() {
                                tracefmt::span(
                                    ANALYZE_PID,
                                    stitch_tid,
                                    "stitch",
                                    t0,
                                    trace_now() - t0,
                                    &[("chunk", chunk.to_string())],
                                );
                            }
                            chunk += 1;
                        }
                        Err(e) => break Err(e),
                    },
                    Ok(None) => break Ok(stitcher.finish()),
                    Err(e) => break Err(e),
                }
            }
        };
        let mut reports = Vec::with_capacity(configs.len());
        let mut first_err: Option<io::Error> = None;
        for h in model_handles {
            match h.join().expect("model analysis thread panicked") {
                Ok(r) => reports.push(r),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok((profile?, reports))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use mem_trace::{FreeRunScheduler, TracedMem};

    fn capture(threads: u32) -> Trace {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(threads, |ctx| {
            let a = ctx.palloc(512, 64).unwrap();
            for i in 0..50u64 {
                ctx.work_begin(i);
                ctx.store_u64(a.add(8 * (i % 16)), i);
                if i % 3 == 0 {
                    ctx.persist_barrier();
                }
                if i % 11 == 0 {
                    ctx.persist_sync();
                }
                ctx.work_end(i);
            }
        })
    }

    #[test]
    fn chunked_profile_matches_sequential_any_chunking() {
        let t = capture(3);
        let reference = TraceProfile::of(&t);
        for chunk in [1usize, 3, 7, 64, 10_000] {
            for workers in [1usize, 2, 8] {
                let feed = TraceChunks::new(&t, chunk);
                let got = profile_chunked(&feed, workers).unwrap();
                assert_eq!(got, reference, "chunk={chunk} workers={workers}");
            }
        }
    }

    #[test]
    fn with_source_reassembles_exact_stream() {
        let t = capture(2);
        for chunk in [1usize, 5, 1000] {
            let feed = TraceChunks::new(&t, chunk);
            for workers in [1usize, 2, 8] {
                let collected =
                    with_source(&feed, workers, |src| mem_trace::collect_trace(src).unwrap());
                assert_eq!(collected, t, "chunk={chunk} workers={workers}");
            }
        }
    }

    #[test]
    fn analyze_full_matches_sequential_engines() {
        let t = capture(3);
        let configs: Vec<AnalysisConfig> =
            Model::ALL.iter().map(|&m| AnalysisConfig::new(m)).collect();
        let ref_profile = TraceProfile::of(&t);
        let ref_reports: Vec<TimingReport> =
            configs.iter().map(|c| crate::timing::analyze(&t, c)).collect();
        for workers in [1usize, 2, 8] {
            let feed = TraceChunks::new(&t, 9);
            let (profile, reports) = analyze_full(&feed, &configs, workers).unwrap();
            assert_eq!(profile, ref_profile, "workers={workers}");
            assert_eq!(reports, ref_reports, "workers={workers}");
        }
    }

    #[test]
    fn empty_feed_yields_empty_results() {
        let t = Trace::from_events(2, vec![]);
        let feed = TraceChunks::new(&t, 8);
        assert_eq!(feed.chunk_count(), 0);
        assert_eq!(profile_chunked(&feed, 4).unwrap(), TraceProfile::default());
        let (profile, reports) =
            analyze_full(&feed, &[AnalysisConfig::new(Model::Epoch)], 4).unwrap();
        assert_eq!(profile, TraceProfile::default());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].critical_path, 0);
    }
}
