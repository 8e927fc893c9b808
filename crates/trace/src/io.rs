//! Trace serialization: capture once, analyze many times.
//!
//! The paper's tracing framework is a standalone artifact ("our tracing
//! framework is available online", §7); separating capture from analysis
//! lets a slow instrumented run feed any number of persistency analyses.
//!
//! Two formats share one reader:
//!
//! - **MPTRACE1** — fixed-width little-endian records (the original
//!   format). Still written by [`write_trace`] and read back forever.
//! - **MPTRACE2** — varint/delta-encoded ([`write_trace2`]): thread ids
//!   and values are LEB128 varints, program-order indices and access
//!   offsets are zigzag deltas against per-thread (and per-space)
//!   predictors. Typical captures shrink to a fraction of the MPTRACE1
//!   size; see `docs/mptrace2.md` for the byte-level spec.
//!
//! [`read_trace`] auto-detects the format from the magic. For streaming
//! ingestion without materializing a [`Trace`], wrap a reader in
//! [`TraceReader`] — it implements [`EventSource`] and decodes events one
//! at a time. Wrap file handles in `BufReader`/`BufWriter`; both codecs
//! issue many small reads/writes.

use crate::event::tag;
use crate::source::{collect_trace, EventSource};
use crate::{Event, Op, ThreadId, Trace};
use persist_mem::MemAddr;
use std::io::{self, Read, Write};

/// File magic of the fixed-width v1 format.
const MAGIC: [u8; 8] = *b"MPTRACE1";
/// File magic of the varint/delta v2 format.
const MAGIC2: [u8; 8] = *b"MPTRACE2";

/// Decoder cap on thread ids: bounds decode-state allocation for corrupt
/// inputs (real captures are far below this).
const MAX_THREADS: u64 = 1 << 20;

fn w64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// LEB128 varint append — the batched-encode fast path: the hot encode
/// loop pushes whole events into a `Vec` and flushes in large blocks, so
/// the `Write` trait is crossed once per block instead of per field.
#[inline]
fn push_var(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// LEB128 varint decode; rejects overlong encodings past 64 bits.
fn rvar(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r8(r)?;
        if shift == 63 && (b & 0x7F) > 1 {
            return Err(bad("varint overflows 64 bits"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(bad("varint too long"));
        }
    }
}

/// Zigzag fold: small ± deltas become small unsigned varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Per-thread codec predictors shared by the v2 encoder and decoder.
/// Segment-index footers snapshot these so decode can resume mid-file
/// ([`crate::mmapio`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThreadCodec {
    /// Last program-order index (−1 before the thread's first event); the
    /// predictor is `prev_po + 1`, so dense program order encodes as 0.
    pub(crate) prev_po: i64,
    /// Last access offset per address space (volatile, persistent).
    pub(crate) last_off: [u64; 2],
}

impl Default for ThreadCodec {
    fn default() -> Self {
        ThreadCodec { prev_po: -1, last_off: [0, 0] }
    }
}

fn codec_state(st: &mut Vec<ThreadCodec>, thread: usize) -> &mut ThreadCodec {
    if thread >= st.len() {
        st.resize_with(thread + 1, ThreadCodec::default);
    }
    &mut st[thread]
}

/// Space index of an address (0 volatile, 1 persistent) — bit 3 of the v2
/// tag byte's high nibble.
fn space_of(addr: MemAddr) -> usize {
    addr.is_persistent() as usize
}

fn addr_in(space: usize, offset: u64) -> MemAddr {
    if space == 1 {
        MemAddr::persistent(offset)
    } else {
        MemAddr::volatile(offset)
    }
}

/// Worst-case encoded size of one v2 event: a tag byte plus at most five
/// varints, each of which a decoder consumes at most 10 bytes of before
/// accepting or rejecting it. A decode attempt with this many bytes
/// available can never run off the end of a buffer spuriously — the
/// refill invariant of the buffered reader's batched path.
const MAX_EVENT_BYTES: usize = 1 + 5 * 10;

#[inline]
fn eof_err() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "truncated event")
}

/// One byte from `data[*pos..]`. With `CHECKED = false` the bounds check
/// is elided — sound only under the module-internal contract of
/// [`decode_event2_unchecked`]: at least [`MAX_EVENT_BYTES`] readable at
/// the event's start, and one event decode consumes at most that many
/// bytes on every path, including rejections.
#[inline(always)]
fn sbyte<const CHECKED: bool>(data: &[u8], pos: &mut usize) -> io::Result<u8> {
    if CHECKED {
        match data.get(*pos) {
            Some(&b) => {
                *pos += 1;
                Ok(b)
            }
            None => Err(eof_err()),
        }
    } else {
        debug_assert!(*pos < data.len());
        // SAFETY: the decode_event2_unchecked contract bounds this read.
        let b = unsafe { *data.get_unchecked(*pos) };
        *pos += 1;
        Ok(b)
    }
}

/// Slice-based varint decode — same acceptance rules as [`rvar`], but
/// branch-lean: the one-byte case (the overwhelming majority of capture
/// fields) is a single bounds check and compare.
#[inline(always)]
fn svar<const CHECKED: bool>(data: &[u8], pos: &mut usize) -> io::Result<u64> {
    let first = if CHECKED {
        data.get(*pos).copied()
    } else {
        debug_assert!(*pos < data.len());
        // SAFETY: the decode_event2_unchecked contract bounds this read.
        Some(unsafe { *data.get_unchecked(*pos) })
    };
    if let Some(b) = first {
        if b < 0x80 {
            *pos += 1;
            return Ok(b as u64);
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = sbyte::<CHECKED>(data, pos)?;
        if shift == 63 && (b & 0x7F) > 1 {
            return Err(bad("varint overflows 64 bits"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(bad("varint too long"));
        }
    }
}

#[inline(always)]
fn sdelta_off<const CHECKED: bool>(
    data: &[u8],
    pos: &mut usize,
    st: &mut ThreadCodec,
    space: usize,
) -> io::Result<u64> {
    let delta = unzigzag(svar::<CHECKED>(data, pos)?) as u64;
    let offset = st.last_off[space].wrapping_add(delta);
    if offset >= 1 << 63 {
        return Err(bad("access offset exceeds the 63-bit address space"));
    }
    st.last_off[space] = offset;
    Ok(offset)
}

/// Decodes one v2 event from `data[*pos..]`, advancing `pos` — the shared
/// core of every MPTRACE2 decode path (buffered reader, mmap'd segments,
/// slab fills). Field order, validation, and accept/reject decisions are
/// exactly those of the original per-event reader; running out of bytes
/// surfaces as `UnexpectedEof` like a failing `read_exact`.
#[inline]
fn decode_event2(data: &[u8], pos: &mut usize, st: &mut Vec<ThreadCodec>) -> io::Result<Event> {
    decode_event2_impl::<true>(data, pos, st)
}

/// [`decode_event2`] with per-byte bounds checks elided — the slab hot
/// loops call this for every event that starts at least
/// [`MAX_EVENT_BYTES`] from the end of the buffer. Identical field
/// order, validation, and accept/reject decisions: within the window no
/// read can spuriously hit the buffer end, so the checked path would
/// never have returned `UnexpectedEof` either.
///
/// # Safety
///
/// `data.len() - *pos >= MAX_EVENT_BYTES` must hold. One decode then
/// stays in bounds on every path: an event is 1 tag byte plus at most 5
/// varints, and a varint read consumes at most 10 bytes before
/// accepting or rejecting — `MAX_EVENT_BYTES` is exactly that worst
/// case.
#[inline]
unsafe fn decode_event2_unchecked(
    data: &[u8],
    pos: &mut usize,
    st: &mut Vec<ThreadCodec>,
) -> io::Result<Event> {
    debug_assert!(data.len() - *pos >= MAX_EVENT_BYTES);
    decode_event2_impl::<false>(data, pos, st)
}

#[inline(always)]
fn decode_event2_impl<const CHECKED: bool>(
    data: &[u8],
    pos: &mut usize,
    st: &mut Vec<ThreadCodec>,
) -> io::Result<Event> {
    let tag_byte = sbyte::<CHECKED>(data, pos)?;
    let (t, hi) = (tag_byte & 0xF, tag_byte >> 4);
    let thread = svar::<CHECKED>(data, pos)?;
    if thread >= MAX_THREADS {
        return Err(bad("thread id out of range"));
    }
    let ts = codec_state(st, thread as usize);
    let po = ts.prev_po + 1 + unzigzag(svar::<CHECKED>(data, pos)?);
    if !(0..=u32::MAX as i64).contains(&po) {
        return Err(bad("program-order index out of range"));
    }
    let (space, len) = ((hi >> 3) as usize, (hi & 0x7) + 1);
    let op = match t {
        tag::LOAD => {
            let addr = addr_in(space, sdelta_off::<CHECKED>(data, pos, ts, space)?);
            Op::Load { addr, len, value: svar::<CHECKED>(data, pos)? }
        }
        tag::STORE => {
            let addr = addr_in(space, sdelta_off::<CHECKED>(data, pos, ts, space)?);
            Op::Store { addr, len, value: svar::<CHECKED>(data, pos)? }
        }
        tag::RMW => {
            let addr = addr_in(space, sdelta_off::<CHECKED>(data, pos, ts, space)?);
            Op::Rmw {
                addr,
                len,
                old: svar::<CHECKED>(data, pos)?,
                new: svar::<CHECKED>(data, pos)?,
            }
        }
        tag::PBARRIER if hi == 0 => Op::PersistBarrier,
        tag::MBARRIER if hi == 0 => Op::MemBarrier,
        tag::NEWSTRAND if hi == 0 => Op::NewStrand,
        tag::PSYNC if hi == 0 => Op::PersistSync,
        tag::PALLOC if hi & 0x7 == 0 => {
            let addr = addr_in(space, sdelta_off::<CHECKED>(data, pos, ts, space)?);
            Op::PAlloc { addr, size: svar::<CHECKED>(data, pos)? }
        }
        tag::PFREE if hi & 0x7 == 0 => {
            Op::PFree { addr: addr_in(space, sdelta_off::<CHECKED>(data, pos, ts, space)?) }
        }
        tag::WBEGIN if hi == 0 => Op::WorkBegin { id: svar::<CHECKED>(data, pos)? },
        tag::WEND if hi == 0 => Op::WorkEnd { id: svar::<CHECKED>(data, pos)? },
        _ => return Err(bad("unknown operation tag")),
    };
    ts.prev_po = po;
    Ok(Event { thread: ThreadId(thread as u32), po: po as u32, op })
}

/// Writes `trace` to `w` in the MPTRACE1 format (fixed-width records).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w32(&mut w, trace.thread_count())?;
    w64(&mut w, trace.events().len() as u64)?;
    for e in trace.events() {
        w32(&mut w, e.thread.0)?;
        w32(&mut w, e.po)?;
        match e.op {
            Op::Load { addr, len, value } => {
                w.write_all(&[tag::LOAD, len])?;
                w64(&mut w, addr.to_bits())?;
                w64(&mut w, value)?;
            }
            Op::Store { addr, len, value } => {
                w.write_all(&[tag::STORE, len])?;
                w64(&mut w, addr.to_bits())?;
                w64(&mut w, value)?;
            }
            Op::Rmw { addr, len, old, new } => {
                w.write_all(&[tag::RMW, len])?;
                w64(&mut w, addr.to_bits())?;
                w64(&mut w, old)?;
                w64(&mut w, new)?;
            }
            Op::PersistBarrier => w.write_all(&[tag::PBARRIER])?,
            Op::MemBarrier => w.write_all(&[tag::MBARRIER])?,
            Op::NewStrand => w.write_all(&[tag::NEWSTRAND])?,
            Op::PersistSync => w.write_all(&[tag::PSYNC])?,
            Op::PAlloc { addr, size } => {
                w.write_all(&[tag::PALLOC])?;
                w64(&mut w, addr.to_bits())?;
                w64(&mut w, size)?;
            }
            Op::PFree { addr } => {
                w.write_all(&[tag::PFREE])?;
                w64(&mut w, addr.to_bits())?;
            }
            Op::WorkBegin { id } => {
                w.write_all(&[tag::WBEGIN])?;
                w64(&mut w, id)?;
            }
            Op::WorkEnd { id } => {
                w.write_all(&[tag::WEND])?;
                w64(&mut w, id)?;
            }
        }
    }
    Ok(())
}

/// Encodes one event into `buf` against the per-thread predictor state —
/// the shared core of the batched MPTRACE2 encoder.
#[inline]
fn encode_event2(buf: &mut Vec<u8>, st: &mut Vec<ThreadCodec>, e: &Event) -> io::Result<()> {
    if e.thread.as_u64() >= MAX_THREADS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "MPTRACE2 supports at most 2^20 threads",
        ));
    }
    // Tag byte: op tag in the low nibble; the high nibble carries
    // `(len - 1) | (space << 3)` for data accesses, `space << 3` for
    // PAlloc/PFree, 0 otherwise.
    let hi = match e.op {
        Op::Load { addr, len, .. } | Op::Store { addr, len, .. } | Op::Rmw { addr, len, .. } => {
            debug_assert!((1..=8).contains(&len));
            (len - 1) | ((space_of(addr) as u8) << 3)
        }
        Op::PAlloc { addr, .. } | Op::PFree { addr } => (space_of(addr) as u8) << 3,
        _ => 0,
    };
    let t = match e.op {
        Op::Load { .. } => tag::LOAD,
        Op::Store { .. } => tag::STORE,
        Op::Rmw { .. } => tag::RMW,
        Op::PersistBarrier => tag::PBARRIER,
        Op::MemBarrier => tag::MBARRIER,
        Op::NewStrand => tag::NEWSTRAND,
        Op::PersistSync => tag::PSYNC,
        Op::PAlloc { .. } => tag::PALLOC,
        Op::PFree { .. } => tag::PFREE,
        Op::WorkBegin { .. } => tag::WBEGIN,
        Op::WorkEnd { .. } => tag::WEND,
    };
    buf.push(t | (hi << 4));
    push_var(buf, e.thread.as_u64());
    let ts = codec_state(st, e.thread.index());
    push_var(buf, zigzag(e.po as i64 - (ts.prev_po + 1)));
    ts.prev_po = e.po as i64;
    let push_off = |buf: &mut Vec<u8>, ts: &mut ThreadCodec, space: usize, offset: u64| {
        let delta = offset.wrapping_sub(ts.last_off[space]);
        ts.last_off[space] = offset;
        push_var(buf, zigzag(delta as i64));
    };
    match e.op {
        Op::Load { addr, value, .. } | Op::Store { addr, value, .. } => {
            push_off(buf, ts, space_of(addr), addr.offset());
            push_var(buf, value);
        }
        Op::Rmw { addr, old, new, .. } => {
            push_off(buf, ts, space_of(addr), addr.offset());
            push_var(buf, old);
            push_var(buf, new);
        }
        Op::PAlloc { addr, size } => {
            push_off(buf, ts, space_of(addr), addr.offset());
            push_var(buf, size);
        }
        Op::PFree { addr } => push_off(buf, ts, space_of(addr), addr.offset()),
        Op::WorkBegin { id } | Op::WorkEnd { id } => push_var(buf, id),
        _ => {}
    }
    Ok(())
}

/// Flush threshold of the batched encoder: large enough that the `Write`
/// trait is crossed a few times per megabyte, small enough to stay cache
/// resident.
const ENCODE_FLUSH: usize = 64 * 1024;

/// Events per segment in the default indexed layout. Each segment gets a
/// footer entry (byte offset + predictor snapshot) so decode can seek.
pub const DEFAULT_SEGMENT_EVENTS: u64 = 1 << 16;

/// Magic trailing the segment-index footer of an indexed MPTRACE2 file.
const IDX_MAGIC: [u8; 8] = *b"MPTIDX01";

/// One entry of the segment index: where a segment starts and the decoder
/// predictor state at that point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentEntry {
    /// Index of the segment's first event.
    pub(crate) start_event: u64,
    /// Byte offset of that event from the start of the file.
    pub(crate) byte_offset: u64,
    /// Predictor snapshot for every thread seen before the segment
    /// (threads beyond the snapshot start from the default state).
    pub(crate) codecs: Vec<ThreadCodec>,
}

/// Writes `trace` to `w` in the compact MPTRACE2 format, with a segment
/// index footer every [`DEFAULT_SEGMENT_EVENTS`] events.
///
/// The event stream is byte-identical to the footer-less encoding and the
/// footer lies entirely after the last event, so any MPTRACE2 reader —
/// including pre-index ones, which stop after `count` events — decodes
/// indexed files unchanged. Empty traces carry no index.
///
/// # Errors
///
/// Propagates I/O errors from the writer, and `InvalidInput` if a thread
/// id exceeds the format's 2²⁰ cap.
pub fn write_trace2<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    write_trace2_segmented(trace, w, DEFAULT_SEGMENT_EVENTS)
}

/// [`write_trace2`] with an explicit segment length (events per footer
/// entry); `0` disables the index entirely.
pub fn write_trace2_segmented<W: Write>(
    trace: &Trace,
    mut w: W,
    segment_events: u64,
) -> io::Result<()> {
    w.write_all(&MAGIC2)?;
    let mut header = Vec::with_capacity(20);
    push_var(&mut header, trace.thread_count() as u64);
    push_var(&mut header, trace.events().len() as u64);
    w.write_all(&header)?;
    let mut pos = (MAGIC2.len() + header.len()) as u64;

    let mut st: Vec<ThreadCodec> = Vec::with_capacity(trace.thread_count() as usize);
    let mut buf: Vec<u8> = Vec::with_capacity(ENCODE_FLUSH + 64);
    let mut index: Vec<SegmentEntry> = Vec::new();
    for (i, e) in trace.events().iter().enumerate() {
        if segment_events > 0 && (i as u64).is_multiple_of(segment_events) {
            index.push(SegmentEntry {
                start_event: i as u64,
                byte_offset: pos + buf.len() as u64,
                codecs: st.clone(),
            });
        }
        encode_event2(&mut buf, &mut st, e)?;
        if buf.len() >= ENCODE_FLUSH {
            w.write_all(&buf)?;
            pos += buf.len() as u64;
            buf.clear();
        }
    }
    if !index.is_empty() {
        write_index(&mut buf, &index);
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Appends the segment index block and its fixed 24-byte trailer.
fn write_index(buf: &mut Vec<u8>, index: &[SegmentEntry]) {
    let start = buf.len();
    for e in index {
        push_var(buf, e.start_event);
        push_var(buf, e.byte_offset);
        push_var(buf, e.codecs.len() as u64);
        for c in &e.codecs {
            push_var(buf, zigzag(c.prev_po));
            push_var(buf, c.last_off[0]);
            push_var(buf, c.last_off[1]);
        }
    }
    let index_len = (buf.len() - start) as u64;
    buf.extend_from_slice(&index_len.to_le_bytes());
    buf.extend_from_slice(&(index.len() as u64).to_le_bytes());
    buf.extend_from_slice(&IDX_MAGIC);
}

/// Parses the segment-index footer of an in-memory MPTRACE2 file, if one
/// is present and internally consistent.
///
/// Returns `None` — never an error — when the footer is absent, torn or
/// corrupt: the event stream itself is still decodable sequentially, so
/// index damage only costs seekability. `count` comes from the
/// already-validated header; `body_start` is the first event byte.
pub(crate) fn parse_index(data: &[u8], body_start: usize, count: u64) -> Option<Vec<SegmentEntry>> {
    if count == 0 || data.len() < body_start + 24 {
        return None;
    }
    if data[data.len() - 8..] != IDX_MAGIC {
        return None;
    }
    let fixed = data.len() - 24;
    let index_len = u64::from_le_bytes(data[fixed..fixed + 8].try_into().unwrap());
    let n_segments = u64::from_le_bytes(data[fixed + 8..fixed + 16].try_into().unwrap());
    if n_segments == 0 || n_segments > count || index_len as usize > fixed - body_start {
        return None;
    }
    let mut block = &data[fixed - index_len as usize..fixed];
    let mut entries = Vec::with_capacity(n_segments.min(1 << 20) as usize);
    for _ in 0..n_segments {
        let start_event = rvar(&mut block).ok()?;
        let byte_offset = rvar(&mut block).ok()?;
        let ncodecs = rvar(&mut block).ok()?;
        if start_event >= count || ncodecs > MAX_THREADS {
            return None;
        }
        let mut codecs = Vec::with_capacity(ncodecs.min(MAX_THREADS) as usize);
        for _ in 0..ncodecs {
            let prev_po = unzigzag(rvar(&mut block).ok()?);
            let o0 = rvar(&mut block).ok()?;
            let o1 = rvar(&mut block).ok()?;
            if !(-1..=u32::MAX as i64).contains(&prev_po) || o0 >= 1 << 63 || o1 >= 1 << 63 {
                return None;
            }
            codecs.push(ThreadCodec { prev_po, last_off: [o0, o1] });
        }
        // Offsets must land inside the event body, strictly increasing.
        if (byte_offset as usize) < body_start || byte_offset as usize >= fixed {
            return None;
        }
        if let Some(prev) = entries.last() {
            let prev: &SegmentEntry = prev;
            if start_event <= prev.start_event || byte_offset <= prev.byte_offset {
                return None;
            }
        } else if start_event != 0 || byte_offset as usize != body_start {
            return None;
        }
        entries.push(SegmentEntry { start_event, byte_offset, codecs });
    }
    if !block.is_empty() {
        return None;
    }
    Some(entries)
}

/// Parses an MPTRACE2 header from an in-memory file: returns
/// `(nthreads, count, body_start)` where `body_start` is the byte offset
/// of the first event. Same validation as [`TraceReader::new`].
pub(crate) fn parse_header2(data: &[u8]) -> io::Result<(u32, u64, usize)> {
    let mut r = data;
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC2 {
        return Err(bad("not an MPTRACE2 trace"));
    }
    let nthreads = rvar(&mut r)?;
    let count = rvar(&mut r)?;
    if nthreads > MAX_THREADS {
        return Err(bad("unreasonable thread count"));
    }
    if count > (1 << 32) {
        return Err(bad("unreasonable event count"));
    }
    Ok((nthreads as u32, count, data.len() - r.len()))
}

/// Which serialized format a [`TraceReader`] is decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Fixed-width MPTRACE1.
    V1,
    /// Varint/delta MPTRACE2.
    V2,
}

/// Refill target of the buffered v2 decoder's carry buffer: large reads
/// amortize the `Read` trait to a few crossings per megabyte, and events
/// decode from a flat in-memory block between them.
const READ_CHUNK: usize = 64 * 1024;

/// Streaming trace decoder: an [`EventSource`] over a serialized trace.
///
/// Auto-detects MPTRACE1 vs MPTRACE2 from the magic. MPTRACE2 decodes
/// through an internal carry buffer in large blocks — both `next_event`
/// and the batched [`EventSource::fill_slab`] path — so analyses can
/// ingest traces of any size in constant memory at block-decode speed.
/// The reader may consume bytes past the last event (up to one refill
/// block); it does not hand the underlying reader back. MPTRACE1 still
/// decodes one record per call; wrap v1 files in a `BufReader`.
pub struct TraceReader<R> {
    r: R,
    format: TraceFormat,
    nthreads: u32,
    remaining: u64,
    /// v2 per-thread predictor state (unused for v1).
    st: Vec<ThreadCodec>,
    /// v2 carry buffer: undecoded bytes live in `buf[pos..]`.
    buf: Vec<u8>,
    pos: usize,
    /// The underlying reader returned 0; `buf[pos..]` is all that's left.
    eof: bool,
}

impl<R> std::fmt::Debug for TraceReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("format", &self.format)
            .field("nthreads", &self.nthreads)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header, leaving the reader positioned at
    /// the first event.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for an unknown magic or unreasonable header
    /// fields, and propagates I/O errors.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let format = match magic {
            MAGIC => TraceFormat::V1,
            MAGIC2 => TraceFormat::V2,
            _ => return Err(bad("not an MPTRACE1/MPTRACE2 trace")),
        };
        let (nthreads, remaining) = match format {
            TraceFormat::V1 => (r32(&mut r)? as u64, r64(&mut r)?),
            TraceFormat::V2 => (rvar(&mut r)?, rvar(&mut r)?),
        };
        if nthreads > MAX_THREADS {
            return Err(bad("unreasonable thread count"));
        }
        if remaining > (1 << 32) {
            return Err(bad("unreasonable event count"));
        }
        Ok(TraceReader {
            r,
            format,
            nthreads: nthreads as u32,
            remaining,
            st: Vec::new(),
            buf: Vec::new(),
            pos: 0,
            eof: false,
        })
    }

    /// The detected on-disk format.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Compacts the carry buffer and reads until a full [`READ_CHUNK`] is
    /// buffered or the reader hits end of stream.
    fn refill(&mut self) -> io::Result<()> {
        self.buf.copy_within(self.pos.., 0);
        self.buf.truncate(self.buf.len() - self.pos);
        self.pos = 0;
        while self.buf.len() < READ_CHUNK {
            let old = self.buf.len();
            self.buf.resize(READ_CHUNK, 0);
            match self.r.read(&mut self.buf[old..]) {
                Ok(0) => {
                    self.buf.truncate(old);
                    self.eof = true;
                    return Ok(());
                }
                Ok(k) => self.buf.truncate(old + k),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => self.buf.truncate(old),
                Err(e) => {
                    self.buf.truncate(old);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn next_v1(&mut self) -> io::Result<Event> {
        let r = &mut self.r;
        let thread = ThreadId(r32(r)?);
        let po = r32(r)?;
        let t = r8(r)?;
        let read_len = |r: &mut R| -> io::Result<u8> {
            let len = r8(r)?;
            if (1..=8).contains(&len) {
                Ok(len)
            } else {
                Err(bad("access length out of range"))
            }
        };
        let op = match t {
            tag::LOAD => {
                let len = read_len(r)?;
                Op::Load { addr: MemAddr::from_bits(r64(r)?), len, value: r64(r)? }
            }
            tag::STORE => {
                let len = read_len(r)?;
                Op::Store { addr: MemAddr::from_bits(r64(r)?), len, value: r64(r)? }
            }
            tag::RMW => {
                let len = read_len(r)?;
                Op::Rmw { addr: MemAddr::from_bits(r64(r)?), len, old: r64(r)?, new: r64(r)? }
            }
            tag::PBARRIER => Op::PersistBarrier,
            tag::MBARRIER => Op::MemBarrier,
            tag::NEWSTRAND => Op::NewStrand,
            tag::PSYNC => Op::PersistSync,
            tag::PALLOC => Op::PAlloc { addr: MemAddr::from_bits(r64(r)?), size: r64(r)? },
            tag::PFREE => Op::PFree { addr: MemAddr::from_bits(r64(r)?) },
            tag::WBEGIN => Op::WorkBegin { id: r64(r)? },
            tag::WEND => Op::WorkEnd { id: r64(r)? },
            _ => return Err(bad("unknown operation tag")),
        };
        Ok(Event { thread, po, op })
    }

    #[inline]
    fn next_v2(&mut self) -> io::Result<Event> {
        if self.buf.len() - self.pos < MAX_EVENT_BYTES && !self.eof {
            self.refill()?;
        }
        decode_event2(&self.buf, &mut self.pos, &mut self.st)
    }
}

impl<R: Read> EventSource for TraceReader<R> {
    fn thread_count(&self) -> u32 {
        self.nthreads
    }

    fn next_event(&mut self) -> io::Result<Option<Event>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let e = match self.format {
            TraceFormat::V1 => self.next_v1()?,
            TraceFormat::V2 => self.next_v2()?,
        };
        self.remaining -= 1;
        Ok(Some(e))
    }

    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize> {
        if self.format == TraceFormat::V1 {
            let mut n = 0;
            while n < max {
                match self.next_event()? {
                    Some(e) => {
                        out.push(e);
                        n += 1;
                    }
                    None => break,
                }
            }
            return Ok(n);
        }
        let total = self.remaining.min(max as u64) as usize;
        out.reserve(total);
        for n in 0..total {
            if self.buf.len() - self.pos < MAX_EVENT_BYTES && !self.eof {
                self.refill()?;
            }
            let res = if self.buf.len() - self.pos >= MAX_EVENT_BYTES {
                // SAFETY: a full event window is buffered.
                unsafe { decode_event2_unchecked(&self.buf, &mut self.pos, &mut self.st) }
            } else {
                decode_event2(&self.buf, &mut self.pos, &mut self.st)
            };
            match res {
                Ok(e) => out.push(e),
                Err(e) => {
                    self.remaining -= n as u64;
                    return Err(e);
                }
            }
        }
        self.remaining -= total as u64;
        Ok(total)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

/// Zero-copy batched MPTRACE2 decoder over an in-memory event body —
/// what [`crate::mmapio::MappedTrace`] segments hand out. Implements
/// [`EventSource`]; the [`fill_slab`](EventSource::fill_slab) override
/// decodes a whole block in one tight loop with no per-event dispatch.
#[derive(Debug)]
pub struct SlabDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    nthreads: u32,
    remaining: u64,
    st: Vec<ThreadCodec>,
}

impl<'a> SlabDecoder<'a> {
    /// Resumes v2 decoding mid-body: `data` must start at an event
    /// boundary and `st` must be the predictor snapshot for that point
    /// (empty for the first event of a capture).
    pub(crate) fn resume(
        data: &'a [u8],
        nthreads: u32,
        remaining: u64,
        st: Vec<ThreadCodec>,
    ) -> Self {
        SlabDecoder { data, pos: 0, nthreads, remaining, st }
    }
}

impl EventSource for SlabDecoder<'_> {
    fn thread_count(&self) -> u32 {
        self.nthreads
    }

    #[inline]
    fn next_event(&mut self) -> io::Result<Option<Event>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let e = decode_event2(self.data, &mut self.pos, &mut self.st)?;
        self.remaining -= 1;
        Ok(Some(e))
    }

    fn fill_slab(&mut self, out: &mut Vec<Event>, max: usize) -> io::Result<usize> {
        let total = self.remaining.min(max as u64) as usize;
        out.reserve(total);
        for n in 0..total {
            let res = if self.data.len() - self.pos >= MAX_EVENT_BYTES {
                // SAFETY: a full event window remains in the slice.
                unsafe { decode_event2_unchecked(self.data, &mut self.pos, &mut self.st) }
            } else {
                decode_event2(self.data, &mut self.pos, &mut self.st)
            };
            match res {
                Ok(e) => out.push(e),
                Err(e) => {
                    self.remaining -= n as u64;
                    return Err(e);
                }
            }
        }
        self.remaining -= total as u64;
        Ok(total)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

/// Reads a trace from `r`, auto-detecting MPTRACE1 or MPTRACE2.
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic, tag, or field, and propagates
/// I/O errors. Never panics on corrupt input.
pub fn read_trace<R: Read>(r: R) -> io::Result<Trace> {
    collect_trace(TraceReader::new(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeRunScheduler, TraceBuilder, TracedMem};

    fn sample_trace() -> Trace {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(2, |ctx| {
            let a = ctx.palloc(128, 64).unwrap();
            ctx.work_begin(ctx.thread_id().as_u64());
            ctx.store_u64(a, 1);
            ctx.store_n(a.add(8), 3, 0x1234);
            ctx.load_u64(a);
            ctx.cas_u64(persist_mem::MemAddr::volatile(0), 0, 1);
            ctx.persist_barrier();
            ctx.mem_barrier();
            ctx.new_strand();
            ctx.persist_sync();
            ctx.pfree(a).unwrap();
            ctx.work_end(ctx.thread_id().as_u64());
        })
    }

    /// A hand-built trace covering every op tag, both spaces, extreme
    /// values, and non-dense program order.
    fn all_tags_trace() -> Trace {
        let mut events = Vec::new();
        for (i, op) in crate::event::tests::all_op_variants().into_iter().enumerate() {
            events.push(Event { thread: ThreadId((i % 3) as u32), po: (i * 7) as u32, op });
        }
        // Extreme offsets/values to exercise long varints and deltas.
        events.push(Event {
            thread: ThreadId(0),
            po: 1000,
            op: Op::Store { addr: MemAddr::persistent((1 << 63) - 8), len: 8, value: u64::MAX },
        });
        events.push(Event {
            thread: ThreadId(0),
            po: 1001,
            op: Op::Load { addr: MemAddr::volatile(0), len: 1, value: 0 },
        });
        Trace::from_events(3, events)
    }

    #[test]
    fn v1_roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn v2_roundtrip_preserves_everything() {
        for t in [sample_trace(), all_tags_trace(), Trace::from_events(1, vec![])] {
            let mut buf = Vec::new();
            write_trace2(&t, &mut buf).unwrap();
            let back = read_trace(buf.as_slice()).unwrap();
            assert_eq!(t, back);
        }
    }

    #[test]
    fn v2_is_smaller_than_v1_on_captures() {
        let t = sample_trace();
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        write_trace(&t, &mut v1).unwrap();
        write_trace2(&t, &mut v2).unwrap();
        assert!(
            v2.len() < v1.len(),
            "MPTRACE2 ({}) should be smaller than MPTRACE1 ({})",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn roundtrip_preserves_builder_traces() {
        let a = persist_mem::MemAddr::persistent(0);
        let mut b = TraceBuilder::new(2);
        b.store(0, a, 1).persist_barrier(0).store(0, a.add(64), 2);
        b.store(1, a, 3);
        b.set_visibility(vec![(0, 2), (1, 0), (0, 0), (0, 1)]);
        let t = b.build();
        for v2 in [false, true] {
            let mut buf = Vec::new();
            if v2 {
                write_trace2(&t, &mut buf).unwrap();
            } else {
                write_trace(&t, &mut buf).unwrap();
            }
            assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
        }
    }

    #[test]
    fn streaming_reader_matches_materialized_read() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace2(&t, &mut buf).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.format(), TraceFormat::V2);
        assert_eq!(reader.thread_count(), 2);
        assert_eq!(reader.size_hint(), Some(t.events().len() as u64));
        let mut streamed = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            streamed.push(e);
        }
        assert_eq!(streamed.as_slice(), t.events());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOTATRACE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation_in_both_formats() {
        let t = sample_trace();
        for v2 in [false, true] {
            let mut buf = Vec::new();
            if v2 {
                // Footer-less layout so every cut point lands in the event
                // body (cutting only the index is legal — readers ignore it).
                write_trace2_segmented(&t, &mut buf, 0).unwrap();
            } else {
                write_trace(&t, &mut buf).unwrap();
            }
            for cut in [4, buf.len() / 3, buf.len() - 1] {
                assert!(read_trace(&buf[..cut]).is_err(), "truncated at {cut} (v2={v2})");
            }
        }
    }

    #[test]
    fn index_footer_is_invisible_to_sequential_readers() {
        let t = sample_trace();
        let (mut plain, mut indexed) = (Vec::new(), Vec::new());
        write_trace2_segmented(&t, &mut plain, 0).unwrap();
        write_trace2_segmented(&t, &mut indexed, 4).unwrap();
        // Identical event stream, footer strictly appended.
        assert_eq!(&indexed[..plain.len()], plain.as_slice());
        assert!(indexed.len() > plain.len());
        assert_eq!(read_trace(indexed.as_slice()).unwrap(), t);
        // Clipping just the footer still decodes (old-reader behaviour).
        assert_eq!(read_trace(&indexed[..indexed.len() - 1]).unwrap(), t);
    }

    #[test]
    fn segment_index_roundtrips_and_seeks() {
        let t = all_tags_trace();
        let seg = 4u64;
        let mut buf = Vec::new();
        write_trace2_segmented(&t, &mut buf, seg).unwrap();
        let body_start = {
            let mut h = MAGIC2.to_vec();
            push_var(&mut h, t.thread_count() as u64);
            push_var(&mut h, t.events().len() as u64);
            h.len()
        };
        let count = t.events().len() as u64;
        let index = parse_index(&buf, body_start, count).expect("index present");
        assert_eq!(index.len(), (count as usize).div_ceil(seg as usize));
        assert_eq!(index[0].start_event, 0);
        assert_eq!(index[0].byte_offset as usize, body_start);
        assert!(index[0].codecs.is_empty());
        // Decoding each segment from its snapshot reproduces the exact
        // sequential event slices.
        for (i, entry) in index.iter().enumerate() {
            let end_event = index.get(i + 1).map_or(count, |n| n.start_event);
            let mut r = SlabDecoder::resume(
                &buf[entry.byte_offset as usize..],
                t.thread_count(),
                end_event - entry.start_event,
                entry.codecs.clone(),
            );
            let mut got = Vec::new();
            while let Some(e) = r.next_event().unwrap() {
                got.push(e);
            }
            assert_eq!(
                got.as_slice(),
                &t.events()[entry.start_event as usize..end_event as usize],
                "segment {i} mismatch"
            );
        }
        // Footer-less and empty files have no index; a corrupted trailer
        // degrades to None, never an error.
        let mut plain = Vec::new();
        write_trace2_segmented(&t, &mut plain, 0).unwrap();
        assert!(parse_index(&plain, body_start, count).is_none());
        for i in buf.len() - 24..buf.len() {
            let mut c = buf.clone();
            c[i] ^= 0xFF;
            let _ = parse_index(&c, body_start, count);
        }
        let mut c = buf.clone();
        let magic_at = c.len() - 8;
        c[magic_at] ^= 0xFF;
        assert!(parse_index(&c, body_start, count).is_none());
    }

    #[test]
    fn rejects_bad_tag_and_len() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        // Corrupt the first event's tag byte (offset: magic 8 + threads 4 +
        // count 8 + thread 4 + po 4 = 28).
        let mut bad_tag = buf.clone();
        bad_tag[28] = 0xFF;
        assert!(read_trace(bad_tag.as_slice()).is_err());
    }

    #[test]
    fn v2_corruption_errors_never_panic() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace2(&t, &mut buf).unwrap();
        // Flip every byte in turn; decoding must either succeed (the byte
        // was value payload) or fail cleanly — never panic.
        for i in 0..buf.len() {
            let mut c = buf.clone();
            c[i] ^= 0xFF;
            let _ = read_trace(c.as_slice());
        }
        // Unreasonable header counts are rejected outright.
        let mut huge = MAGIC2.to_vec();
        push_var(&mut huge, u64::MAX); // nthreads
        push_var(&mut huge, 1);
        assert!(read_trace(huge.as_slice()).is_err());
        let mut huge = MAGIC2.to_vec();
        push_var(&mut huge, 1);
        push_var(&mut huge, u64::MAX); // count
        assert!(read_trace(huge.as_slice()).is_err());
    }

    #[test]
    fn varint_roundtrip_and_overlong_rejection() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX, 1 << 63] {
            let mut buf = Vec::new();
            push_var(&mut buf, v);
            assert_eq!(rvar(&mut buf.as_slice()).unwrap(), v);
        }
        // 11 continuation bytes: too long.
        let overlong = [0x80u8; 11];
        assert!(rvar(&mut overlong.as_slice()).is_err());
        // 10th byte with high bits set: overflows 64 bits.
        let mut over = [0x80u8; 10];
        over[9] = 0x7F;
        assert!(rvar(&mut over.as_slice()).is_err());
    }

    #[test]
    fn format_is_stable_for_empty_trace() {
        let t = Trace::from_events(1, vec![]);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 8 + 4 + 8);
        assert_eq!(&buf[..8], b"MPTRACE1");
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.events().len(), 0);
        assert_eq!(back.thread_count(), 1);
        let mut buf2 = Vec::new();
        write_trace2(&t, &mut buf2).unwrap();
        assert_eq!(buf2.len(), 8 + 1 + 1);
        assert_eq!(&buf2[..8], b"MPTRACE2");
    }
}
