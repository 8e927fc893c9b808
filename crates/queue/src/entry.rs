//! Self-validating queue entry encoding.
//!
//! The paper inserts 100-byte entries (§7). To let the recovery observer
//! *detect* corruption — a head pointer that ran ahead of its data — each
//! payload is self-describing: it encodes the slot it was written to, the
//! lap of the circular buffer, a deterministic fill pattern, and a
//! checksum. Recovery can then verify, for every entry the head pointer
//! claims valid, that exactly the right bytes persisted.

use core::fmt;
use persist_mem::{MemAddr, PmemBackend};

/// Payload size in bytes, matching the paper's 100-byte entries.
pub const PAYLOAD_BYTES: usize = 100;

/// Bytes one entry occupies in the data segment: the 8-byte length word
/// followed by the payload.
pub const ENTRY_BYTES: u64 = 8 + PAYLOAD_BYTES as u64;

/// Offsets within the payload.
const SLOT_OFF: usize = 0;
const LAP_OFF: usize = 8;
const FILL_OFF: usize = 16;
const CKSUM_OFF: usize = PAYLOAD_BYTES - 8;

/// Encodes and validates queue entry payloads.
///
/// # Example
///
/// ```rust
/// use pqueue::entry::EntryCodec;
///
/// let payload = EntryCodec::encode(128, 0);
/// assert_eq!(payload.len(), pqueue::PAYLOAD_BYTES);
/// EntryCodec::validate(&payload, 128, 0).unwrap();
/// assert!(EntryCodec::validate(&payload, 256, 0).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EntryCodec;

/// Why a recovered entry failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EntryError {
    /// The stored checksum does not match the payload bytes.
    BadChecksum,
    /// The entry describes a different slot than it was recovered from.
    WrongSlot {
        /// Slot recorded in the payload.
        found: u64,
        /// Slot the entry was recovered from.
        expected: u64,
    },
    /// The entry belongs to an earlier lap of the circular buffer.
    WrongLap {
        /// Lap recorded in the payload.
        found: u64,
        /// Lap the head pointer implies.
        expected: u64,
    },
    /// The payload has the wrong length.
    BadLength {
        /// Recovered length.
        found: usize,
    },
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::BadChecksum => f.write_str("entry checksum mismatch"),
            EntryError::WrongSlot { found, expected } => {
                write!(f, "entry names slot {found}, recovered from slot {expected}")
            }
            EntryError::WrongLap { found, expected } => {
                write!(f, "entry from lap {found}, head implies lap {expected}")
            }
            EntryError::BadLength { found } => {
                write!(f, "entry payload is {found} bytes, expected {PAYLOAD_BYTES}")
            }
        }
    }
}

impl std::error::Error for EntryError {}

/// Algorithm 1's `COPY(data[pos], (length, entry), length + sl)`, written
/// once for every queue and backend: stores the length word and the
/// self-validating payload of the insert at absolute byte position `at`
/// of the circular segment of `capacity_bytes` bytes at `data`. Returns
/// the entry's address; making it durable is the caller's protocol.
pub fn copy_entry(
    mut mem: impl PmemBackend,
    data: MemAddr,
    capacity_bytes: u64,
    at: u64,
) -> MemAddr {
    let pos = at % capacity_bytes;
    let dst = data.add(pos);
    mem.store_u64(dst, PAYLOAD_BYTES as u64);
    mem.store(dst.add(8), &EntryCodec::encode(pos, at / capacity_bytes));
    dst
}

/// FNV-style multiply-xor checksum, folded a word at a time.
///
/// Recovery validates every entry the head pointer claims on every
/// injected crash image, so this runs in the fuzzer's innermost loop;
/// consuming 8 bytes per round instead of 1 cuts the dependent-multiply
/// chain by 8× while keeping the property that matters: any altered,
/// missing, or stale byte changes the sum.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = h.wrapping_mul(0x100_0000_01b3).rotate_left(23);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl EntryCodec {
    /// Builds the payload for the entry written at byte offset `slot` of
    /// the data segment on circular-buffer lap `lap`.
    pub fn encode(slot: u64, lap: u64) -> Vec<u8> {
        let mut p = vec![0u8; PAYLOAD_BYTES];
        p[SLOT_OFF..SLOT_OFF + 8].copy_from_slice(&slot.to_le_bytes());
        p[LAP_OFF..LAP_OFF + 8].copy_from_slice(&lap.to_le_bytes());
        // Deterministic per-(slot, lap) fill so stale data never matches.
        let mut x = slot.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lap.wrapping_add(1);
        for b in &mut p[FILL_OFF..CKSUM_OFF] {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        let ck = checksum64(&p[..CKSUM_OFF]);
        p[CKSUM_OFF..].copy_from_slice(&ck.to_le_bytes());
        p
    }

    /// Validates a recovered payload against the slot and lap the head
    /// pointer implies.
    ///
    /// # Errors
    ///
    /// Returns the first [`EntryError`] found.
    pub fn validate(payload: &[u8], slot: u64, lap: u64) -> Result<(), EntryError> {
        if payload.len() != PAYLOAD_BYTES {
            return Err(EntryError::BadLength { found: payload.len() });
        }
        let stored_ck = u64::from_le_bytes(payload[CKSUM_OFF..].try_into().expect("8 bytes"));
        if checksum64(&payload[..CKSUM_OFF]) != stored_ck {
            return Err(EntryError::BadChecksum);
        }
        let found_slot = u64::from_le_bytes(payload[SLOT_OFF..SLOT_OFF + 8].try_into().expect("8 bytes"));
        if found_slot != slot {
            return Err(EntryError::WrongSlot { found: found_slot, expected: slot });
        }
        let found_lap = u64::from_le_bytes(payload[LAP_OFF..LAP_OFF + 8].try_into().expect("8 bytes"));
        if found_lap != lap {
            return Err(EntryError::WrongLap { found: found_lap, expected: lap });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = EntryCodec::encode(0, 0);
        EntryCodec::validate(&p, 0, 0).unwrap();
        let p = EntryCodec::encode(12800, 7);
        EntryCodec::validate(&p, 12800, 7).unwrap();
    }

    #[test]
    fn detects_bit_flip() {
        let mut p = EntryCodec::encode(64, 1);
        p[40] ^= 0x01;
        assert_eq!(EntryCodec::validate(&p, 64, 1), Err(EntryError::BadChecksum));
    }

    #[test]
    fn detects_wrong_slot_and_lap() {
        let p = EntryCodec::encode(64, 1);
        assert!(matches!(
            EntryCodec::validate(&p, 128, 1),
            Err(EntryError::WrongSlot { found: 64, expected: 128 })
        ));
        assert!(matches!(
            EntryCodec::validate(&p, 64, 2),
            Err(EntryError::WrongLap { found: 1, expected: 2 })
        ));
    }

    #[test]
    fn detects_all_zero_payload() {
        // A never-persisted (zero) slot must not validate: this is the
        // "head ran ahead of data" corruption signature.
        let zeros = vec![0u8; PAYLOAD_BYTES];
        assert!(EntryCodec::validate(&zeros, 0, 0).is_err());
    }

    #[test]
    fn distinct_slots_and_laps_differ() {
        assert_ne!(EntryCodec::encode(0, 0), EntryCodec::encode(64, 0));
        assert_ne!(EntryCodec::encode(0, 0), EntryCodec::encode(0, 1));
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(matches!(
            EntryCodec::validate(&[0u8; 10], 0, 0),
            Err(EntryError::BadLength { found: 10 })
        ));
    }
}
