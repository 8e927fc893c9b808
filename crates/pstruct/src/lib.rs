//! Recoverable data structures built on the memory-persistency framework.
//!
//! The paper's evaluation uses a persistent queue; its related-work
//! section (§9) points at the broader ecosystem — persistent heaps
//! (NV-Heaps), lightweight persistent transactions (Mnemosyne), and
//! persistent-transaction hardware (Kiln). This crate builds two such
//! structures, each written *once* against
//! [`persist_mem::PmemBackend`] and verified with the recovery observer:
//!
//! - [`kv::PersistentKv`] — a fixed-capacity open-addressing hash table
//!   with a checksummed valid-flag publish protocol,
//! - [`txn::UndoLog`] — word-granularity durable transactions via a
//!   persistent undo log (log the old value, mutate in place, commit,
//!   truncate), with a recovery routine that rolls back uncommitted
//!   transactions.
//!
//! Both demonstrate the framework's purpose: the *same* data-structure
//! code gets its crash guarantees from barrier placement, and the crash
//! checker ([`persistency::crash`]) mechanically confirms which barriers
//! each persistency model actually needs. There is one protocol body per
//! operation: passing a `&mem_trace::ThreadCtx` runs it over traced
//! memory (barriers become trace events for the analyses), passing
//! `&mut DirectPmem` or the `pfi` shadow runs it over a persistent image
//! for `serve` and crash-fuzz. Only [`kv::LockedKv`], whose MCS lock needs
//! traced atomics, is traced-only; it wraps the generic body.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kv;
pub mod txn;
