//! The integrity-protected append-only ledger (paper §3.2, §3.5).
//!
//! Every transaction a CCF node executes is appended to the ledger; a
//! Merkle tree over the entries is periodically signed by the primary in a
//! *signature transaction*, making the ledger tamper-evident once it leaves
//! the TEE. Private-map updates are encrypted with the ledger secret before
//! they reach the (untrusted) host.
//!
//! * [`merkle`] — an incremental Merkle tree (RFC 6962 shape) with
//!   inclusion proofs and rollback, mirroring the production `merklecpp`.
//! * [`entry`] — ledger entry encoding: transaction IDs, write sets split
//!   by visibility, and the signature transaction (its one builder,
//!   parser and signature check).
//! * [`secrets`] — the ledger secret (Table 1), rekeying, and the
//!   encryption of private write sets.
//! * [`receipt`] — verifiable receipts: Merkle proof + signature + service
//!   endorsement, verifiable fully offline.
//! * [`files`] — chunking of the logical ledger into physical files, each
//!   terminating at a signature transaction, as persisted by the host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod files;
pub mod merkle;
pub mod receipt;
pub mod secrets;

pub use entry::{
    signature_entry, verify_signature, LedgerEntry, SignatureError, SignaturePayload, TxId,
};
pub use merkle::{MerkleProof, MerkleTree};
pub use receipt::Receipt;
pub use secrets::LedgerSecrets;
