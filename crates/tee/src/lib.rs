//! A simulated trusted execution environment substrate (paper §2, §3, §7).
//!
//! The production CCF runs each node's trusted code inside an Intel SGX
//! enclave. This reproduction cannot assume SGX hardware, so this crate
//! simulates the *protocol-visible* properties of a TEE (see DESIGN.md's
//! substitution table):
//!
//! * [`attestation`] — measurements (code identities), attestation reports
//!   binding a measurement and report data under a simulated hardware
//!   root of trust, and verification. This is what CCF's join protocol
//!   checks against `nodes.code_ids` before sharing service secrets.
//! * [`platform`] — the platform cost model: `Virtual` (no overhead, the
//!   paper's virtual mode) vs `SgxSim` (an injected execution-proportional
//!   cost calibrated to the paper's observed SGX slowdown), used by the
//!   Table 5 experiment.
//! * [`channel`] — authenticated encrypted node-to-node channels
//!   (X25519 + HKDF + AES-256-GCM), the paper's Diffie-Hellman
//!   node-to-node encryption (§7). No runtime path uses them yet:
//!   consensus messages cross the simulated host in plaintext.
//!
//! The host↔enclave boundary itself (CCF's ringbuffers) is not modelled:
//! each node's enclave and host halves run in one process and call each
//! other directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod channel;
pub mod platform;

pub use attestation::{AttestationReport, CodeId, HardwareRoot};
pub use platform::TeePlatform;
