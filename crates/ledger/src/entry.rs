//! Ledger entry encoding: transaction IDs, write sets split by visibility,
//! signature transactions (paper §3.1–§3.3).
//!
//! This module is the one place that knows the signature transaction's
//! format: [`signature_entry`] builds it, [`SignaturePayload::from_entry`]
//! reads it back, and [`verify_signature`] checks the node signature it
//! carries (consensus, receipts and recovery all go through these).

use ccf_crypto::sha2::{sha256, Sha256};
use ccf_crypto::{Digest32, Signature, SigningKey, VerifyingKey};
use ccf_kv::codec::{CodecError, Reader, Writer};
use ccf_kv::{builtin, MapName, WriteSet};

/// The key of the payload in the `public:ccf.internal.signatures` map.
const SIGNATURE_KEY: &[u8] = b"latest";

/// A transaction ID: the ordered pair (view, sequence number) — unique per
/// transaction across the whole service lifetime (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId {
    /// The consensus view in which the transaction was created.
    pub view: u64,
    /// The index of the transaction in the ledger (1-based; 0 = none).
    pub seqno: u64,
}

impl TxId {
    /// Creates a transaction ID.
    pub fn new(view: u64, seqno: u64) -> TxId {
        TxId { view, seqno }
    }

    /// The "no transaction" sentinel (before the first entry).
    pub const ZERO: TxId = TxId { view: 0, seqno: 0 };
}

impl std::fmt::Debug for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.view, self.seqno)
    }
}

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.view, self.seqno)
    }
}

/// What kind of transaction an entry records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntryKind {
    /// A user/application transaction (or governance write).
    User = 0,
    /// A signature transaction: the primary's signature over the Merkle
    /// root of the preceding ledger prefix (§3.2).
    Signature = 1,
    /// A reconfiguration transaction: updates to `nodes.info` changing the
    /// set of trusted nodes (§4.4). Affects consensus directly.
    Reconfiguration = 2,
}

impl EntryKind {
    fn from_u8(v: u8) -> Result<EntryKind, CodecError> {
        match v {
            0 => Ok(EntryKind::User),
            1 => Ok(EntryKind::Signature),
            2 => Ok(EntryKind::Reconfiguration),
            _ => Err(CodecError::BadValue { context: "entry kind" }),
        }
    }
}

/// The payload of a signature transaction, stored in the
/// `public:ccf.internal.signatures` map and on the ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignaturePayload {
    /// The signing (primary) node.
    pub node_id: String,
    /// The Merkle root over the ledger up to and including the previous
    /// entry.
    pub root: Digest32,
    /// Ed25519 signature by the node identity key over
    /// `signing_bytes(root, txid)`.
    pub signature: Signature,
    /// The node's public key, so auditors can check against `nodes.info`.
    pub node_public: VerifyingKey,
}

impl SignaturePayload {
    /// The exact bytes a node signs for a signature transaction at `txid`.
    fn signing_bytes(root: &Digest32, txid: TxId) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.raw(b"ccf-signature-tx");
        w.u64(txid.view);
        w.u64(txid.seqno);
        w.raw(root);
        w.finish()
    }

    /// Serializes the payload.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.node_id);
        w.raw(&self.root);
        w.raw(&self.signature.0);
        w.raw(&self.node_public.0);
        w.finish()
    }

    /// Decodes [`SignaturePayload::encode`].
    fn decode(bytes: &[u8]) -> Result<SignaturePayload, CodecError> {
        let mut r = Reader::new(bytes);
        let node_id = r.str("signature node id")?.to_string();
        let root = r.array::<32>("signature root")?;
        let sig = r.array::<64>("signature bytes")?;
        let node_public = r.array::<32>("signature node key")?;
        Ok(SignaturePayload {
            node_id,
            root,
            signature: Signature(sig),
            node_public: VerifyingKey(node_public),
        })
    }

    /// Reads the payload of signature transaction `entry`: the value at
    /// `SIGNATURES["latest"]` of its public write set.
    pub fn from_entry(entry: &LedgerEntry) -> Result<SignaturePayload, SignatureError> {
        if entry.kind != EntryKind::Signature {
            return Err(SignatureError::NotSignature);
        }
        let ws = WriteSet::decode(&entry.public_ws).map_err(SignatureError::BadWriteSet)?;
        let bytes = ws
            .maps
            .get(&MapName::new(builtin::SIGNATURES))
            .and_then(|m| m.get(SIGNATURE_KEY))
            .and_then(Option::as_ref)
            .ok_or(SignatureError::MissingPayload)?;
        SignaturePayload::decode(bytes).map_err(SignatureError::BadPayload)
    }
}

/// Why an entry is not a valid signature transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureError {
    /// The entry is not of kind [`EntryKind::Signature`].
    NotSignature,
    /// The public write set does not decode.
    BadWriteSet(CodecError),
    /// The write set holds no `SIGNATURES["latest"]` value.
    MissingPayload,
    /// The payload does not decode.
    BadPayload(CodecError),
    /// The node signature over the root at the txid does not verify.
    BadSignature,
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::NotSignature => write!(f, "not a signature transaction"),
            SignatureError::BadWriteSet(e) => write!(f, "signature write set: {e}"),
            SignatureError::MissingPayload => write!(f, "no signature payload"),
            SignatureError::BadPayload(e) => write!(f, "signature payload: {e}"),
            SignatureError::BadSignature => write!(f, "invalid node signature over root"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// Builds the signature transaction at `txid` over Merkle root `root`,
/// signed by node `node_id` with `key`: its payload is the one write,
/// `SIGNATURES["latest"]`.
pub fn signature_entry(node_id: &str, key: &SigningKey, txid: TxId, root: Digest32) -> LedgerEntry {
    let payload = SignaturePayload {
        node_id: node_id.to_string(),
        root,
        signature: key.sign(&SignaturePayload::signing_bytes(&root, txid)),
        node_public: key.verifying_key(),
    };
    let mut ws = WriteSet::new();
    ws.write(MapName::new(builtin::SIGNATURES), SIGNATURE_KEY.to_vec(), payload.encode());
    LedgerEntry {
        txid,
        kind: EntryKind::Signature,
        public_ws: ws.encode(),
        private_ws_enc: Vec::new(),
        claims_digest: [0u8; 32],
    }
}

/// Checks that `signature` is `node_public`'s signature over `root` for
/// the signature transaction at `txid`. Whether `root` is the right root
/// and `node_public` a trusted key is the caller's to check.
pub fn verify_signature(
    node_public: &VerifyingKey,
    root: &Digest32,
    txid: TxId,
    signature: &Signature,
) -> Result<(), SignatureError> {
    node_public
        .verify(&SignaturePayload::signing_bytes(root, txid), signature)
        .map_err(|_| SignatureError::BadSignature)
}

/// One entry of the ledger, as replicated between nodes and persisted by
/// the host. Private-map updates are already encrypted at this layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The transaction ID assigned by the primary.
    pub txid: TxId,
    /// What kind of transaction this is.
    pub kind: EntryKind,
    /// Public-map updates, in plain text (encoded [`WriteSet`]).
    pub public_ws: Vec<u8>,
    /// Private-map updates, encrypted with the ledger secret
    /// (AES-256-GCM ciphertext || tag); empty if none.
    pub private_ws_enc: Vec<u8>,
    /// Digest of application-attached claims (§3.5); zero if none.
    pub claims_digest: Digest32,
}

impl LedgerEntry {
    /// The leaf digest contributed to the Merkle tree: a hash over the
    /// transaction ID, the digests of both write-set parts, and the claims
    /// digest — everything a receipt must commit to.
    pub fn leaf_bytes(&self) -> Vec<u8> {
        Self::leaf_bytes_from_digests(
            self.txid,
            self.kind,
            &sha256(&self.public_ws),
            &sha256(&self.private_ws_enc),
            &self.claims_digest,
        )
    }

    /// Builds leaf bytes from precomputed digests (receipt verification
    /// path, where the verifier may only hold digests).
    pub fn leaf_bytes_from_digests(
        txid: TxId,
        kind: EntryKind,
        public_digest: &Digest32,
        private_digest: &Digest32,
        claims_digest: &Digest32,
    ) -> Vec<u8> {
        let mut w = Writer::with_capacity(112);
        w.u64(txid.view);
        w.u64(txid.seqno);
        w.u8(kind as u8);
        w.raw(public_digest);
        w.raw(private_digest);
        w.raw(claims_digest);
        w.finish()
    }

    /// Digest of the encoded entry (used in append-entries integrity
    /// checks).
    pub fn digest(&self) -> Digest32 {
        let mut h = Sha256::new();
        h.update(&self.encode());
        h.finalize()
    }

    /// Parses the public write set.
    pub fn public_write_set(&self) -> Result<WriteSet, CodecError> {
        if self.public_ws.is_empty() {
            return Ok(WriteSet::new());
        }
        WriteSet::decode(&self.public_ws)
    }

    /// Serializes the entry for replication and persistence.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.public_ws.len() + self.private_ws_enc.len());
        w.u64(self.txid.view);
        w.u64(self.txid.seqno);
        w.u8(self.kind as u8);
        w.bytes(&self.public_ws);
        w.bytes(&self.private_ws_enc);
        w.raw(&self.claims_digest);
        w.finish()
    }

    /// Decodes [`LedgerEntry::encode`].
    pub fn decode(bytes: &[u8]) -> Result<LedgerEntry, CodecError> {
        let mut r = Reader::new(bytes);
        let entry = Self::decode_from(&mut r)?;
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "ledger entry trailing bytes" });
        }
        Ok(entry)
    }

    /// Decodes one entry from a stream (ledger files hold many).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<LedgerEntry, CodecError> {
        let view = r.u64("entry view")?;
        let seqno = r.u64("entry seqno")?;
        let kind = EntryKind::from_u8(r.u8("entry kind")?)?;
        let public_ws = r.bytes("entry public ws")?.to_vec();
        let private_ws_enc = r.bytes("entry private ws")?.to_vec();
        let claims_digest = r.array::<32>("entry claims digest")?;
        Ok(LedgerEntry { txid: TxId::new(view, seqno), kind, public_ws, private_ws_enc, claims_digest })
    }

    /// True for signature transactions.
    pub fn is_signature(&self) -> bool {
        self.kind == EntryKind::Signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> LedgerEntry {
        let mut ws = WriteSet::new();
        ws.write(MapName::new("public:app.m"), b"k".to_vec(), b"v".to_vec());
        LedgerEntry {
            txid: TxId::new(2, 7),
            kind: EntryKind::User,
            public_ws: ws.encode(),
            private_ws_enc: vec![1, 2, 3],
            claims_digest: [0u8; 32],
        }
    }

    #[test]
    fn txid_ordering_and_display() {
        assert!(TxId::new(1, 5) < TxId::new(2, 1));
        assert!(TxId::new(2, 1) < TxId::new(2, 2));
        assert_eq!(TxId::new(3, 14).to_string(), "3.14");
    }

    #[test]
    fn entry_roundtrip() {
        let e = sample_entry();
        let decoded = LedgerEntry::decode(&e.encode()).unwrap();
        assert_eq!(e, decoded);
    }

    #[test]
    fn entry_rejects_truncation_and_trailing() {
        let bytes = sample_entry().encode();
        assert!(LedgerEntry::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(LedgerEntry::decode(&extra).is_err());
    }

    #[test]
    fn entry_rejects_bad_kind() {
        let mut bytes = sample_entry().encode();
        bytes[16] = 99; // kind byte follows the two u64s
        assert!(LedgerEntry::decode(&bytes).is_err());
    }

    #[test]
    fn leaf_binds_all_components() {
        let base = sample_entry();
        let l0 = base.leaf_bytes();
        let mut e = base.clone();
        e.txid = TxId::new(2, 8);
        assert_ne!(e.leaf_bytes(), l0);
        let mut e = base.clone();
        e.private_ws_enc = vec![9];
        assert_ne!(e.leaf_bytes(), l0);
        let mut e = base.clone();
        e.claims_digest = [1u8; 32];
        assert_ne!(e.leaf_bytes(), l0);
        let mut e = base.clone();
        e.kind = EntryKind::Signature;
        assert_ne!(e.leaf_bytes(), l0);
    }

    #[test]
    fn signature_payload_roundtrip() {
        let mut rng = ccf_crypto::chacha::ChaChaRng::seed_from_u64(3);
        let key = ccf_crypto::SigningKey::generate(&mut rng);
        let root = [7u8; 32];
        let txid = TxId::new(1, 100);
        let payload = SignaturePayload {
            node_id: "n0".into(),
            root,
            signature: key.sign(&SignaturePayload::signing_bytes(&root, txid)),
            node_public: key.verifying_key(),
        };
        let decoded = SignaturePayload::decode(&payload.encode()).unwrap();
        assert_eq!(payload, decoded);
        decoded
            .node_public
            .verify(&SignaturePayload::signing_bytes(&root, txid), &decoded.signature)
            .unwrap();
    }

    #[test]
    fn built_signature_entry_parses_and_verifies() {
        let key = ccf_crypto::SigningKey::from_seed([5u8; 32]);
        let (txid, root) = (TxId::new(3, 41), [9u8; 32]);
        let entry = signature_entry("n1", &key, txid, root);
        assert!(entry.is_signature());
        let payload = SignaturePayload::from_entry(&entry).unwrap();
        assert_eq!(payload.node_id, "n1");
        assert_eq!(payload.root, root);
        assert_eq!(payload.node_public, key.verifying_key());
        let signed_root = verify_signature(&payload.node_public, &root, txid, &payload.signature);
        assert_eq!(signed_root, Ok(()));
        // The entry survives the ledger encoding unchanged.
        let decoded = LedgerEntry::decode(&entry.encode()).unwrap();
        assert_eq!(SignaturePayload::from_entry(&decoded), Ok(payload));
    }

    #[test]
    fn signature_check_rejects_wrong_key_txid_or_root() {
        let key = ccf_crypto::SigningKey::from_seed([5u8; 32]);
        let (txid, root) = (TxId::new(3, 41), [9u8; 32]);
        let p = SignaturePayload::from_entry(&signature_entry("n1", &key, txid, root)).unwrap();
        let other = ccf_crypto::SigningKey::from_seed([6u8; 32]).verifying_key();
        let bad = Err(SignatureError::BadSignature);
        assert_eq!(verify_signature(&other, &p.root, txid, &p.signature), bad);
        assert_eq!(verify_signature(&p.node_public, &p.root, TxId::new(3, 42), &p.signature), bad);
        assert_eq!(verify_signature(&p.node_public, &p.root, TxId::new(4, 41), &p.signature), bad);
        let mut changed = root;
        changed[31] ^= 1;
        assert_eq!(verify_signature(&p.node_public, &changed, txid, &p.signature), bad);
    }

    #[test]
    fn signature_parser_rejects_non_signature_entries() {
        // A user entry passed as a signature.
        let user = sample_entry();
        assert_eq!(SignaturePayload::from_entry(&user), Err(SignatureError::NotSignature));
        let key = ccf_crypto::SigningKey::from_seed([5u8; 32]);
        let good = signature_entry("n1", &key, TxId::new(1, 2), [0u8; 32]);
        // A signature entry whose write set does not decode.
        let mut e = good.clone();
        e.public_ws.truncate(e.public_ws.len() - 1);
        assert!(matches!(SignaturePayload::from_entry(&e), Err(SignatureError::BadWriteSet(_))));
        // A signature entry that writes something else.
        let mut e = good.clone();
        e.public_ws = sample_entry().public_ws;
        assert_eq!(SignaturePayload::from_entry(&e), Err(SignatureError::MissingPayload));
        // A signature entry whose payload does not decode.
        let mut ws = WriteSet::new();
        ws.write(MapName::new(builtin::SIGNATURES), SIGNATURE_KEY.to_vec(), vec![1, 2, 3]);
        let mut e = good;
        e.public_ws = ws.encode();
        assert!(matches!(SignaturePayload::from_entry(&e), Err(SignatureError::BadPayload(_))));
    }

    #[test]
    fn stream_decoding_multiple_entries() {
        let e1 = sample_entry();
        let mut e2 = sample_entry();
        e2.txid = TxId::new(2, 8);
        let mut buf = e1.encode();
        buf.extend_from_slice(&e2.encode());
        let mut r = Reader::new(&buf);
        assert_eq!(LedgerEntry::decode_from(&mut r).unwrap(), e1);
        assert_eq!(LedgerEntry::decode_from(&mut r).unwrap(), e2);
        assert!(r.is_at_end());
    }
}
