//! Verifiable receipts (paper §3.5).
//!
//! A receipt proves — offline, to a third party holding only the service
//! identity — that a transaction was committed at a specific position in
//! the ledger: it carries the transaction's leaf components, the Merkle
//! path to a signed root, the signing node's signature, and the *service
//! endorsement* of the signing node's key (the certificate chain that roots
//! trust in the service identity).

use crate::entry::{verify_signature, EntryKind, LedgerEntry, TxId};
use crate::merkle::MerkleProof;
use ccf_crypto::{CryptoError, Digest32, Signature, VerifyingKey};
use ccf_kv::codec::{CodecError, Reader, Writer};

/// Why a receipt failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiptError {
    /// The Merkle path does not connect the leaf to the signed root.
    PathMismatch,
    /// The node signature over the root is invalid.
    BadNodeSignature,
    /// The node endorsement is not a valid signature by the service key.
    BadEndorsement,
    /// The receipt is malformed.
    Malformed,
}

impl std::fmt::Display for ReceiptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiptError::PathMismatch => write!(f, "merkle path does not reach the signed root"),
            ReceiptError::BadNodeSignature => write!(f, "invalid node signature over root"),
            ReceiptError::BadEndorsement => write!(f, "node key not endorsed by service identity"),
            ReceiptError::Malformed => write!(f, "malformed receipt"),
        }
    }
}

impl std::error::Error for ReceiptError {}

/// The bytes the service identity signs to endorse a node key
/// (the reproduction's stand-in for the X.509 node certificate).
pub fn endorsement_bytes(node_id: &str, node_public: &VerifyingKey) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.raw(b"ccf-node-endorsement");
    w.str(node_id);
    w.raw(&node_public.0);
    w.finish()
}

/// A self-contained, offline-verifiable receipt for one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// The proven transaction.
    pub txid: TxId,
    /// Kind of the proven entry.
    pub kind: EntryKind,
    /// Digest of the public write set.
    pub public_digest: Digest32,
    /// Digest of the encrypted private write set.
    pub private_digest: Digest32,
    /// Application claims digest (verifiable against out-of-band claims).
    pub claims_digest: Digest32,
    /// Merkle path from the leaf to the signed root.
    pub proof: MerkleProof,
    /// The signed root (from the covering signature transaction).
    pub root: Digest32,
    /// Transaction ID of the covering signature transaction.
    pub signature_txid: TxId,
    /// ID of the node that signed.
    pub node_id: String,
    /// The signing node's public key.
    pub node_public: VerifyingKey,
    /// The node's signature over the root at `signature_txid`.
    pub node_signature: Signature,
    /// Service-identity signature over (node_id, node_public).
    pub service_endorsement: Signature,
}

impl Receipt {
    /// Verifies the receipt against a trusted service identity.
    ///
    /// Checks, in order: that the proof is the RFC 6962 path for this
    /// transaction's position (leaf `txid.seqno - 1`) under the signed
    /// root (over the `signature_txid.seqno - 1` entries before it), the
    /// endorsement chain (service → node key), the node's signature over
    /// the root, and the Merkle path from this transaction's leaf to that
    /// root.
    pub fn verify(&self, service_identity: &VerifyingKey) -> Result<(), ReceiptError> {
        if self.txid.seqno.checked_sub(1) != Some(self.proof.leaf_index)
            || self.signature_txid.seqno.checked_sub(1) != Some(self.proof.tree_size)
            || !self.proof.has_rfc6962_shape()
        {
            return Err(ReceiptError::Malformed);
        }
        service_identity
            .verify(
                &endorsement_bytes(&self.node_id, &self.node_public),
                &self.service_endorsement,
            )
            .map_err(|_: CryptoError| ReceiptError::BadEndorsement)?;
        verify_signature(&self.node_public, &self.root, self.signature_txid, &self.node_signature)
            .map_err(|_| ReceiptError::BadNodeSignature)?;
        let leaf = LedgerEntry::leaf_bytes_from_digests(
            self.txid,
            self.kind,
            &self.public_digest,
            &self.private_digest,
            &self.claims_digest,
        );
        if !self.proof.verify(&leaf, &self.root) {
            return Err(ReceiptError::PathMismatch);
        }
        Ok(())
    }

    /// Serializes the receipt for transport.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.txid.view);
        w.u64(self.txid.seqno);
        w.u8(self.kind as u8);
        w.raw(&self.public_digest);
        w.raw(&self.private_digest);
        w.raw(&self.claims_digest);
        w.bytes(&self.proof.encode());
        w.raw(&self.root);
        w.u64(self.signature_txid.view);
        w.u64(self.signature_txid.seqno);
        w.str(&self.node_id);
        w.raw(&self.node_public.0);
        w.raw(&self.node_signature.0);
        w.raw(&self.service_endorsement.0);
        w.finish()
    }

    /// Decodes [`Receipt::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Receipt, CodecError> {
        let mut r = Reader::new(bytes);
        let txid = TxId::new(r.u64("receipt view")?, r.u64("receipt seqno")?);
        let kind = match r.u8("receipt kind")? {
            0 => EntryKind::User,
            1 => EntryKind::Signature,
            2 => EntryKind::Reconfiguration,
            _ => return Err(CodecError::BadValue { context: "receipt kind" }),
        };
        let public_digest = r.array::<32>("receipt public digest")?;
        let private_digest = r.array::<32>("receipt private digest")?;
        let claims_digest = r.array::<32>("receipt claims digest")?;
        let proof = MerkleProof::decode(r.bytes("receipt proof")?)?;
        let root = r.array::<32>("receipt root")?;
        let signature_txid = TxId::new(r.u64("receipt sig view")?, r.u64("receipt sig seqno")?);
        let node_id = r.str("receipt node id")?.to_string();
        let node_public = VerifyingKey(r.array::<32>("receipt node key")?);
        let node_signature = Signature(r.array::<64>("receipt node sig")?);
        let service_endorsement = Signature(r.array::<64>("receipt endorsement")?);
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "receipt trailing bytes" });
        }
        Ok(Receipt {
            txid,
            kind,
            public_digest,
            private_digest,
            claims_digest,
            proof,
            root,
            signature_txid,
            node_id,
            node_public,
            node_signature,
            service_endorsement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{signature_entry, SignaturePayload};
    use crate::merkle::MerkleTree;
    use ccf_crypto::chacha::ChaChaRng;
    use ccf_crypto::sha2::sha256;
    use ccf_crypto::SigningKey;

    /// Builds a small ledger of user entries, signs the root as node n0,
    /// and produces a receipt for `target` — the structural path every
    /// receipt in the full system follows.
    fn build_receipt(target: u64) -> (Receipt, VerifyingKey) {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let service = SigningKey::generate(&mut rng);
        let node = SigningKey::generate(&mut rng);

        let mut tree = MerkleTree::new();
        let mut entries = Vec::new();
        for i in 1..=10u64 {
            let e = LedgerEntry {
                txid: TxId::new(1, i),
                kind: EntryKind::User,
                public_ws: format!("pub-{i}").into_bytes(),
                private_ws_enc: format!("priv-{i}").into_bytes(),
                claims_digest: [0u8; 32],
            };
            tree.append(&e.leaf_bytes());
            entries.push(e);
        }
        let root = tree.root();
        let sig_txid = TxId::new(1, 11);
        let node_signature =
            SignaturePayload::from_entry(&signature_entry("n0", &node, sig_txid, root))
                .unwrap()
                .signature;
        let endorsement =
            service.sign(&endorsement_bytes("n0", &node.verifying_key()));

        let e = &entries[target as usize - 1];
        let receipt = Receipt {
            txid: e.txid,
            kind: e.kind,
            public_digest: sha256(&e.public_ws),
            private_digest: sha256(&e.private_ws_enc),
            claims_digest: e.claims_digest,
            proof: tree.prove(target - 1).unwrap(),
            root,
            signature_txid: sig_txid,
            node_id: "n0".into(),
            node_public: node.verifying_key(),
            node_signature,
            service_endorsement: endorsement,
        };
        (receipt, service.verifying_key())
    }

    #[test]
    fn receipt_verifies_offline() {
        for target in [1u64, 5, 10] {
            let (receipt, service) = build_receipt(target);
            receipt.verify(&service).unwrap();
            // Full transport roundtrip still verifies.
            let decoded = Receipt::decode(&receipt.encode()).unwrap();
            decoded.verify(&service).unwrap();
        }
    }

    #[test]
    fn receipt_rejects_wrong_service_identity() {
        let (receipt, _service) = build_receipt(3);
        let mut rng = ChaChaRng::seed_from_u64(99);
        let other = SigningKey::generate(&mut rng).verifying_key();
        assert_eq!(receipt.verify(&other), Err(ReceiptError::BadEndorsement));
    }

    #[test]
    fn receipt_rejects_tampered_components() {
        let (receipt, service) = build_receipt(3);
        let mut r = receipt.clone();
        r.public_digest[0] ^= 1;
        assert_eq!(r.verify(&service), Err(ReceiptError::PathMismatch));
        let mut r = receipt.clone();
        r.root[0] ^= 1;
        assert_eq!(r.verify(&service), Err(ReceiptError::BadNodeSignature));
        // Claiming another position contradicts the proof's leaf index.
        let mut r = receipt.clone();
        r.txid = TxId::new(1, 4);
        assert_eq!(r.verify(&service), Err(ReceiptError::Malformed));
        let mut r = receipt.clone();
        r.node_signature.0[0] ^= 1;
        assert_eq!(r.verify(&service), Err(ReceiptError::BadNodeSignature));
        let mut r = receipt.clone();
        r.node_id = "evil".into();
        assert_eq!(r.verify(&service), Err(ReceiptError::BadEndorsement));
    }

    #[test]
    fn receipt_rejects_a_proof_for_another_position_or_tree_size() {
        let (receipt, service) = build_receipt(3);
        // These three still reach the signed root: computing the root from
        // the path never looks at the index or the size.
        let mut r = receipt.clone();
        r.proof.leaf_index = 3;
        assert_eq!(r.verify(&service), Err(ReceiptError::Malformed));
        let mut r = receipt.clone();
        r.proof.tree_size = 11;
        assert_eq!(r.verify(&service), Err(ReceiptError::Malformed));
        let mut r = receipt.clone();
        r.proof.tree_size = 9;
        assert_eq!(r.verify(&service), Err(ReceiptError::Malformed));
        // A side flipped or a step added or dropped changes the shape.
        let mut r = receipt.clone();
        r.proof.path[0].sibling_on_left = !r.proof.path[0].sibling_on_left;
        assert_eq!(r.verify(&service), Err(ReceiptError::Malformed));
        let mut r = receipt.clone();
        r.proof.path.pop();
        assert_eq!(r.verify(&service), Err(ReceiptError::Malformed));
        let mut r = receipt.clone();
        r.proof.path.push(receipt.proof.path[0].clone());
        assert_eq!(r.verify(&service), Err(ReceiptError::Malformed));
        // The first and the last leaf pass the check too.
        for target in [1u64, 10] {
            let (r, service) = build_receipt(target);
            assert_eq!(r.verify(&service), Ok(()));
        }
    }

    #[test]
    fn receipt_decode_rejects_garbage() {
        assert!(Receipt::decode(&[0u8; 10]).is_err());
        let (receipt, _) = build_receipt(2);
        let mut bytes = receipt.encode();
        bytes.push(0);
        assert!(Receipt::decode(&bytes).is_err());
    }
}
