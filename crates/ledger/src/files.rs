//! Physical ledger files (paper §3.2).
//!
//! A node keeps one copy of its ledger: the consensus replica's log. The
//! files the host writes are a view over that log, cut into chunks that
//! each end with a signature transaction ([`closed_chunks`]). Entries
//! after the last signature form the open chunk, which is not persisted.
//! The host stores the files outside the trust boundary, so it can drop,
//! truncate or corrupt them. Everything read back is untrusted input and
//! is re-verified during disaster recovery (entry decoding, signature
//! chain).

use crate::entry::LedgerEntry;
use ccf_kv::codec::{CodecError, Reader, Writer};

const CHUNK_MAGIC: u32 = 0xCCF1_ED6E;

/// One physical ledger file, decoded: consecutive entries. A file the
/// node wrote ends with a signature transaction ([`Self::is_complete`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerChunk {
    /// Sequence number of the first entry.
    pub first_seqno: u64,
    /// The entries, in seqno order.
    pub entries: Vec<LedgerEntry>,
}

impl LedgerChunk {
    /// Decodes and structurally validates a chunk read from (untrusted)
    /// storage.
    pub fn decode(bytes: &[u8]) -> Result<LedgerChunk, CodecError> {
        let mut r = Reader::new(bytes);
        if r.u32("chunk magic")? != CHUNK_MAGIC {
            return Err(CodecError::BadValue { context: "chunk magic" });
        }
        let first_seqno = r.u64("chunk first seqno")?;
        let count = r.u32("chunk entry count")?;
        let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
        for i in 0..count {
            let entry = LedgerEntry::decode(r.bytes("chunk entry")?)?;
            if entry.txid.seqno != first_seqno + i as u64 {
                return Err(CodecError::BadValue { context: "chunk entry seqno" });
            }
            entries.push(entry);
        }
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "chunk trailing bytes" });
        }
        Ok(LedgerChunk { first_seqno, entries })
    }

    /// True when the chunk is closed by a signature transaction.
    pub fn is_complete(&self) -> bool {
        self.entries.last().is_some_and(|e| e.is_signature())
    }
}

/// Cuts a ledger (consecutive entries) into its closed chunks: each runs
/// up to and including a signature transaction. The unsigned suffix is
/// the open chunk and is left out, as it is lost on a crash.
pub fn closed_chunks<'a>(
    log: impl IntoIterator<Item = &'a LedgerEntry>,
) -> Vec<Vec<&'a LedgerEntry>> {
    let mut chunks = Vec::new();
    let mut open = Vec::new();
    for entry in log {
        open.push(entry);
        if entry.is_signature() {
            chunks.push(std::mem::take(&mut open));
        }
    }
    chunks
}

/// Serializes a chunk (consecutive entries, at least one) as stored on
/// disk; [`LedgerChunk::decode`] reads it back.
pub fn encode_chunk(entries: &[&LedgerEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(CHUNK_MAGIC);
    w.u64(entries.first().map_or(0, |e| e.txid.seqno));
    w.u32(entries.len() as u32);
    for e in entries {
        w.bytes(&e.encode());
    }
    w.finish()
}

/// Reads a set of persisted chunk blobs back into an ordered entry stream,
/// validating structure and sequence continuity. Used by disaster recovery
/// and by new nodes catching up from files. Tolerates a truncated tail
/// (missing later chunks) but rejects gaps and corruption.
pub fn read_chunks(blobs: &[Vec<u8>]) -> Result<Vec<LedgerEntry>, CodecError> {
    let mut chunks: Vec<LedgerChunk> = Vec::with_capacity(blobs.len());
    for blob in blobs {
        chunks.push(LedgerChunk::decode(blob)?);
    }
    chunks.sort_by_key(|c| c.first_seqno);
    let mut entries = Vec::new();
    let mut expected = 1u64;
    for chunk in chunks {
        if chunk.first_seqno != expected {
            return Err(CodecError::BadValue { context: "chunk sequence gap" });
        }
        expected += chunk.entries.len() as u64;
        entries.extend(chunk.entries);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{EntryKind, TxId};

    fn entry(view: u64, seqno: u64, kind: EntryKind) -> LedgerEntry {
        LedgerEntry {
            txid: TxId::new(view, seqno),
            kind,
            public_ws: format!("ws-{seqno}").into_bytes(),
            private_ws_enc: Vec::new(),
            claims_digest: [0u8; 32],
        }
    }

    /// A log of `upto` entries with a signature every `sig_every`.
    fn log(upto: u64, sig_every: u64) -> Vec<LedgerEntry> {
        (1..=upto)
            .map(|s| {
                let kind = if s % sig_every == 0 { EntryKind::Signature } else { EntryKind::User };
                entry(1, s, kind)
            })
            .collect()
    }

    fn blobs(log: &[LedgerEntry]) -> Vec<Vec<u8>> {
        closed_chunks(log).iter().map(|c| encode_chunk(c)).collect()
    }

    fn first_seqnos(log: &[LedgerEntry]) -> Vec<u64> {
        closed_chunks(log).iter().map(|c| c[0].txid.seqno).collect()
    }

    #[test]
    fn chunks_close_at_signatures() {
        let l = log(10, 5);
        let chunks = closed_chunks(&l);
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [5, 5]);
        assert!(chunks.iter().all(|c| c.last().unwrap().is_signature()));
        assert_eq!(first_seqnos(&l), [1, 6]);

        // 11 and 12 are unsigned: the open chunk is not persisted.
        let l = log(12, 5);
        assert_eq!(closed_chunks(&l).len(), 2);
        let persisted: usize = closed_chunks(&l).iter().map(Vec::len).sum();
        assert_eq!(persisted, 10);
    }

    #[test]
    fn chunk_encode_decode() {
        let l = log(5, 5);
        let blob = encode_chunk(&closed_chunks(&l)[0]);
        let decoded = LedgerChunk::decode(&blob).unwrap();
        assert_eq!(decoded, LedgerChunk { first_seqno: 1, entries: l });
        assert!(decoded.is_complete());
        // Corruption rejected.
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert!(LedgerChunk::decode(&bad).is_err());
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad.truncate(last);
        assert!(LedgerChunk::decode(&bad).is_err());
    }

    #[test]
    fn read_chunks_reassembles_in_order() {
        let l = log(20, 4);
        let mut blobs = blobs(&l);
        blobs.reverse(); // order on disk is arbitrary
        let entries = read_chunks(&blobs).unwrap();
        assert_eq!(entries, l);
    }

    #[test]
    fn read_chunks_rejects_gaps() {
        let mut blobs = blobs(&log(20, 4));
        blobs.remove(1); // lose chunk 5..8
        assert!(read_chunks(&blobs).is_err());
    }

    #[test]
    fn read_chunks_tolerates_missing_tail() {
        let mut blobs = blobs(&log(20, 4));
        blobs.pop(); // final chunk lost — best-effort recovery still works
        let entries = read_chunks(&blobs).unwrap();
        assert_eq!(entries.len(), 16);
    }

    // Rollback truncates the log itself; the chunks follow because they
    // are cut from it afresh.

    #[test]
    fn truncate_within_open_suffix() {
        let mut l = log(12, 5); // chunks [1-5],[6-10], open [11,12]
        l.truncate(11);
        assert_eq!(first_seqnos(&l), [1, 6]);
        assert_eq!(blobs(&l), blobs(&log(10, 5)));
    }

    #[test]
    fn truncate_into_closed_chunk_reopens_it() {
        let mut l = log(12, 5);
        l.truncate(8);
        assert_eq!(first_seqnos(&l), [1]); // 6, 7, 8 are open again
        // Appending a new signature closes the reopened chunk again.
        l.push(entry(2, 9, EntryKind::Signature));
        assert_eq!(first_seqnos(&l), [1, 6]);
        let reopened = LedgerChunk::decode(&blobs(&l)[1]).unwrap();
        assert_eq!(reopened.entries.len(), 4);
        assert!(reopened.is_complete());
    }

    #[test]
    fn truncate_everything() {
        let mut l = log(12, 5);
        l.clear();
        assert!(closed_chunks(&l).is_empty());
        l = log(5, 5);
        assert_eq!(first_seqnos(&l), [1]);
    }

    #[test]
    fn log_from_a_snapshot_starts_its_first_chunk_after_the_base() {
        let l: Vec<LedgerEntry> = log(12, 4).split_off(6); // base 6: 7..12
        assert_eq!(first_seqnos(&l), [7, 9]);
        assert_eq!(LedgerChunk::decode(&blobs(&l)[0]).unwrap().first_seqno, 7);
    }
}
