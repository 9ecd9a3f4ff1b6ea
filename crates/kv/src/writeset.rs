//! Write sets: the deterministic record of what a transaction changed.
//!
//! Each ledger transaction carries the set of updates — writes and removals
//! of single keys — applied atomically to the maps (§3.3). Updates are
//! subdivided into public (plain text on the ledger) and private
//! (encrypted with the ledger secret before leaving the enclave).

use crate::codec::{CodecError, Reader, Writer};
use crate::MapName;
use std::collections::BTreeMap;

/// Updates to one map: key → Some(value) for writes, None for removals.
/// A `BTreeMap` keyed by the raw key bytes gives deterministic encoding.
pub type MapWrites = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

/// The changes of one transaction, keyed by map name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteSet {
    /// Per-map updates, ordered by map name for deterministic encoding.
    pub maps: BTreeMap<MapName, MapWrites>,
}

impl WriteSet {
    /// An empty write set (read-only transaction).
    pub fn new() -> WriteSet {
        WriteSet::default()
    }

    /// True iff no map is updated.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty() || self.maps.values().all(|w| w.is_empty())
    }

    /// Records a write.
    pub fn write(&mut self, map: MapName, key: Vec<u8>, value: Vec<u8>) {
        self.maps.entry(map).or_default().insert(key, Some(value));
    }

    /// Records a removal.
    pub fn remove(&mut self, map: MapName, key: Vec<u8>) {
        self.maps.entry(map).or_default().insert(key, None);
    }

    /// Splits into (public, private) write sets by map visibility.
    pub fn split_visibility(self) -> (WriteSet, WriteSet) {
        let mut public = WriteSet::new();
        let mut private = WriteSet::new();
        for (name, writes) in self.maps {
            if writes.is_empty() {
                continue;
            }
            let target = if name.is_public() { &mut public } else { &mut private };
            target.maps.insert(name, writes);
        }
        (public, private)
    }

    /// Merges `other` into `self` (later writes win on key conflicts).
    pub fn merge(&mut self, other: WriteSet) {
        for (name, writes) in other.maps {
            self.maps.entry(name).or_default().extend(writes);
        }
    }

    /// Total number of key updates.
    pub fn update_count(&self) -> usize {
        self.maps.values().map(|w| w.len()).sum()
    }

    /// Deterministic binary encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Encodes into an existing writer.
    pub fn encode_into(&self, w: &mut Writer) {
        let non_empty: Vec<_> = self.maps.iter().filter(|(_, ws)| !ws.is_empty()).collect();
        w.u32(non_empty.len() as u32);
        for (name, writes) in non_empty {
            w.str(&name.0);
            w.u32(writes.len() as u32);
            for (key, value) in writes {
                w.bytes(key);
                w.opt_bytes(value.as_deref());
            }
        }
    }

    /// Decodes the [`WriteSet::encode`] layout.
    pub fn decode(bytes: &[u8]) -> Result<WriteSet, CodecError> {
        let mut r = Reader::new(bytes);
        let ws = WriteSet::decode_from(&mut r)?;
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "write set trailing bytes" });
        }
        Ok(ws)
    }

    /// Decodes from a reader (for embedding in larger structures).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<WriteSet, CodecError> {
        let map_count = r.u32("write set map count")?;
        let mut maps = BTreeMap::new();
        for _ in 0..map_count {
            let name = MapName::new(r.str("map name")?);
            let entry_count = r.u32("map entry count")?;
            let mut writes = MapWrites::new();
            for _ in 0..entry_count {
                let key = r.bytes("write key")?.to_vec();
                let value = r.opt_bytes("write value")?.map(|v| v.to_vec());
                writes.insert(key, value);
            }
            maps.insert(name, writes);
        }
        Ok(WriteSet { maps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WriteSet {
        let mut ws = WriteSet::new();
        ws.write(MapName::new("msgs"), b"k1".to_vec(), b"v1".to_vec());
        ws.write(MapName::new("public:ccf.gov.users.certs"), b"alice".to_vec(), b"cert".to_vec());
        ws.remove(MapName::new("msgs"), b"k2".to_vec());
        ws
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ws = sample();
        let decoded = WriteSet::decode(&ws.encode()).unwrap();
        assert_eq!(ws, decoded);
    }

    #[test]
    fn encoding_is_deterministic_regardless_of_insertion_order() {
        let mut a = WriteSet::new();
        a.write(MapName::new("m1"), b"a".to_vec(), b"1".to_vec());
        a.write(MapName::new("m2"), b"b".to_vec(), b"2".to_vec());
        let mut b = WriteSet::new();
        b.write(MapName::new("m2"), b"b".to_vec(), b"2".to_vec());
        b.write(MapName::new("m1"), b"a".to_vec(), b"1".to_vec());
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn split_visibility() {
        let (public, private) = sample().split_visibility();
        assert_eq!(public.maps.len(), 1);
        assert!(public.maps.keys().all(|n| n.is_public()));
        assert_eq!(private.maps.len(), 1);
        assert!(private.maps.keys().all(|n| n.is_private()));
        // Recombining preserves everything.
        let mut merged = public;
        merged.merge(private);
        assert_eq!(merged, sample());
    }

    #[test]
    fn empty_maps_are_skipped_in_encoding() {
        let mut ws = WriteSet::new();
        ws.maps.insert(MapName::new("empty"), MapWrites::new());
        assert!(ws.is_empty());
        let decoded = WriteSet::decode(&ws.encode()).unwrap();
        assert!(decoded.maps.is_empty());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.push(0xff);
        assert!(WriteSet::decode(&bytes).is_err());
    }

    #[test]
    fn update_count() {
        assert_eq!(sample().update_count(), 3);
    }
}
