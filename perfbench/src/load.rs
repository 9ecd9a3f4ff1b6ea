//! The operation schedule: a pure function of the seed and the operation's
//! index, so two runs with the same seed offer the same inputs in the same
//! order whatever their timing.

/// Keys the workloads write and read (each is prefilled once).
pub const KEYS: u64 = 1_000;
/// Writes made during set-up, one per key, in key order. Operation ids
/// below this are prefill writes; the workload's ops start at this id.
pub const PREFILL: u64 = KEYS;

/// What an operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /log` on the primary.
    Write,
    /// `GET /log?id=<key>` on a backup (on the only node of a 1-node run).
    Read,
    /// `GET /node/receipt` for one of the prefill writes.
    Receipt,
}

/// The share of each kind, in parts per thousand (they sum to 1000).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Writes per thousand ops.
    pub write: u64,
    /// Reads per thousand ops.
    pub read: u64,
}

/// One operation of the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// The operation's id: its index in the schedule.
    pub id: u64,
    /// What it does.
    pub kind: Kind,
    /// The key written or read.
    pub key: u64,
    /// For a receipt: the index of the prefill write it is for.
    pub target: u64,
}

/// SplitMix64's output function: a bijective 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `id`-th operation for `seed`. Prefill ids write their own key.
pub fn op_at(seed: u64, mix: Mix, id: u64) -> Op {
    if id < PREFILL {
        return Op {
            id,
            kind: Kind::Write,
            key: id,
            target: 0,
        };
    }
    let base = mix64(mix64(seed) ^ id);
    let roll = mix64(base) % 1000;
    let kind = if roll < mix.write {
        Kind::Write
    } else if roll < mix.write + mix.read {
        Kind::Read
    } else {
        Kind::Receipt
    };
    Op {
        id,
        kind,
        key: mix64(base ^ 1) % KEYS,
        target: mix64(base ^ 2) % PREFILL,
    }
}

/// The 20-character message written by operation `id`: it carries the id
/// so that a read can be traced back to the write that produced it.
pub fn message(id: u64) -> String {
    format!("m{id:019}")
}

/// The operation id a message was written by, if it is well formed.
pub fn message_id(msg: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(msg).ok()?;
    if text.len() != 20 {
        return None;
    }
    text.strip_prefix('m')?.parse().ok()
}

/// True when `value`, read back for `key`, was written to `key` by a write
/// the schedule for `seed` contains.
pub fn value_matches_key(seed: u64, mix: Mix, key: u64, value: &[u8]) -> bool {
    match message_id(value) {
        Some(id) => {
            let op = op_at(seed, mix, id);
            op.kind == Kind::Write && op.key == key
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        write: 50,
        read: 900,
    };

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a: Vec<Op> = (0..5_000).map(|i| op_at(7, MIX, i)).collect();
        let b: Vec<Op> = (0..5_000).map(|i| op_at(7, MIX, i)).collect();
        assert_eq!(a, b);
        let c: Vec<Op> = (0..5_000).map(|i| op_at(8, MIX, i)).collect();
        assert_ne!(a[PREFILL as usize..], c[PREFILL as usize..]);
        // Prefill is the same for every seed: one write per key.
        assert_eq!(a[..PREFILL as usize], c[..PREFILL as usize]);
        assert!(a[..PREFILL as usize]
            .iter()
            .enumerate()
            .all(|(i, op)| op.key == i as u64));
    }

    #[test]
    fn schedule_follows_the_mix() {
        let n = 200_000;
        let ops: Vec<Op> = (PREFILL..PREFILL + n).map(|i| op_at(3, MIX, i)).collect();
        let share = |k: Kind| ops.iter().filter(|o| o.kind == k).count() as f64 / n as f64;
        assert!((share(Kind::Write) - 0.05).abs() < 0.005);
        assert!((share(Kind::Read) - 0.90).abs() < 0.005);
        assert!((share(Kind::Receipt) - 0.05).abs() < 0.005);
        assert!(ops.iter().all(|o| o.key < KEYS && o.target < PREFILL));
    }

    #[test]
    fn messages_carry_their_write() {
        let m = message(1_234_567);
        assert_eq!(m.len(), 20);
        assert_eq!(message_id(m.as_bytes()), Some(1_234_567));
        assert_eq!(message_id(b"twenty.characters.xx"), None);
        let write = (PREFILL..)
            .map(|i| op_at(5, MIX, i))
            .find(|o| o.kind == Kind::Write)
            .unwrap();
        assert!(value_matches_key(
            5,
            MIX,
            write.key,
            message(write.id).as_bytes()
        ));
        assert!(!value_matches_key(
            5,
            MIX,
            (write.key + 1) % KEYS,
            message(write.id).as_bytes()
        ));
        assert!(value_matches_key(5, MIX, 17, message(17).as_bytes()));
    }
}
