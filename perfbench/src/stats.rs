//! Small measurement helpers: percentiles, process CPU time, and the
//! accounting of entries shipped to backups against entries they needed.

/// Nearest-rank percentile of an unsorted sample: the smallest value with
/// at least `q` of the sample at or below it. 0 for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Most slices a sample is split into by [`sliced_percentile`].
const MAX_SLICES: usize = 10;

/// The `q` percentile of a sample in time order, made robust to short
/// bursts of interference from other tenants: the sample is cut into
/// consecutive slices, as many as keep at least ten values beyond `q` in
/// each (at most [`MAX_SLICES`]), and the median of the slices'
/// percentiles is returned.
pub fn sliced_percentile(values: &[f64], q: f64) -> f64 {
    let slices = ((values.len() as f64 * (1.0 - q) / 10.0) as usize).clamp(1, MAX_SLICES);
    let size = values.len().div_ceil(slices).max(1);
    let mut each: Vec<f64> = values
        .chunks(size)
        .map(|c| percentile(&mut c.to_vec(), q))
        .collect();
    percentile(&mut each, 0.5)
}

/// Linux reports `/proc/<pid>/stat` times in units of `USER_HZ`, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field is the process name in parentheses and may itself
/// contain spaces and `)`, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds this process has used so far.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

/// Seconds the hypervisor ran other guests while the machine's CPUs
/// were runnable (the `steal` column of the `cpu` line of `/proc/stat`),
/// summed over CPUs.
pub fn parse_steal_seconds(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / USER_HZ)
}

/// Steal time so far; 0 where `/proc/stat` has no steal column.
pub fn host_steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_seconds(&s))
        .unwrap_or(0.0)
}

/// Counts the entries the primary ships to each backup against the ones
/// each backup newly acknowledges. `shipped / useful` is 1.0 when no entry
/// is sent twice to the same backup.
#[derive(Clone, Debug, Default)]
pub struct Shipping {
    acked: Vec<u64>,
    /// Entries carried by `AppendEntries` messages.
    pub shipped: u64,
    /// Entries that advanced some backup's acknowledged seqno.
    pub useful: u64,
}

impl Shipping {
    /// Starts from the seqnos each node has already acknowledged.
    pub fn new(acked: Vec<u64>) -> Shipping {
        Shipping {
            acked,
            shipped: 0,
            useful: 0,
        }
    }

    /// Zeroes the counts, keeping what each node has acknowledged.
    pub fn restart(&mut self) {
        self.shipped = 0;
        self.useful = 0;
    }

    /// An `AppendEntries` carrying `entries` entries was delivered.
    pub fn ship(&mut self, entries: u64) {
        self.shipped += entries;
    }

    /// A successful acknowledgement up to `last_seqno` arrived from `node`.
    pub fn ack(&mut self, node: usize, last_seqno: u64) {
        let prev = self.acked[node];
        self.acked[node] = prev.max(last_seqno);
        self.useful += self.acked[node] - prev;
    }

    /// Shipped entries per useful entry (0 when nothing was useful).
    pub fn ratio(&self) -> f64 {
        if self.useful == 0 {
            0.0
        } else {
            self.shipped as f64 / self.useful as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.90), 90.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut w, 0.99), 990.0);
        let mut small = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut small, 0.5), 2.0);
        assert_eq!(percentile(&mut small, 0.99), 3.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn sliced_percentiles_ignore_a_burst() {
        // 10,000 values of 1.0 with a burst of 200 slow ones in one place:
        // the pooled p99 lands in the burst, the sliced one does not.
        let mut v = vec![1.0; 10_000];
        for x in &mut v[3_000..3_200] {
            *x = 50.0;
        }
        assert_eq!(percentile(&mut v.clone(), 0.99), 50.0);
        assert_eq!(sliced_percentile(&v, 0.99), 1.0);
        // Too few values beyond p99 for two slices: the pooled percentile.
        let w: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(sliced_percentile(&w, 0.99), 990.0);
        // Ten slices of a steady ramp agree with the pooled median.
        let r: Vec<f64> = (0..10_000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(sliced_percentile(&r, 0.5), 49.0);
        assert_eq!(sliced_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn stat_parser_handles_awkward_process_names() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        let plain = format!("42 (perfbench) {tail}");
        assert_eq!(parse_cpu_seconds(&plain), Some(3.0));
        let spaced = format!("42 (my bench) x) {tail}");
        assert_eq!(parse_cpu_seconds(&spaced), Some(3.0));
        let parens = format!("42 ()) ((a) {tail}");
        assert_eq!(parse_cpu_seconds(&parens), Some(3.0));
        assert_eq!(parse_cpu_seconds("42 (truncated) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_column() {
        let stat = "cpu  279978 0 12089 795113 432 0 3675 47913 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_seconds(stat), Some(479.13));
        assert_eq!(parse_steal_seconds("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal_seconds("cpu  1 2 3\n"), None);
    }

    #[test]
    fn own_cpu_time_is_readable() {
        let a = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_seconds() >= a);
    }

    #[test]
    fn shipping_counts_resent_entries_as_waste() {
        let mut s = Shipping::new(vec![10, 10, 10]);
        // Entries 11..=20 to both backups, each acknowledged once.
        s.ship(10);
        s.ship(10);
        s.ack(1, 20);
        s.ack(2, 20);
        assert_eq!((s.shipped, s.useful), (20, 20));
        assert_eq!(s.ratio(), 1.0);
        // The same 5 entries sent twice to backup 1: the second copy and
        // its duplicate acknowledgement add nothing.
        s.ship(5);
        s.ship(5);
        s.ack(1, 25);
        s.ack(1, 25);
        // A stale acknowledgement does not move the count back.
        s.ack(2, 15);
        assert_eq!((s.shipped, s.useful), (30, 25));
        assert_eq!(s.ratio(), 30.0 / 25.0);
        // After a restart only new progress counts.
        s.restart();
        s.ship(5);
        s.ship(5);
        s.ack(1, 30);
        s.ack(2, 25);
        assert_eq!((s.shipped, s.useful), (10, 10));
        assert_eq!(Shipping::new(vec![0]).ratio(), 0.0);
    }
}
