//! Harness arithmetic: order statistics, `/proc` parsers and the seeded
//! generator every workload draws its inputs from. Nothing here touches the
//! program under test.

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice (the
/// median of an even count is the mean of the middle pair).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` in any order; `0` for an empty sample, which is how a
/// layer that did no work on a workload reports.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(&sorted(values), 0.5)
    }
}

/// `max ÷ min − 1` of a sample: the spread figure of the `--repeat` table
/// and of `harness.round_spread`.
pub fn max_over_min(values: &[f64]) -> f64 {
    let s = sorted(values);
    match (s.first(), s.last()) {
        (Some(&lo), Some(&hi)) if lo > 0.0 => hi / lo - 1.0,
        _ => 0.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// by the exclusive method Python's `statistics.quantiles(v, n=4)` uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
    };
    (cut(3) - cut(1)) / cut(2)
}

/// Kernel clock ticks per second in `/proc/*/stat`: `USER_HZ`, fixed at 100
/// on Linux whatever the kernel's own tick rate is.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The command
/// name may hold spaces and parentheses, so fields count from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds this process (all threads, dead ones included)
/// has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("cannot read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("malformed /proc/self/stat") as f64 / USER_HZ
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("cannot read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("no VmHWM in /proc/self/status") as f64 / 1024.0
}

/// SplitMix64: the one source of workload randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed` (streams of one seed are
    /// independent: the clients of `plan_mix` each take one).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n ≥ 1`; the modulo bias is below 2⁻⁵⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_rounds_ignores_order_and_one_outlier() {
        assert_eq!(median(&[471.0, 458.0, 462.0]), 462.0);
        assert_eq!(median(&[458.0, 900.0, 462.0]), 462.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_figures() {
        assert!((max_over_min(&[100.0, 110.0, 105.0]) - 0.10).abs() < 1e-12);
        assert_eq!(max_over_min(&[0.0, 5.0]), 0.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (mics bench) x) R 1 4242 4242 0 -1 4194304 1580 0 0 0 \
                    731 29 0 0 20 0 5 0 1234567 9 9 9";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(760));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_the_kb_field() {
        let status = "Name:\tmics\nVmPeak:\t  999 kB\nVmHWM:\t   52340 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(52340));
        assert_eq!(parse_vm_hwm_kb("Name:\tmics\n"), None);
    }

    #[test]
    fn live_proc_readers_work_on_this_host() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(1, 0).shuffle(&mut items);
        let mut back = items.clone();
        back.sort_unstable();
        assert_eq!(back, (0..100).collect::<Vec<_>>());
        assert_ne!(items, back);
    }
}
