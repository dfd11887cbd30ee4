//! Small statistics and host helpers the benchmark reports with: medians and
//! quartiles over repeated runs, the tail-percentile rule for per-cell times,
//! the FNV-1a digest of a report, and peak RSS from `/proc/self/status`.

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile, as Python's `statistics.quantiles(values,
    /// n=4)` gives them; `None` with fewer than two samples.
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        Some(Summary {
            median: median(&sorted)?,
            min: *sorted.first()?,
            max: *sorted.last()?,
            quartiles: quartiles(&sorted).map(|[q1, _, q3]| (q1, q3)),
            n: sorted.len(),
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median of already sorted samples; `None` when there are none.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three cut points of already sorted samples, by the "exclusive" method
/// Python's `statistics.quantiles(values, n=4)` uses, so the spreads this
/// benchmark reports match the ones computed from its printed values.
/// `None` with fewer than two samples.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// The highest whole percentile of `n` samples that still has at least ten
/// samples above it (nearest-rank), so a reported tail rests on more than a
/// handful of values; `None` below 11 samples, where no percentile does.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100u32).rev().find(|&p| n - nearest_rank(n, p) >= 10)
}

/// The nearest-rank position (1-based) of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100)
}

/// Percentile `p` of already sorted, non-empty samples, by nearest rank.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[nearest_rank(sorted.len(), p).max(1) - 1]
}

/// The 64-bit FNV-1a hash: a stable digest of a report's bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB; `None` when the line is missing or malformed.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

/// This process's peak resident set in KiB; `None` off Linux.
pub fn peak_rss_kib() -> Option<u64> {
    parse_vmhwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&values), Some(5.5));
        assert_eq!(median(&values[..3]), Some(2.0));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0]), None);
        let summary = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((summary.median, summary.min, summary.max), (2.0, 1.0, 3.0));
        assert_eq!(summary.n, 3);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_above_it() {
        for n in 0..11 {
            assert_eq!(tail_percentile(n), None, "n={n}");
        }
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(432), Some(97));
        let samples: Vec<f64> = (1..=432).map(f64::from).collect();
        let p97 = percentile(&samples, 97);
        assert_eq!(p97, 420.0);
        assert!(samples.iter().filter(|&&x| x > p97).count() >= 10);
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn vmhwm_is_parsed_in_kib_and_absent_gives_none() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  20000 kB\nVmHWM:\t   14336 kB\nVmRSS:\t 12000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(14336));
        assert_eq!(
            parse_vmhwm_kib("Name:\tbenchmark\nVmRSS:\t 12000 kB\n"),
            None
        );
        assert_eq!(parse_vmhwm_kib("VmHWM:\tlots kB\n"), None);
    }
}
