//! Order statistics and the process-cost readers (CPU clock, peak RSS).

/// Value at quantile `q` of an ascending slice, linearly interpolated
/// between the two nearest ranks.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `values` in place and returns them (NaN-free input).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(sorted(values), 0.5)
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method) — the statistic the acceptance rule for
/// this benchmark is written in, so `aa` reports the same numbers.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    let data = sorted(values);
    let m = data.len();
    assert!(m >= 2, "quartiles need two samples");
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread the acceptance
/// rule bounds.
pub fn relative_spread(values: &mut [f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library std already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process (all threads, exited ones
/// included) has consumed, at nanosecond resolution. `/proc/self/stat`
/// would need no foreign call but counts in 10 ms ticks, too coarse to
/// price one 40 ms epoch.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, which the `cfg` pins), and the
    // call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let mut v = vec![16.0, 1.0, 4.0, 2.0, 8.0];
        assert_eq!(quartiles(&mut v), [1.5, 4.0, 12.0]);
        assert!((relative_spread(&mut v) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
