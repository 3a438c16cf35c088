//! Percentiles, and the process/host counters read from `/proc`.

use std::time::Duration;

/// Fewest samples that must lie above a reported percentile. A tail
/// percentile resting on fewer samples moves with every run.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank
/// rule — the smallest sample with at least `q·n` samples at or below
/// it — or `None` when fewer than [`MIN_BEYOND`] samples lie above
/// that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Milliseconds, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Clock ticks per second of the `utime`/`stime` fields in `/proc`
/// (`USER_HZ`, fixed at 100 by the Linux ABI on every architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` file: fields 14
/// and 15, counted after the parenthesised command name (which may
/// itself contain spaces).
fn stat_cpu_s(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so utime (14) is index 11.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU seconds used by the whole process so far, exited threads
/// included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time from the aggregate `cpu` line of `/proc/stat`:
/// `(steal, total)` in ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return HostCpu::default();
        };
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted inside user/nice.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostCpu {
            steal: v.get(7).copied().unwrap_or(0),
            total: v.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`,
    /// in percent.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    text.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            matches!(k.trim(), "model name" | "Model" | "cpu model").then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_hand_computed_cases() {
        // n = 20: the median is rank 10 (value 10), with 10 samples above.
        assert_eq!(percentile(&one_to(20), 0.5), Some(10.0));
        // n = 21: rank ceil(10.5) = 11, 10 samples above.
        assert_eq!(percentile(&one_to(21), 0.5), Some(11.0));
        // n = 100: p90 is rank 90, exactly 10 above.
        assert_eq!(percentile(&one_to(100), 0.9), Some(90.0));
        // n = 200: p90 is rank 180.
        assert_eq!(percentile(&one_to(200), 0.9), Some(180.0));
        // Order of the input does not matter.
        let mut shuffled = one_to(40);
        shuffled.reverse();
        shuffled.swap(3, 17);
        assert_eq!(percentile(&shuffled, 0.5), Some(20.0));
    }

    #[test]
    fn too_few_samples_beyond_is_not_reported() {
        // n = 99: p90 is rank ceil(89.1) = 90, only 9 samples above.
        assert_eq!(percentile(&one_to(99), 0.9), None);
        // n = 19: the median is rank 10 with 9 samples above.
        assert_eq!(percentile(&one_to(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        // p99 needs at least 1000 samples.
        assert_eq!(percentile(&one_to(999), 0.99), None);
        assert_eq!(percentile(&one_to(1000), 0.99), Some(990.0));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {}
        assert!(process_cpu_s() >= thread_cpu_s());
        let a = HostCpu::now();
        assert!(a.total > 0);
        assert!(a.steal_pct_since(&a) == 0.0);
    }
}
