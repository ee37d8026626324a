//! Criterion benchmark crate (see `benches/`), plus what the `BENCH_*.json`
//! emitters in `src/bin/` share.

/// The label a bench row carries for the commit it was measured at:
/// `explicit` if given, else `git describe --always --dirty`.
pub fn commit_label(explicit: Option<String>) -> String {
    explicit.unwrap_or_else(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    })
}

/// The rows of an earlier emitter output, for a before/after file:
/// emitters write such rows one per line, each led by its commit, and
/// this re-reads exactly those lines.
pub fn rows_led_by_commit(path: &str) -> Vec<String> {
    commit_led(read_before_file(path).lines().map(str::trim))
}

/// [`rows_led_by_commit`] restricted to one section of the file — the
/// lines between `"<section>": [` and its closing `]` — for emitters
/// that keep before/after rows in more than one array.
pub fn section_rows_led_by_commit(path: &str, section: &str) -> Vec<String> {
    let open = format!("\"{section}\": [");
    commit_led(
        read_before_file(path)
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != open)
            .skip(1)
            .take_while(|l| !l.starts_with(']')),
    )
}

fn read_before_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read before-rows file {path}: {e}"))
}

fn commit_led<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<String> {
    lines
        .map(|l| l.trim_end_matches(','))
        .filter(|l| l.starts_with("{\"commit\":"))
        .map(str::to_string)
        .collect()
}

/// `[q1, median, q3]` of the samples: the sorted sample at zero-based
/// rank `q·n/4` (integer division) for `q = 1, 2, 3`, so an even `n`
/// reports the upper of its two middle samples as the median. Every
/// emitter's `q1`/`median`/`q3` keys hold this rank.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| sorted[q * sorted.len() / 4])
}

/// Exact nearest-rank quantile of ascending latency samples, in
/// nanoseconds: the sample at rank `round(q·(n − 1))`, 0 for no samples.
pub fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_take_rank_q_n_over_4() {
        // Samples are their own ranks, fed in descending order.
        for (n, ranks) in [
            (1, [0, 0, 0]),
            (3, [0, 1, 2]),
            (4, [1, 2, 3]),
            (9, [2, 4, 6]),
            (16, [4, 8, 12]),
        ] {
            let samples: Vec<f64> = (0..n).rev().map(f64::from).collect();
            assert_eq!(quartiles(&samples), ranks.map(f64::from), "n = {n}");
        }
    }

    #[test]
    fn quantile_ns_is_nearest_rank() {
        let sorted: Vec<u64> = (0..101).collect();
        assert_eq!(quantile_ns(&sorted, 0.5), 50);
        assert_eq!(quantile_ns(&sorted, 0.99), 99);
        assert_eq!(quantile_ns(&sorted, 1.0), 100);
        assert_eq!(quantile_ns(&[7, 9], 0.5), 9, "a tie rounds up");
        assert_eq!(quantile_ns(&[], 0.5), 0);
    }
}
