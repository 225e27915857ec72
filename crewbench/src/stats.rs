//! Latency percentiles with failures counted, medians, and metric names.

/// Nearest-rank `q`-quantile (`0 < q <= 1`) over every attempted instance.
///
/// `terminal` holds the arrival→terminal latencies of the instances that
/// finished; `stalled` the waits the unfinished ones had accrued when the
/// run was cut at the horizon. A stalled instance ranks after every
/// terminal one, whatever the values, and never reads below the slowest
/// terminal instance: it misses any latency limit a terminal instance
/// meets. `None` when nothing was attempted.
pub fn quantile_with_stalls(terminal: &[u64], stalled: &[u64], q: f64) -> Option<u64> {
    let n = terminal.len() + stalled.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    let mut done = terminal.to_vec();
    done.sort_unstable();
    if rank < done.len() {
        return Some(done[rank]);
    }
    let floor = done.last().copied().unwrap_or(0);
    let mut waiting = stalled.to_vec();
    waiting.sort_unstable();
    Some(waiting[rank - done.len()].max(floor))
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_without_stalls_are_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_with_stalls(&lat, &[], 0.50), Some(50));
        assert_eq!(quantile_with_stalls(&lat, &[], 0.99), Some(99));
        assert_eq!(quantile_with_stalls(&lat, &[], 1.0), Some(100));
        assert_eq!(quantile_with_stalls(&[], &[], 0.5), None);
    }

    #[test]
    fn a_stalled_instance_sits_beyond_every_limit() {
        // 98 fast instances, one very slow terminal one, one stall whose
        // accrued wait reads lower than the slow terminal latency.
        let mut lat: Vec<u64> = vec![10; 98];
        lat.push(5_000);
        let stalled = [700];
        assert_eq!(quantile_with_stalls(&lat, &stalled, 0.99), Some(5_000));
        // The stall takes the last rank and never reads below the slowest
        // terminal instance.
        assert_eq!(quantile_with_stalls(&lat, &stalled, 1.0), Some(5_000));
        // Once stalls reach the percentile's rank, every limit is missed.
        let stalled: Vec<u64> = vec![990_000; 2];
        let lat: Vec<u64> = vec![10; 98];
        assert_eq!(quantile_with_stalls(&lat, &stalled, 0.99), Some(990_000));
        assert_eq!(quantile_with_stalls(&lat, &stalled, 0.98), Some(10));
        // All stalled: the median itself misses.
        assert_eq!(quantile_with_stalls(&[], &[900, 800], 0.5), Some(800));
    }

    #[test]
    fn stalls_raise_the_median_when_they_are_the_majority() {
        let lat = [30, 31, 32];
        let stalled = [950_000, 960_000, 970_000, 980_000];
        assert_eq!(quantile_with_stalls(&lat, &stalled, 0.5), Some(950_000));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_name_alphabet() {
        for ok in ["p50_ticks", "sim.ns_per_event", "self_ms.sim", "0x", "a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/y",
            "ünï",
            "colon:y",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
