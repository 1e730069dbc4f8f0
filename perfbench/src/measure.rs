//! Repetition, timing and summary statistics shared by every workload.

use crate::host;
use crate::report::Metrics;
use std::time::Instant;

/// Runs `f` and returns its result with the on-CPU seconds it took.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let c0 = host::cpu_s();
    let out = f();
    (out, host::cpu_s() - c0)
}

/// The `q`-quantile of a non-empty sample, interpolated linearly between
/// order statistics: `q = 0.5` is the median (the mean of the middle
/// pair when even), `q = 1` the maximum.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Timed repetitions of one workload within a run.
pub struct Measured<O> {
    /// The simulated output, identical in every repetition.
    pub output: O,
    /// On-CPU seconds of each timed repetition.
    pub cpu_s: Vec<f64>,
    /// On-CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident set when the last repetition ended, MiB.
    pub peak_rss_mib: f64,
}

impl<O> Measured<O> {
    /// `cpu_s`, `setup_s` and `peak_rss_mib` of the run. On a shared
    /// host the core runs identical work up to 1.8× faster in spells when
    /// its neighbours go quiet; how many spells a run catches sets its
    /// median, while the busy-neighbour speed recurs in every run. So
    /// `cpu_s` is the slowest repetition, and `setup_s` the 90th
    /// percentile of the set-ups, which are many and short enough for
    /// one interrupted set-up to be the slowest.
    pub fn host_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.put("cpu_s", quantile(&self.cpu_s, 1.0));
        m.put("setup_s", quantile(&self.setup_s, 0.9));
        m.put("peak_rss_mib", self.peak_rss_mib);
        m
    }

    /// How the timed repetitions and set-ups spread, for the summary.
    pub fn timing_lines(&self) -> Vec<String> {
        let in_order: Vec<String> = self.cpu_s.iter().map(|t| format!("{t:.3}")).collect();
        let ms = |q: f64| 1e3 * quantile(&self.setup_s, q);
        vec![
            format!(
                "on-CPU s per timed repetition, in order: {}",
                in_order.join(" ")
            ),
            format!(
                "on-CPU ms per set-up: min {:.3}, median {:.3}, p90 {:.3}, max {:.3} over {}",
                ms(0.0),
                ms(0.5),
                ms(0.9),
                ms(1.0),
                self.setup_s.len()
            ),
        ]
    }
}

/// Timed repetitions per run, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;

/// Measures a workload for `seconds` of wall time.
///
/// A round is `setups_per_round` timed set-ups followed by one timed
/// repetition on the inputs the last set-up built; set-ups thus sample
/// the same stretch of time as the repetitions. `rep` returns its
/// simulated output and the on-CPU seconds of its timed part; every
/// output must equal the first one (the simulation is deterministic),
/// else the run fails. An untimed set-up and an untimed warm-up
/// repetition come first, so no timed repetition pays for filling the
/// heap or for state a workload reuses (a fleet's `ClusterCtx`). The
/// clock for `seconds` starts before both.
pub fn measure<I, O: PartialEq>(
    seconds: f64,
    setups_per_round: usize,
    mut setup: impl FnMut() -> Result<I, String>,
    mut rep: impl FnMut(&mut I) -> Result<(O, f64), String>,
) -> Result<(Measured<O>, I), String> {
    let start = Instant::now();
    let mut inputs = setup()?;
    let first = rep(&mut inputs)?.0;
    let mut cpu_s = Vec::new();
    let mut setup_s = Vec::new();
    while cpu_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..setups_per_round {
            let (built, t) = cpu_timed(&mut setup);
            inputs = built?;
            setup_s.push(t);
        }
        let (out, t) = rep(&mut inputs)?;
        if out != first {
            return Err(format!(
                "repetition {} produced different simulated results",
                cpu_s.len() + 1
            ));
        }
        cpu_s.push(t);
    }
    Ok((
        Measured {
            output: first,
            cpu_s,
            setup_s,
            peak_rss_mib: host::peak_rss_mib(),
        },
        inputs,
    ))
}

/// What one workload run reports.
pub struct Outcome {
    /// Timed repetitions of the workload, each a checked simulation.
    pub attempted: u64,
    pub metrics: Metrics,
    /// The simulated outcome in detail, printed on a line of its own
    /// before the result line (and recorded by `seeds.py`).
    pub simulated: Metrics,
    /// Human-readable lines printed before the result line.
    pub summary: Vec<String>,
}

/// splitmix64: derives independent, well-mixed seeds from the
/// benchmark's `--seed` (so seeds 0, 1, 2, … are not correlated).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn measure_rounds_and_checks_outputs() {
        let mut setups = 0;
        let (m, inputs) = measure(
            0.0,
            2,
            || {
                setups += 1;
                Ok(setups)
            },
            |_| Ok((7, 0.5)),
        )
        .unwrap();
        assert_eq!(m.output, 7);
        assert_eq!(m.cpu_s, vec![0.5; MIN_REPS]);
        assert_eq!(m.setup_s.len(), 2 * MIN_REPS);
        assert_eq!(inputs, 1 + 2 * MIN_REPS as i32);
        let mut k = 0;
        let bad = measure(
            0.0,
            0,
            || Ok(()),
            |_| {
                k += 1;
                Ok((k, 0.1))
            },
        );
        assert!(bad.is_err());
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(0, 0), mix(0, 1));
        assert_ne!(mix(0, 0), mix(1, 0));
        assert_eq!(mix(5, 2), mix(5, 2));
    }
}
