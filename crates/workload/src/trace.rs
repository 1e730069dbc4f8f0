//! Request trace generation (paper §9.2).
//!
//! LS clients "send requests by replaying Baidu's Apollo trace", a
//! real-time autonomous-driving inference trace with strong periodic
//! bursts. The trace itself is proprietary; this generator reproduces its
//! load shape: a non-homogeneous Poisson process whose rate alternates
//! between a base level and periodic bursts (sensor frames fan out to
//! several DNNs at once). The paper's two scenarios scale the same trace:
//! *heavy* replays it as-is, *light* halves the average rate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trace shape parameters.
///
/// Two superimposed modulations on a Poisson base rate:
///
/// * **bursts** — a square wave (`burst_factor`× the base rate for
///   `burst_duty` of every `burst_period_s` cycle), the Apollo trace's
///   sensor-frame grouping;
/// * **diurnal swing** — a sinusoid scaling the whole profile by
///   `1 ± diurnal_depth` over `diurnal_period_s`, the day/night load
///   shape a fleet sees. Depth 0 (the default everywhere, including
///   [`apollo_like`](Self::apollo_like)) disables it and reproduces the
///   pre-diurnal generator byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Long-run average request rate, Hz (of the un-swung profile).
    pub mean_rate_hz: f64,
    /// Peak-to-mean rate ratio during bursts.
    pub burst_factor: f64,
    /// Burst cycle period, seconds.
    pub burst_period_s: f64,
    /// Fraction of each cycle spent in the burst.
    pub burst_duty: f64,
    /// Amplitude of the diurnal sinusoid in `[0, 1)`: the instantaneous
    /// rate swings between `(1 - depth)` and `(1 + depth)` times the
    /// burst profile. 0 disables the modulation entirely.
    pub diurnal_depth: f64,
    /// Diurnal cycle period, seconds (only meaningful with a non-zero
    /// depth; pick it comparable to the simulated horizon so a run sees
    /// the swing).
    pub diurnal_period_s: f64,
}

impl TraceConfig {
    /// The Apollo-like default per LS service: 55 req/s average with 1.8×
    /// bursts every 700 ms (≈ sensor frame grouping). Eight LS services at
    /// this rate put the GPU's LS path at ~45% mean utilization with
    /// bursts approaching saturation — the operating point where the
    /// paper's heavy scenario differentiates the sharing systems without
    /// driving every queue to divergence.
    pub fn apollo_like() -> Self {
        Self {
            mean_rate_hz: 55.0,
            burst_factor: 1.8,
            burst_period_s: 0.7,
            burst_duty: 0.3,
            diurnal_depth: 0.0,
            diurnal_period_s: 60.0,
        }
    }

    /// Scales the average rate (×0.5 = the paper's light scenario).
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            mean_rate_hz: self.mean_rate_hz * factor,
            ..self
        }
    }

    /// Replaces the burst shape — the trace-shape sensitivity knob for
    /// sweeps (`factor` 1 or `duty` 0 flattens the trace into a plain
    /// Poisson process).
    pub fn with_bursts(self, factor: f64, duty: f64) -> Self {
        debug_assert!(factor >= 1.0 && (0.0..=1.0).contains(&duty));
        Self {
            burst_factor: factor,
            burst_duty: duty,
            ..self
        }
    }

    /// Adds a diurnal swing of the given amplitude (`0 ≤ depth < 1`) and
    /// period. `depth` 0 turns it back off.
    pub fn with_diurnal(self, depth: f64, period_s: f64) -> Self {
        debug_assert!((0.0..1.0).contains(&depth) && period_s > 0.0);
        Self {
            diurnal_depth: depth,
            diurnal_period_s: period_s,
            ..self
        }
    }

    /// Instantaneous rate at time `t_us`.
    pub fn rate_at(&self, t_us: f64) -> f64 {
        let period_us = self.burst_period_s * 1e6;
        let phase = (t_us % period_us) / period_us;
        // Solve base rate so the long-run mean matches `mean_rate_hz`:
        // mean = base × (1 - duty) + base × factor × duty.
        let base =
            self.mean_rate_hz / (1.0 - self.burst_duty + self.burst_factor * self.burst_duty);
        let bursty = if phase < self.burst_duty {
            base * self.burst_factor
        } else {
            base
        };
        // Skipped entirely at depth 0 so the pre-diurnal arrival streams
        // stay byte-identical (no `sin` rounding in the thinning ratio).
        if self.diurnal_depth == 0.0 {
            return bursty;
        }
        let diurnal_phase = t_us / (self.diurnal_period_s * 1e6);
        bursty * (1.0 + self.diurnal_depth * (diurnal_phase * std::f64::consts::TAU).sin())
    }

    /// The largest instantaneous rate the profile can reach — the
    /// homogeneous rate [`generate`] thins from.
    fn peak_rate_hz(&self) -> f64 {
        let peak = self.rate_at(0.0).max(self.mean_rate_hz * self.burst_factor);
        if self.diurnal_depth == 0.0 {
            peak
        } else {
            peak * (1.0 + self.diurnal_depth)
        }
    }
}

/// Generates arrival times (µs, sorted) over `[0, horizon_us)` by thinning
/// a homogeneous Poisson process at the peak rate.
pub fn generate(cfg: &TraceConfig, horizon_us: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let peak_hz = cfg.peak_rate_hz();
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Exponential inter-arrival at the peak rate.
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / peak_hz * 1e6;
        if t >= horizon_us {
            break;
        }
        // Thin to the instantaneous rate.
        if rng.gen_range(0.0..1.0) < cfg.rate_at(t) / peak_hz {
            out.push(t);
        }
    }
    out
}

/// Phase-shifted traces for several LS services (each service replays the
/// trace with its own offset and seed, as independent clients would).
pub fn per_service_traces(
    cfg: &TraceConfig,
    services: usize,
    horizon_us: f64,
    seed: u64,
) -> Vec<Vec<f64>> {
    (0..services)
        .map(|s| generate(cfg, horizon_us, seed.wrapping_add(s as u64 * 0x9E37)))
        .collect()
}

/// [`per_service_traces`] wrapped in the shareable
/// [`ArrivalTrace`](sgdrc_core::serving::ArrivalTrace): the
/// per-task lists stay the source of truth, and the serving loop's merged
/// stream is derived once per trace instead of once per scenario.
pub fn arrival_trace(
    cfg: &TraceConfig,
    services: usize,
    horizon_us: f64,
    seed: u64,
) -> sgdrc_core::serving::ArrivalTrace {
    sgdrc_core::serving::ArrivalTrace::new(per_service_traces(cfg, services, horizon_us, seed))
}

/// Stateful single-service generator producing the **exact** arrival
/// sequence of [`generate`] — same RNG draws in the same order, same
/// thinning — one value at a time, without materializing the whole
/// trace. This is the fleet clock's per-service arrival source (via
/// [`ArrivalStream`]): a tens-of-millions-request horizon costs O(1)
/// memory per service instead of a multi-GiB `Vec<f64>` per task.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    cfg: TraceConfig,
    rng: StdRng,
    peak_hz: f64,
    horizon_us: f64,
    t: f64,
    next: Option<f64>,
}

impl ArrivalGen {
    /// Starts the stream [`generate`]`(cfg, horizon_us, seed)` would
    /// batch-produce.
    pub fn new(cfg: &TraceConfig, horizon_us: f64, seed: u64) -> Self {
        let mut gen = Self {
            cfg: *cfg,
            rng: StdRng::seed_from_u64(seed),
            peak_hz: cfg.peak_rate_hz(),
            horizon_us,
            t: 0.0,
            next: None,
        };
        gen.advance();
        gen
    }

    // The loop body is a statement-for-statement transcription of
    // `generate`'s: any divergence would break the stream==batch
    // equivalence that makes a 1-replica fleet bit-identical to the
    // single-GPU batch loop.
    fn advance(&mut self) {
        loop {
            let u: f64 = self.rng.gen_range(1e-12..1.0);
            self.t += -u.ln() / self.peak_hz * 1e6;
            if self.t >= self.horizon_us {
                self.next = None;
                return;
            }
            if self.rng.gen_range(0.0..1.0) < self.cfg.rate_at(self.t) / self.peak_hz {
                self.next = Some(self.t);
                return;
            }
        }
    }

    /// The next pending arrival time (µs), `None` once past the horizon.
    pub fn peek(&self) -> Option<f64> {
        self.next
    }

    /// Consumes and returns the next arrival time.
    pub fn pop(&mut self) -> Option<f64> {
        let v = self.next;
        if v.is_some() {
            self.advance();
        }
        v
    }
}

/// Streaming k-way merge over per-service [`ArrivalGen`]s, yielding the
/// exact `(at_us, task)`-ordered sequence `ArrivalTrace::merged` would
/// produce for [`per_service_traces`] with the same parameters (same
/// per-service seed offsets). Equivalence holds because each service's
/// times are strictly increasing, so the stable sort the batch path
/// applies reduces to min-selection with a lowest-task tie-break. The
/// fleet clock reads every run's arrivals from one of these; the
/// single-GPU runner keeps the batch [`per_service_traces`].
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    gens: Vec<ArrivalGen>,
}

impl ArrivalStream {
    /// One generator per service, seeded like [`per_service_traces`].
    pub fn new(cfg: &TraceConfig, services: usize, horizon_us: f64, seed: u64) -> Self {
        Self {
            gens: (0..services)
                .map(|s| ArrivalGen::new(cfg, horizon_us, seed.wrapping_add(s as u64 * 0x9E37)))
                .collect(),
        }
    }

    /// The earliest pending arrival without consuming it. Linear over
    /// services — the fleet runs a handful of LS services, not
    /// thousands.
    pub fn peek(&self) -> Option<sgdrc_core::serving::Arrival> {
        let mut best: Option<sgdrc_core::serving::Arrival> = None;
        for (task, gen) in self.gens.iter().enumerate() {
            if let Some(at) = gen.peek() {
                let better = match &best {
                    None => true,
                    Some(b) => at < b.at_us,
                };
                if better {
                    best = Some(sgdrc_core::serving::Arrival {
                        task: task as u32,
                        at_us: at,
                    });
                }
            }
        }
        best
    }

    /// Consumes and returns the earliest pending arrival.
    pub fn pop(&mut self) -> Option<sgdrc_core::serving::Arrival> {
        let head = self.peek()?;
        self.gens[head.task as usize].pop();
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_is_respected() {
        let cfg = TraceConfig::apollo_like();
        let horizon = 30e6; // 30 s
        let arrivals = generate(&cfg, horizon, 1);
        let rate = arrivals.len() as f64 / (horizon / 1e6);
        assert!(
            (rate - cfg.mean_rate_hz).abs() / cfg.mean_rate_hz < 0.1,
            "measured {rate} Hz vs {} Hz",
            cfg.mean_rate_hz
        );
    }

    #[test]
    fn scaling_halves_the_load() {
        let cfg = TraceConfig::apollo_like();
        let light = cfg.scaled(0.5);
        let heavy_n = generate(&cfg, 20e6, 2).len();
        let light_n = generate(&light, 20e6, 2).len();
        let ratio = light_n as f64 / heavy_n as f64;
        assert!((ratio - 0.5).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let arrivals = generate(&TraceConfig::apollo_like(), 5e6, 3);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| (0.0..5e6).contains(&t)));
    }

    #[test]
    fn trace_is_bursty() {
        // The coefficient of variation of arrivals-per-100ms must exceed a
        // homogeneous Poisson process's.
        let cfg = TraceConfig::apollo_like();
        let arrivals = generate(&cfg, 30e6, 4);
        let bin_us = 100_000.0;
        let bins = (30e6 / bin_us) as usize;
        let mut counts = vec![0.0f64; bins];
        for &a in &arrivals {
            counts[(a / bin_us) as usize] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / bins as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64;
        // Poisson would give var ≈ mean; bursts inflate it.
        assert!(var > mean * 1.25, "var {var} vs mean {mean}");
    }

    #[test]
    fn per_service_traces_are_distinct() {
        let traces = per_service_traces(&TraceConfig::apollo_like(), 3, 5e6, 7);
        assert_eq!(traces.len(), 3);
        assert_ne!(traces[0], traces[1]);
        assert_ne!(traces[1], traces[2]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&TraceConfig::apollo_like(), 5e6, 42);
        let b = generate(&TraceConfig::apollo_like(), 5e6, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_depth_diurnal_is_byte_identical_to_base() {
        // `with_diurnal(0, …)` must not perturb a single arrival: the
        // generator takes the exact pre-diurnal code path (same RNG
        // draws, same thinning ratios) whenever the depth is zero.
        let base = TraceConfig::apollo_like();
        let zeroed = base.with_diurnal(0.0, 3.0);
        for seed in [1u64, 42, 0xA110C] {
            assert_eq!(generate(&base, 5e6, seed), generate(&zeroed, 5e6, seed));
        }
    }

    #[test]
    fn diurnal_swing_moves_load_between_half_periods() {
        // Depth 0.5 over a 4 s period: the first half-period (sin > 0)
        // must carry visibly more arrivals than the second.
        let cfg = TraceConfig::apollo_like().with_diurnal(0.5, 4.0);
        let arrivals = generate(&cfg, 4e6, 9);
        let first_half = arrivals.iter().filter(|&&t| t < 2e6).count() as f64;
        let second_half = arrivals.len() as f64 - first_half;
        assert!(
            first_half > second_half * 1.4,
            "peak half {first_half} vs trough half {second_half}"
        );
        // The long-run mean is preserved (the sinusoid integrates to 0).
        let long = generate(&cfg, 40e6, 9);
        let rate = long.len() as f64 / 40.0;
        assert!(
            (rate - cfg.mean_rate_hz).abs() / cfg.mean_rate_hz < 0.1,
            "measured {rate} Hz vs {} Hz",
            cfg.mean_rate_hz
        );
    }

    /// The streaming generator must replay [`generate`]'s sequence
    /// value-for-value — bitwise, not approximately — across trace
    /// shapes, including the diurnal branch.
    #[test]
    fn streaming_gen_matches_batch_generate() {
        let shapes = [
            TraceConfig::apollo_like(),
            TraceConfig::apollo_like().with_bursts(2.2, 0.25),
            TraceConfig::apollo_like().with_diurnal(0.35, 3.0),
        ];
        for cfg in &shapes {
            for seed in [1u64, 42, 0xF1EE7] {
                let batch = generate(cfg, 3e6, seed);
                let mut gen = ArrivalGen::new(cfg, 3e6, seed);
                let mut streamed = Vec::new();
                while let Some(t) = gen.pop() {
                    streamed.push(t);
                }
                assert_eq!(streamed, batch, "shape {cfg:?} seed {seed}");
                assert!(gen.peek().is_none());
            }
        }
    }

    /// The k-way merged stream must reproduce the batch path's merged
    /// arrival order exactly: same times, same task tags, same
    /// tie-break.
    #[test]
    fn arrival_stream_matches_merged_trace() {
        let cfg = TraceConfig::apollo_like().with_bursts(2.2, 0.25);
        for seed in [7u64, 0xF1EE7] {
            let trace = arrival_trace(&cfg, 4, 2e6, seed);
            let mut stream = ArrivalStream::new(&cfg, 4, 2e6, seed);
            let mut streamed = Vec::new();
            while let Some(a) = stream.pop() {
                streamed.push(a);
            }
            assert_eq!(streamed.as_slice(), trace.merged(), "seed {seed}");
        }
    }

    #[test]
    fn burst_knobs_reshape_the_trace() {
        // Flattening the bursts (factor 1) yields a plain Poisson
        // process: variance ≈ mean per 100 ms bin.
        let flat = TraceConfig::apollo_like().with_bursts(1.0, 0.0);
        let arrivals = generate(&flat, 30e6, 4);
        let bin_us = 100_000.0;
        let bins = (30e6 / bin_us) as usize;
        let mut counts = vec![0.0f64; bins];
        for &a in &arrivals {
            counts[(a / bin_us) as usize] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / bins as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64;
        assert!(
            var < mean * 1.25,
            "flattened trace still bursty: var {var} vs mean {mean}"
        );
        // Sharper bursts raise the peak rate.
        let sharp = TraceConfig::apollo_like().with_bursts(3.0, 0.1);
        assert!(sharp.rate_at(0.0) > TraceConfig::apollo_like().rate_at(0.0) * 1.5);
    }
}
