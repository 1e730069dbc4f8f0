//! The SGDRC policy: tidal SM masking (§7.1) + dynamic VRAM channel
//! allocation with bimodal tensors (§7.2).
//!
//! * LS kernels get `SM_LS` TPCs — the sliding-window maximum of the
//!   offline-profiled minimum TPC counts of upcoming LS kernels (Fig. 13b).
//! * The BE kernel gets every remaining TPC; when an LS kernel needs TPCs
//!   the BE kernel occupies, the eviction flag preempts it (Fig. 13a) and
//!   it restarts on the complement.
//! * Channel allocation follows the bimodal-tensor state machine
//!   (Fig. 14): under colocation, memory-bound LS kernels use the LS
//!   channel subset and memory-bound BE kernels the `Ch_BE` subset; under
//!   monopolization everything maps to all channels.
//!
//! `SgdrcConfig::static_partition` turns the policy into the paper's
//! *SGDRC (Static)* baseline: a fixed even SM split and fixed channel
//! split, with no tidal scaling.

use crate::serving::{Policy, ServingState};
use coloring::split_channels;
use exec_sim::{ChannelSet, TpcMask};
use gpu_spec::GpuSpec;

/// Tunables of the SGDRC policy (§6: `Ch_BE` = 1/3; §7.1 sliding window).
#[derive(Debug, Clone)]
pub struct SgdrcConfig {
    /// Fraction of VRAM channels reserved for BE under colocation.
    pub ch_be: f64,
    /// Sliding-window length (upcoming LS kernels) for `SM_LS`.
    pub window: usize,
    /// BE eviction-flag polling interval, µs.
    pub poll_us: f64,
    /// Run as the SGDRC (Static) baseline.
    pub static_partition: bool,
}

impl Default for SgdrcConfig {
    fn default() -> Self {
        Self {
            ch_be: 1.0 / 3.0,
            window: 4,
            poll_us: 2.0,
            static_partition: false,
        }
    }
}

/// The SGDRC scheduler.
pub struct Sgdrc {
    cfg: SgdrcConfig,
    ls_channels: ChannelSet,
    be_channels: ChannelSet,
    all_channels: ChannelSet,
    num_tpcs: u32,
    /// The current LS TPC reservation (the "tide level"). Grows eagerly to
    /// the sliding-window requirement — preempting the BE kernel if it
    /// overlaps — and recedes when the window shrinks or the LS queue
    /// drains. The reservation's stability is the point of the sliding
    /// window (§7.1): consecutive LS kernels fit inside it without
    /// re-preempting BE work.
    ls_region: u32,
    /// Reusable buffer for the sliding window query (the dispatch path
    /// runs once per engine event and must not allocate).
    window_buf: Vec<(usize, usize)>,
    /// Memoized `(ls_version, SM_LS)` of the last sliding-window query.
    /// BE completions, preemptions and timers leave the LS queues — and
    /// therefore the window — untouched, so roughly half of all
    /// dispatches reuse the previous answer. Debug builds check every
    /// hit against a fresh query.
    sm_ls_cache: (u64, u32),
}

impl Sgdrc {
    pub fn new(spec: &GpuSpec, cfg: SgdrcConfig) -> Self {
        let split = split_channels(spec, cfg.ch_be);
        Self {
            ls_channels: ChannelSet::from_channels(&split.ls_channels),
            be_channels: ChannelSet::from_channels(&split.be_channels),
            all_channels: ChannelSet::all(spec),
            num_tpcs: spec.num_tpcs,
            cfg,
            ls_region: 0,
            window_buf: Vec::new(),
            // Version 0 never matches a live state (they start at 1).
            sm_ls_cache: (0, 0),
        }
    }

    /// Re-targets an existing instance at a (possibly different) GPU and
    /// configuration, reusing the sliding-window buffer's allocation.
    /// The fleet controller retunes a replica's `Ch_BE` (and follows a
    /// throttled clock) through it instead of building a fresh policy;
    /// a reconfigured instance runs bit-identically to a fresh one on
    /// any GPU (`workload/tests/serving_equiv.rs`).
    pub fn reconfigure(&mut self, spec: &GpuSpec, cfg: SgdrcConfig) {
        let split = split_channels(spec, cfg.ch_be);
        self.ls_channels = ChannelSet::from_channels(&split.ls_channels);
        self.be_channels = ChannelSet::from_channels(&split.be_channels);
        self.all_channels = ChannelSet::all(spec);
        self.num_tpcs = spec.num_tpcs;
        self.cfg = cfg;
        self.ls_region = 0;
        self.sm_ls_cache = (0, 0);
    }

    /// §7.1: `SM_LS` for the next LS kernel, memoized on
    /// [`ServingState::ls_version`].
    fn sm_ls(&mut self, st: &ServingState) -> u32 {
        if self.cfg.static_partition {
            return self.num_tpcs / 2;
        }
        let (version, cached) = self.sm_ls_cache;
        if version == st.ls_version() {
            debug_assert_eq!(
                cached,
                self.window_query(st),
                "memoized SM_LS diverged from a fresh window query"
            );
            return cached;
        }
        let sm = self.window_query(st);
        self.sm_ls_cache = (st.ls_version(), sm);
        sm
    }

    /// The max of the profiled minimum TPC counts over the sliding
    /// window of upcoming LS kernels.
    fn window_query(&mut self, st: &ServingState) -> u32 {
        st.upcoming_ls_kernels_into(self.cfg.window, &mut self.window_buf);
        self.window_buf
            .iter()
            .map(|&(t, k)| st.scenario.ls[t].profile.kernels[k].min_tpcs)
            .max()
            .unwrap_or(1)
            .min(self.num_tpcs)
    }
}

impl Policy for Sgdrc {
    fn name(&self) -> &'static str {
        if self.cfg.static_partition {
            "SGDRC (Static)"
        } else {
            "SGDRC"
        }
    }

    fn has_timers(&self) -> bool {
        false
    }

    fn on_run_start(&mut self, _st: &mut ServingState) {
        // The cache is keyed on the run's `ls_version`, which restarts
        // per run — a stale entry from a previous run could collide.
        self.sm_ls_cache = (0, 0);
        self.ls_region = 0;
    }

    fn dispatch(&mut self, st: &mut ServingState) {
        // ---- tide level --------------------------------------------------
        let ls_active = st.ls_ready() || st.ls_launch.is_some();
        if self.cfg.static_partition {
            self.ls_region = self.num_tpcs / 2;
        } else if !ls_active {
            self.ls_region = 0; // monopolization: BE may take everything
        } else {
            // Quantize the sliding-window requirement so the tide moves in
            // coarse steps: fine-grained fluctuation would preempt the BE
            // kernel (a full restart) on every re-growth.
            let needed = self.sm_ls(st);
            let quantized = if needed * 4 > self.num_tpcs * 3 {
                self.num_tpcs
            } else {
                needed.div_ceil(4) * 4
            };
            if quantized > self.ls_region {
                self.ls_region = quantized;
                // Growing tide: evict the BE kernel from the newly claimed
                // TPCs (Fig. 13a).
                if let Some(be) = st.be_launch {
                    if be.mask.overlaps(TpcMask::first(self.ls_region)) {
                        st.preempt_be();
                    }
                }
            } else {
                self.ls_region = quantized;
            }
        }
        // Elastic BE growth (Fig. 13b): when the tide recedes, the running
        // persistent-thread BE kernel expands onto the freed TPCs and its
        // bimodal tensors switch mappings.
        if let Some(be) = st.be_launch {
            let desired_mask = if self.cfg.static_partition {
                TpcMask::range(self.num_tpcs / 2, self.num_tpcs - self.num_tpcs / 2)
            } else {
                TpcMask::first(self.num_tpcs).minus(TpcMask::first(self.ls_region))
            };
            // Only expansions happen in place; shrinks go through
            // preemption above.
            if desired_mask.0 & be.mask.0 == be.mask.0 && desired_mask != be.mask {
                let memory_bound =
                    st.scenario.be[be.task].profile.kernels[be.kernel_idx].memory_bound;
                let channels = if memory_bound && (ls_active || self.cfg.static_partition) {
                    self.be_channels
                } else {
                    self.all_channels
                };
                st.remask_be(desired_mask, channels);
            }
        }

        // ---- LS side -----------------------------------------------------
        if st.ls_launch.is_none() {
            if let Some((task, kidx)) = st.peek_ls() {
                let mask = TpcMask::first(self.ls_region.max(1));
                let memory_bound = st.scenario.ls[task].profile.kernels[kidx].memory_bound;
                // Colocation: movable LS tensors sit on the LS channels.
                // Keyed on *resident* BE work — a replica whose BE tasks
                // all migrated away is monopolized by LS (Fig. 14) even
                // though its scenario still lists them.
                let colocated = st.be_present();
                let channels = if memory_bound && (colocated || self.cfg.static_partition) {
                    self.ls_channels
                } else {
                    self.all_channels
                };
                st.launch_ls(mask, channels, 1.0);
            }
        }
        // ---- BE side -----------------------------------------------------
        if st.be_launch.is_none() {
            if let Some((task, kidx)) = st.peek_be() {
                let mask = if self.cfg.static_partition {
                    TpcMask::range(self.num_tpcs / 2, self.num_tpcs - self.num_tpcs / 2)
                } else {
                    TpcMask::first(self.num_tpcs).minus(TpcMask::first(self.ls_region))
                };
                if mask.is_empty() {
                    return;
                }
                let memory_bound = st.scenario.be[task].profile.kernels[kidx].memory_bound;
                // Fig. 14 mode: colocation while LS work exists.
                let channels = if memory_bound && (ls_active || self.cfg.static_partition) {
                    self.be_channels
                } else {
                    self.all_channels
                };
                st.launch_be(mask, channels, 1.0, self.cfg.poll_us);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{run, Scenario, Task};
    use dnn::zoo::{build, ModelId};
    use dnn::CompileOptions;
    use gpu_spec::GpuModel;

    fn scenario(arrival_period_us: f64, horizon_us: f64) -> Scenario {
        let spec = GpuModel::RtxA2000.spec();
        let ls_model = dnn::compile(
            build(ModelId::MobileNetV3),
            &spec,
            CompileOptions::default(),
        );
        let be_model = dnn::compile(
            build(ModelId::DenseNet161),
            &spec,
            CompileOptions::default(),
        );
        let arrivals: Vec<f64> = (0..)
            .map(|i| i as f64 * arrival_period_us)
            .take_while(|&t| t < horizon_us)
            .collect();
        let ls = vec![Task::new(ls_model, &spec)];
        let be = vec![Task::new(be_model, &spec)];
        Scenario::new(spec, ls, be, 4, vec![arrivals], horizon_us)
    }

    #[test]
    fn serves_ls_requests_and_be_inferences() {
        let sc = scenario(5_000.0, 200_000.0);
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let stats = run(&mut policy, &sc);
        assert!(
            stats.ls_completed[0].len() >= 30,
            "LS requests served: {}",
            stats.ls_completed[0].len()
        );
        assert!(stats.be_completed[0] >= 1, "BE made progress");
    }

    #[test]
    fn ls_latency_is_close_to_isolated_under_light_load() {
        let sc = scenario(20_000.0, 400_000.0);
        let isolated = sc.ls[0].profile.isolated_e2e_us;
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let stats = run(&mut policy, &sc);
        let mut lat: Vec<f64> = stats.ls_completed[0]
            .iter()
            .map(|r| r.latency_us())
            .collect();
        lat.sort_by(f64::total_cmp);
        let p99 = lat[((lat.len() as f64 * 0.99) as usize).min(lat.len() - 1)];
        assert!(p99 < isolated * 3.0, "p99 {p99} vs isolated {isolated}");
    }

    #[test]
    fn dynamic_beats_static_on_be_throughput_in_light_load() {
        // Fig. 17 / §9.3: "Compared with SGDRC (Static), SGDRC achieves
        // higher BE job throughput … more evident in the light workload".
        let sc = scenario(25_000.0, 600_000.0);
        let mut dynamic = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let d = run(&mut dynamic, &sc);
        let mut stat = Sgdrc::new(
            &sc.spec,
            SgdrcConfig {
                static_partition: true,
                ..Default::default()
            },
        );
        let s = run(&mut stat, &sc);
        assert!(
            d.be_completed[0] > s.be_completed[0],
            "dynamic {} vs static {}",
            d.be_completed[0],
            s.be_completed[0]
        );
    }

    #[test]
    fn identical_runs_are_deterministic() {
        // The serving loop and engine share no hidden global state: two
        // invocations of the same scenario produce identical statistics
        // (including every completion timestamp), which is what makes
        // results reproducible across parallel runs.
        let sc = scenario(5_000.0, 150_000.0);
        let mut a = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let first = run(&mut a, &sc);
        let mut b = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let second = run(&mut b, &sc);
        assert_eq!(first, second);
        assert!(first.engine_events > 0, "events were counted");
        assert!(
            first.horizon_us <= sc.horizon_us,
            "recorded horizon is the simulated time"
        );
    }

    #[test]
    fn be_preemptions_happen_under_load() {
        let sc = scenario(3_000.0, 200_000.0);
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let stats = run(&mut policy, &sc);
        assert!(
            stats.be_preemptions > 0,
            "tidal masking must evict BE kernels"
        );
    }
}
