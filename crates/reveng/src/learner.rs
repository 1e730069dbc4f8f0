//! §5.3 — learning the VRAM channel hash mapping from noisy samples.
//!
//! Marking the whole VRAM space is infeasible (the paper estimates over a
//! year for 24 GiB), so SGDRC collects ~15K `(physical address, channel)`
//! samples — about 1–5% of which are mislabelled by cache noise — trains a
//! DNN to approximate the hash function, and emits a full lookup table with
//! >99.9% accuracy on unseen addresses.
//!
//! Two learners are provided:
//!
//! * [`MlpHashLearner`] — a small MLP over *generic periodic features*
//!   (one-hot residues of the partition index modulo a fixed 2^a·3^b
//!   grid). Hardware interleavings are built from power-of-two folds and
//!   small-modulus distributors (paper refs [2, 13, 29]), so this encoding
//!   is the DNN analogue of a Fourier positional encoding — it assumes
//!   periodicity, not any specific hash structure. It trains until its
//!   predictions on the training samples stop settling, not for a fixed
//!   number of epochs.
//! * [`PeriodLearner`] — an ablation: detect the layout period by label
//!   consistency and majority-vote per residue. Simpler, but *does* assume
//!   strict periodicity.
//!
//! Neither learner ever consults the ground-truth oracle; accuracy
//! evaluation against the oracle happens only in tests and benches.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One labelled observation: a physical partition index and the channel
/// class the marking pipeline assigned to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub partition: u64,
    pub label: u16,
}

/// Generic periodic feature map: one-hot residues for every modulus in a
/// fixed 2^a·3^b grid.
#[derive(Debug, Clone)]
pub struct FeatureMap {
    moduli: Vec<u64>,
    dim: usize,
}

impl FeatureMap {
    /// The default grid: all modulus values 2^a·3^b ≤ `max_modulus` with
    /// a ≥ 0, b ∈ {0, 1, 2}, in increasing order.
    pub fn new(max_modulus: u64) -> Self {
        let mut moduli = Vec::new();
        for b in 0..3u32 {
            let three = 3u64.pow(b);
            let mut m = three;
            while m <= max_modulus {
                if m >= 2 {
                    moduli.push(m);
                }
                m *= 2;
            }
        }
        moduli.sort_unstable();
        moduli.dedup();
        let dim = moduli.iter().map(|&m| m as usize).sum::<usize>();
        Self { moduli, dim }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Indices of the active (non-zero) features for a partition index:
    /// exactly one residue per modulus. All active features have value 1.
    pub fn active_features(&self, p: u64, out: &mut Vec<usize>) {
        out.clear();
        let mut base = 0usize;
        for &m in &self.moduli {
            out.push(base + (p % m) as usize);
            base += m as usize;
        }
    }
}

/// Training settings.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// The cap on training epochs. Training normally stops earlier, at
    /// the plateau that follows the learning rate's last halving.
    pub epochs: usize,
    /// Seeds the initial weights and the per-epoch sample order.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            epochs: 80,
            seed: 7,
        }
    }
}

// Training hyper-parameters no caller varies.
const HIDDEN: usize = 96;
const BATCH: usize = 64;
/// The initial learning rate.
const LR: f32 = 0.08;
/// Per-epoch multiplicative weight decay.
const WEIGHT_DECAY: f32 = 0.05;
/// The feature grid's largest modulus: 576 = 64·9 is the P40's layout
/// period.
const MAX_MODULUS: u64 = 576;
/// Learning-rate halvings: training stops at the plateau after the last.
const LR_HALVINGS: i32 = 4;

/// One forward pass's buffers: the active features, the hidden layer's
/// pre-activations and the logits. [`MlpHashLearner::forward`] sizes them.
struct Forward {
    active: Vec<usize>,
    hidden: [f32; HIDDEN],
    logits: Vec<f32>,
}

/// Index and value of the largest logit, the last one on ties.
fn argmax(logits: &[f32]) -> (usize, f32) {
    let mut best = (0, logits[0]);
    for (i, &l) in logits.iter().enumerate().skip(1) {
        if l >= best.1 {
            best = (i, l);
        }
    }
    best
}

/// A trained two-layer MLP (ReLU hidden layer, softmax output, linear skip
/// connection) over the periodic feature map. The skip path lets the model
/// express residue tables exactly; the hidden path captures interactions
/// between features.
#[derive(Debug, Clone)]
pub struct MlpHashLearner {
    feat: FeatureMap,
    classes: usize,
    /// `w1[f * HIDDEN + h]` — input→hidden weights (row per feature).
    w1: Vec<f32>,
    b1: Vec<f32>,
    /// `w2[h * classes + c]` — hidden→output weights.
    w2: Vec<f32>,
    b2: Vec<f32>,
    /// `skip[f * classes + c]` — direct input→output weights.
    skip: Vec<f32>,
    epochs: usize,
}

impl MlpHashLearner {
    /// Trains on the samples with plain mini-batch SGD + momentum. An
    /// epoch's *churn* is the number of samples whose predicted class (the
    /// argmax of the forward pass, taken before that sample's update)
    /// differs from the epoch before. An epoch whose churn is not below the
    /// previous epoch's is a plateau, except the first epoch at each rate:
    /// the rate halves at each plateau, and training stops at the plateau
    /// after the last halving or after `cfg.epochs` epochs.
    pub fn train(samples: &[Sample], cfg: &MlpConfig) -> Self {
        assert!(!samples.is_empty());
        let classes = samples.iter().map(|s| s.label).max().unwrap() as usize + 1;
        let feat = FeatureMap::new(MAX_MODULUS);
        let dim = feat.dim();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let scale1 = (2.0 / dim as f32).sqrt();
        let scale2 = (2.0 / HIDDEN as f32).sqrt();
        let mut model = Self {
            feat,
            classes,
            w1: (0..dim * HIDDEN)
                .map(|_| rng.gen_range(-scale1..scale1))
                .collect(),
            b1: vec![0.0; HIDDEN],
            w2: (0..HIDDEN * classes)
                .map(|_| rng.gen_range(-scale2..scale2))
                .collect(),
            b2: vec![0.0; classes],
            skip: vec![0.0; dim * classes],
            epochs: 0,
        };
        let mut vel_w1 = vec![0.0f32; model.w1.len()];
        let mut vel_b1 = vec![0.0f32; HIDDEN];
        let mut vel_w2 = vec![0.0f32; model.w2.len()];
        let mut vel_b2 = vec![0.0f32; classes];
        let momentum = 0.9f32;

        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut active = Vec::with_capacity(64);
        let mut h_pre = vec![0.0f32; HIDDEN];
        let mut h_act = vec![0.0f32; HIDDEN];
        let mut logits = vec![0.0f32; classes];
        let mut dlogits = vec![0.0f32; classes];
        let mut dhidden = vec![0.0f32; HIDDEN];
        // Each sample's prediction in the previous epoch, and how many of
        // them changed in the previous epoch (its churn).
        let mut predicted = vec![u16::MAX; samples.len()];
        let (mut last_churn, mut halvings, mut first_at_rate) = (usize::MAX, 0, true);

        while model.epochs < cfg.epochs {
            model.epochs += 1;
            // Epoch-level weight decay: shrinking all weights slightly each
            // epoch suppresses rarely-reinforced noise fits while the
            // per-residue majority signal is re-learned immediately.
            let k = 1.0 - WEIGHT_DECAY;
            for w in model
                .w1
                .iter_mut()
                .chain(model.w2.iter_mut())
                .chain(model.skip.iter_mut())
            {
                *w *= k;
            }
            order.shuffle(&mut rng);
            let lr_epoch = LR * 0.5f32.powi(halvings);
            let mut churn = 0;
            for chunk in order.chunks(BATCH) {
                // Accumulate gradients over the mini-batch via immediate
                // momentum updates scaled by 1/batch (equivalent for SGD).
                let lr = lr_epoch / chunk.len() as f32;
                for &idx in chunk {
                    let s = samples[idx];
                    model.feat.active_features(s.partition, &mut active);
                    // Forward.
                    h_pre.copy_from_slice(&model.b1);
                    for &f in &active {
                        let row = &model.w1[f * HIDDEN..(f + 1) * HIDDEN];
                        for (h, &w) in h_pre.iter_mut().zip(row) {
                            *h += w;
                        }
                    }
                    for (a, &p) in h_act.iter_mut().zip(&h_pre) {
                        *a = p.max(0.0);
                    }
                    logits.copy_from_slice(&model.b2);
                    for (h, &a) in h_act.iter().enumerate() {
                        if a > 0.0 {
                            let row = &model.w2[h * classes..(h + 1) * classes];
                            for (l, &w) in logits.iter_mut().zip(row) {
                                *l += a * w;
                            }
                        }
                    }
                    for &f in &active {
                        let row = &model.skip[f * classes..(f + 1) * classes];
                        for (l, &w) in logits.iter_mut().zip(row) {
                            *l += w;
                        }
                    }
                    let (class, max) = argmax(&logits);
                    churn += (predicted[idx] != class as u16) as usize;
                    predicted[idx] = class as u16;
                    // Softmax + CE gradient.
                    let mut sum = 0.0;
                    for (d, &l) in dlogits.iter_mut().zip(&logits) {
                        *d = (l - max).exp();
                        sum += *d;
                    }
                    for d in dlogits.iter_mut() {
                        *d /= sum;
                    }
                    dlogits[s.label as usize] -= 1.0;
                    // Backward: output layer.
                    for h in 0..HIDDEN {
                        let a = h_act[h];
                        let row = &model.w2[h * classes..(h + 1) * classes];
                        let mut g = 0.0;
                        for (w, &d) in row.iter().zip(&dlogits) {
                            g += w * d;
                        }
                        dhidden[h] = if h_pre[h] > 0.0 { g } else { 0.0 };
                        if a > 0.0 {
                            let vrow = &mut vel_w2[h * classes..(h + 1) * classes];
                            let wrow = &mut model.w2[h * classes..(h + 1) * classes];
                            for ((v, w), &d) in vrow.iter_mut().zip(wrow).zip(&dlogits) {
                                *v = momentum * *v - lr * a * d;
                                *w += *v;
                            }
                        }
                    }
                    for ((v, b), &d) in vel_b2.iter_mut().zip(&mut model.b2).zip(&dlogits) {
                        *v = momentum * *v - lr * d;
                        *b += *v;
                    }
                    // Backward: skip path (sparse inputs, plain SGD).
                    for &f in &active {
                        let row = &mut model.skip[f * classes..(f + 1) * classes];
                        for (w, &d) in row.iter_mut().zip(&dlogits) {
                            *w -= lr * d;
                        }
                    }
                    // Backward: hidden layer (sparse inputs).
                    for &f in &active {
                        let vrow = &mut vel_w1[f * HIDDEN..(f + 1) * HIDDEN];
                        let wrow = &mut model.w1[f * HIDDEN..(f + 1) * HIDDEN];
                        for ((v, w), &d) in vrow.iter_mut().zip(wrow).zip(&dhidden) {
                            *v = momentum * *v - lr * d;
                            *w += *v;
                        }
                    }
                    for ((v, b), &d) in vel_b1.iter_mut().zip(&mut model.b1).zip(&dhidden) {
                        *v = momentum * *v - lr * d;
                        *b += *v;
                    }
                }
            }
            // Halving the rate settles the model onto the per-residue
            // majority labels. A plateau is a churn that stops falling, not
            // one that reaches zero: with noisy labels the model keeps
            // memorising noise, and the churn rises again at full rate.
            if !first_at_rate && churn >= last_churn {
                if halvings == LR_HALVINGS {
                    break;
                }
                halvings += 1;
                first_at_rate = true;
            } else {
                first_at_rate = false;
            }
            last_churn = churn;
        }
        model
    }

    /// Epochs the model trained before its schedule ended, at most
    /// [`MlpConfig::epochs`].
    pub fn epochs_trained(&self) -> usize {
        self.epochs
    }

    /// Predicted channel class for a partition index.
    pub fn predict(&self, partition: u64) -> u16 {
        self.predict_with(partition, &mut self.forward())
    }

    /// Buffers sized for one forward pass of this model.
    fn forward(&self) -> Forward {
        Forward {
            active: Vec::with_capacity(self.feat.moduli.len()),
            hidden: [0.0; HIDDEN],
            logits: Vec::with_capacity(self.classes),
        }
    }

    /// [`predict`](Self::predict) into the caller's buffers: batch callers
    /// reuse one [`Forward`] and allocate nothing per prediction.
    fn predict_with(&self, partition: u64, buf: &mut Forward) -> u16 {
        self.feat.active_features(partition, &mut buf.active);
        buf.hidden.copy_from_slice(&self.b1);
        for &f in &buf.active {
            let row = &self.w1[f * HIDDEN..(f + 1) * HIDDEN];
            for (h, &w) in buf.hidden.iter_mut().zip(row) {
                *h += w;
            }
        }
        buf.logits.clear();
        buf.logits.extend_from_slice(&self.b2);
        for (h, p) in buf.hidden.iter().enumerate() {
            let a = p.max(0.0);
            if a > 0.0 {
                let row = &self.w2[h * self.classes..(h + 1) * self.classes];
                for (l, &w) in buf.logits.iter_mut().zip(row) {
                    *l += a * w;
                }
            }
        }
        for &f in &buf.active {
            let row = &self.skip[f * self.classes..(f + 1) * self.classes];
            for (l, &w) in buf.logits.iter_mut().zip(row) {
                *l += w;
            }
        }
        argmax(&buf.logits).0 as u16
    }

    /// Fraction of samples predicted correctly.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        let mut buf = self.forward();
        let ok = samples
            .iter()
            .filter(|s| self.predict_with(s.partition, &mut buf) == s.label)
            .count();
        ok as f64 / samples.len().max(1) as f64
    }

    /// The §5.3 lookup table: predicted channel of every partition in
    /// `0..n_partitions` (1 KiB granularity across the VRAM space).
    pub fn lookup_table(&self, n_partitions: u64) -> Vec<u16> {
        let mut buf = self.forward();
        (0..n_partitions)
            .map(|p| self.predict_with(p, &mut buf))
            .collect()
    }

    pub fn num_classes(&self) -> usize {
        self.classes
    }
}

/// Ablation learner: detect the layout period, majority-vote per residue.
#[derive(Debug, Clone)]
pub struct PeriodLearner {
    pub period: u64,
    table: Vec<u16>,
    pub consistency: f64,
}

impl PeriodLearner {
    /// Searches periods `2..=max_period` and keeps the smallest whose
    /// majority-vote consistency is within `tolerance` of the best. A
    /// residue's vote goes to its lowest label on a tie.
    pub fn train(samples: &[Sample], max_period: u64, tolerance: f64) -> Self {
        assert!(!samples.is_empty());
        let classes = samples.iter().map(|s| s.label).max().unwrap() as usize + 1;
        // `votes[residue * classes + label]` for one period.
        let mut votes = Vec::new();
        let count = |period: u64, votes: &mut Vec<u32>| {
            votes.clear();
            votes.resize(period as usize * classes, 0);
            for s in samples {
                votes[(s.partition % period) as usize * classes + s.label as usize] += 1;
            }
        };
        let mut best: (u64, f64) = (1, 0.0);
        let mut scores: Vec<(u64, f64)> = Vec::new();
        for period in 2..=max_period {
            count(period, &mut votes);
            let agree: u64 = votes
                .chunks(classes)
                .map(|v| *v.iter().max().unwrap() as u64)
                .sum();
            let score = agree as f64 / samples.len() as f64;
            scores.push((period, score));
            if score > best.1 {
                best = (period, score);
            }
        }
        let period = scores
            .iter()
            .filter(|&&(_, s)| s >= best.1 - tolerance)
            .map(|&(p, _)| p)
            .min()
            .unwrap_or(best.0);
        // Final table by majority vote; `max_by_key` keeps the last of equal
        // maxima, so scan the labels from the highest down.
        count(period, &mut votes);
        let table: Vec<u16> = votes
            .chunks(classes)
            .map(|v| (0..classes).rev().max_by_key(|&l| v[l]).unwrap() as u16)
            .collect();
        let consistency = scores
            .iter()
            .find(|&&(p, _)| p == period)
            .map(|&(_, s)| s)
            .unwrap_or(0.0);
        Self {
            period,
            table,
            consistency,
        }
    }

    pub fn predict(&self, partition: u64) -> u16 {
        self.table[(partition % self.period) as usize]
    }

    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        let ok = samples
            .iter()
            .filter(|s| self.predict(s.partition) == s.label)
            .count();
        ok as f64 / samples.len().max(1) as f64
    }
}

/// Draws `n` oracle-labelled samples over `span_partitions` and flips
/// `noise` of the labels uniformly — the controlled-noise sample sets used
/// by the §5.3 experiments (the paper's real samples carry the same ~1–5%
/// mislabel rate from cache noise).
pub fn synthetic_samples(
    oracle: &dyn gpu_spec::ChannelHash,
    span_partitions: u64,
    n: usize,
    noise: f64,
    seed: u64,
) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let channels = oracle.num_channels();
    (0..n)
        .map(|_| {
            let p = rng.gen_range(0..span_partitions);
            let mut label = oracle.channel_of_partition(p);
            if rng.gen_bool(noise) {
                label = (label + rng.gen_range(1..channels)) % channels;
            }
            Sample {
                partition: p,
                label,
            }
        })
        .collect()
}

/// Clean oracle-labelled evaluation set over unseen partitions.
pub fn oracle_test_set(
    oracle: &dyn gpu_spec::ChannelHash,
    span_partitions: u64,
    n: usize,
    seed: u64,
) -> Vec<Sample> {
    synthetic_samples(oracle, span_partitions, n, 0.0, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::GpuModel;

    /// Debug builds train ~30× slower, so they cap training at 16 epochs
    /// (sample counts stay at paper scale so every residue class is
    /// covered) and assert a lower accuracy floor; release builds
    /// (`cargo test --release`) train until the schedule ends against the
    /// §5.3 >99.9% floor.
    fn test_config() -> MlpConfig {
        MlpConfig {
            epochs: if cfg!(debug_assertions) { 16 } else { 80 },
            ..Default::default()
        }
    }

    #[test]
    fn feature_map_has_one_hot_residues() {
        let f = FeatureMap::new(48);
        let mut a = Vec::new();
        f.active_features(5, &mut a);
        // One active residue per modulus.
        assert_eq!(a.len(), f.moduli.len());
        assert!(a.iter().all(|&i| i < f.dim()));
    }

    #[test]
    fn feature_grid_contains_crt_moduli() {
        // 16·9 = 144 (A2000 period) and 64·9 = 576 (P40 period) must be
        // representable: the grid has 2^a·3^b members including 144, 576.
        let f = FeatureMap::new(576);
        assert!(f.moduli.contains(&144));
        assert!(f.moduli.contains(&576));
        assert!(f.moduli.contains(&9));
        assert!(f.moduli.contains(&64));
    }

    /// (noise, sample seed, span, held-out count, held-out seed, learner
    /// seed)
    type Case = (f64, u64, u64, usize, u64, u64);

    /// The §5.3 headline: 15K samples with 1–10% label noise, >99.9%
    /// held-out accuracy. Debug runs `debug_case`; release sweeps three
    /// noise levels and three learner seeds over a 1 GiB span.
    fn assert_learns_hash_from_noisy_samples(gpu: GpuModel, debug_case: Case) {
        let cases: Vec<Case> = if cfg!(debug_assertions) {
            vec![debug_case]
        } else {
            let mut cases = Vec::new();
            for noise in [0.01, 0.05, 0.10] {
                for seed in [7, 108, 209] {
                    cases.push((noise, 3, 1 << 20, 10_000, 4, seed));
                }
            }
            cases
        };
        let floor = if cfg!(debug_assertions) { 0.98 } else { 0.999 };
        let oracle = gpu.channel_hash();
        for (noise, sample_seed, span, held_out, held_out_seed, seed) in cases {
            let train = synthetic_samples(oracle.as_ref(), span, 15_000, noise, sample_seed);
            let cfg = MlpConfig {
                seed,
                ..test_config()
            };
            let model = MlpHashLearner::train(&train, &cfg);
            let test = oracle_test_set(oracle.as_ref(), span, held_out, held_out_seed);
            let acc = model.accuracy(&test);
            let epochs = model.epochs_trained();
            let case = format!("{gpu:?} at {noise} noise, learner seed {seed}");
            assert!(acc > floor, "{case}: accuracy {acc} after {epochs} epochs");
            // At the paper's 1–5% noise the churn plateau, not the cap,
            // ends training.
            if !cfg!(debug_assertions) && noise <= 0.05 {
                assert!(epochs < cfg.epochs, "{case}: trained to the cap");
            }
        }
    }

    #[test]
    fn mlp_learns_a2000_hash_from_noisy_samples() {
        let debug_case = (0.05, 1, 96 * 1024, 4_000, 2, 7);
        assert_learns_hash_from_noisy_samples(GpuModel::RtxA2000, debug_case);
    }

    #[test]
    fn mlp_learns_p40_hash_from_noisy_samples() {
        let debug_case = (0.01, 3, 96 * 1024, 4_000, 4, 7);
        assert_learns_hash_from_noisy_samples(GpuModel::TeslaP40, debug_case);
    }

    #[test]
    fn period_learner_finds_layout_period() {
        let oracle = GpuModel::RtxA2000.channel_hash();
        let train = synthetic_samples(oracle.as_ref(), 1 << 20, 15_000, 0.05, 5);
        let model = PeriodLearner::train(&train, 256, 0.002);
        assert_eq!(model.period, 144, "A2000 layout period = 12 windows × 12");
        let test = oracle_test_set(oracle.as_ref(), 1 << 20, 4_000, 6);
        assert!(model.accuracy(&test) > 0.999);
    }

    #[test]
    fn period_learner_breaks_vote_ties_to_the_lowest_label() {
        // Residue 0 sees labels 0 and 1 once each.
        let train: Vec<Sample> = [(0, 0), (2, 1), (1, 2), (3, 2)]
            .into_iter()
            .map(|(partition, label)| Sample { partition, label })
            .collect();
        let model = PeriodLearner::train(&train, 2, 0.0);
        assert_eq!(model.period, 2);
        assert_eq!((model.predict(0), model.predict(1)), (0, 2));
        assert_eq!(model.consistency, 0.75);
    }

    #[test]
    fn lookup_table_matches_predictions() {
        let oracle = GpuModel::RtxA2000.channel_hash();
        let train = synthetic_samples(oracle.as_ref(), 1 << 16, 8_000, 0.02, 7);
        let model = MlpHashLearner::train(
            &train,
            &MlpConfig {
                epochs: 15,
                ..Default::default()
            },
        );
        let lut = model.lookup_table(512);
        for p in 0..512u64 {
            assert_eq!(lut[p as usize], model.predict(p));
        }
    }

    #[test]
    fn noise_free_training_is_also_fine() {
        let oracle = GpuModel::RtxA2000.channel_hash();
        let train = synthetic_samples(oracle.as_ref(), 1 << 18, 10_000, 0.0, 8);
        let model = MlpHashLearner::train(&train, &test_config());
        let test = oracle_test_set(oracle.as_ref(), 1 << 18, 2_000, 9);
        let floor = if cfg!(debug_assertions) { 0.98 } else { 0.999 };
        assert!(model.accuracy(&test) > floor);
    }
}
