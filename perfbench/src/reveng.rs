//! `reveng`: the §5–6 pipeline on a simulated RTX A2000. Mark a
//! physically contiguous window with latency probes, recover the
//! permutation structure, train the MLP hash learner on the marked
//! labels, build the lookup table and a colored pool from it. `mem-sim`,
//! `reveng` and `coloring` do all the work; no serving code runs.
//!
//! The ground-truth channel hash is consulted only to score the result,
//! after the pipeline has finished.

use crate::measure::{cpu_timed, measure, median, mix, Outcome};
use crate::report::{per_layer, Metrics, FIG17_CELL, FLEET_LAYERS, SERVING_SETUP};
use crate::tracer::Tracer;
use coloring::{ColoredPool, GranularityKib};
use gpu_spec::{GpuModel, PhysAddr};
use mem_sim::GpuDevice;
use reveng::{
    align_classes, analyze, ChannelMarker, MarkerConfig, MlpConfig, MlpHashLearner, Sample,
};
use std::collections::BTreeSet;

const MODEL: GpuModel = GpuModel::RtxA2000;
/// Simulated VRAM window the probe buffer covers.
const VRAM_BYTES: u64 = 96 << 20;
/// Partitions marked with latency probes (1 KiB each).
const MARKED: usize = 1152;
/// Lookup-table span: the first 16 MiB of VRAM, 4 partitions per page.
const LUT_PARTITIONS: u64 = 16 << 10;
/// Colored allocations attempted per color.
const ALLOCS_PER_COLOR: usize = 16;
const ALLOC_BYTES: u64 = 64 << 10;

/// Seeds of the three random inputs: the device's physical page layout
/// and latency noise, threshold calibration, and learner initialisation.
struct Seeds {
    device: u64,
    calibration: u64,
    learner: u64,
}

fn seeds(seed: u64) -> Seeds {
    Seeds {
        device: mix(seed, 51),
        calibration: mix(seed, 52),
        learner: mix(seed, 53),
    }
}

/// Everything the pipeline produced, compared across repetitions.
#[derive(Debug, Clone, PartialEq)]
struct Pipeline {
    labels: Vec<(PhysAddr, u16)>,
    classes: usize,
    block_size: u64,
    groups: Vec<Vec<u16>>,
    window: u64,
    lut: Vec<u16>,
    chunks: usize,
    allocs: usize,
    alloc_failures: usize,
    loads: u64,
    l2_hits: u64,
    l2_misses: u64,
    row_conflicts: u64,
}

/// The pipeline after set-up: mark, analyze, learn, build the table and
/// the colored pool, allocate from it.
fn pipeline(
    marker: &mut ChannelMarker,
    learner_seed: u64,
    t: &mut Tracer,
) -> Result<Pipeline, String> {
    let (start, len) = marker.longest_contiguous_run();
    if len < MARKED {
        return Err(format!(
            "longest contiguous run is {len} partitions, need {MARKED}"
        ));
    }
    let labels = t
        .span("reveng.mark", |_| marker.mark_indexed(start, MARKED))
        .map_err(|e| format!("marking: {e}"))?;
    let report = t.span("reveng.analyze", |_| analyze(&labels));
    let samples: Vec<Sample> = labels
        .iter()
        .map(|&(pa, label)| Sample {
            partition: pa.partition(),
            label,
        })
        .collect();
    let learner = t.span("learner.train", |_| {
        MlpHashLearner::train(
            &samples,
            &MlpConfig {
                seed: learner_seed,
                ..MlpConfig::default()
            },
        )
    });
    let lut = t.span("learner.lut", |_| learner.lookup_table(LUT_PARTITIONS));
    // A chunk's color is the channel group its class belongs to — the
    // grouping comes from the structure analysis, not from the oracle.
    let group_of = |class: u16| {
        report
            .groups
            .iter()
            .position(|g| g.contains(&class))
            .map(|g| g as u16)
    };
    if let Some(&orphan) = lut.iter().find(|&&c| group_of(c).is_none()) {
        return Err(format!(
            "learned class {orphan} belongs to no channel group"
        ));
    }
    let (chunks, allocs, alloc_failures) = t.span("coloring.pool", |_| {
        let mut pool = ColoredPool::new(
            0,
            LUT_PARTITIONS / 4,
            GranularityKib(report.block_size as u32),
            |p| group_of(lut[p as usize]).expect("checked above"),
        );
        let mut allocs = 0;
        let mut failures = 0;
        for color in pool.available_colors() {
            for _ in 0..ALLOCS_PER_COLOR {
                allocs += 1;
                failures += pool.alloc_colored(&[color], ALLOC_BYTES).is_err() as usize;
            }
        }
        (pool.total_chunks(), allocs, failures)
    });
    Ok(Pipeline {
        labels,
        classes: report.num_channels,
        block_size: report.block_size,
        groups: report.groups,
        window: report.window,
        lut,
        chunks,
        allocs,
        alloc_failures,
        loads: 0,
        l2_hits: 0,
        l2_misses: 0,
        row_conflicts: 0,
    })
}

/// The set-up a user pays before marking: the simulated device, then the
/// marker's probe buffer and calibrated latency thresholds.
fn setup(seed: u64, t: &mut Tracer) -> Result<GpuDevice, String> {
    let s = seeds(seed);
    let mut dev = t.span("mem.device", |_| {
        GpuDevice::new(MODEL, VRAM_BYTES, s.device)
    });
    t.span("reveng.calibrate", |_| {
        ChannelMarker::new(&mut dev, marker_config(seed)).map(drop)
    })
    .map_err(|e| format!("marker set-up: {e}"))?;
    Ok(dev)
}

fn marker_config(seed: u64) -> MarkerConfig {
    MarkerConfig {
        calibration_seed: seeds(seed).calibration,
        ..MarkerConfig::default()
    }
}

/// One repetition on a fresh device: the set-up again (untimed and
/// untraced: the marker must own this device), then the timed pipeline;
/// returns the output and its on-CPU seconds.
fn rep(seed: u64, t: &mut Tracer) -> Result<(Pipeline, f64), String> {
    let mut dev = GpuDevice::new(MODEL, VRAM_BYTES, seeds(seed).device);
    let mut marker = ChannelMarker::new(&mut dev, marker_config(seed))
        .map_err(|e| format!("marker set-up: {e}"))?;
    let (out, cpu) = cpu_timed(|| pipeline(&mut marker, seeds(seed).learner, t));
    let mut out = out?;
    drop(marker);
    let st = dev.stats();
    out.loads = st.loads;
    out.l2_hits = st.l2_hits;
    out.l2_misses = st.l2_misses;
    out.row_conflicts = st.row_conflicts;
    Ok((out, cpu))
}

/// Oracle scoring: marking agreement, mislabelled marked partitions and
/// held-out lookup-table accuracy.
struct Score {
    mislabelled: usize,
    mark_agreement: f64,
    held_out: usize,
    accuracy: f64,
}

fn score(p: &Pipeline) -> Score {
    let hash = MODEL.channel_hash();
    let (mapping, mark_agreement) =
        align_classes(&p.labels, |pa| hash.channel_of(pa), hash.num_channels());
    let mislabelled = p
        .labels
        .iter()
        .filter(|&&(pa, c)| mapping[c as usize] != Some(hash.channel_of(pa)))
        .count();
    let marked: BTreeSet<u64> = p.labels.iter().map(|(pa, _)| pa.partition()).collect();
    let held_out: Vec<u64> = (0..LUT_PARTITIONS)
        .filter(|q| !marked.contains(q))
        .collect();
    let correct = held_out
        .iter()
        .filter(|&&q| {
            mapping.get(p.lut[q as usize] as usize).copied().flatten()
                == Some(hash.channel_of_partition(q))
        })
        .count();
    Score {
        mislabelled,
        mark_agreement,
        held_out: held_out.len(),
        accuracy: correct as f64 / held_out.len() as f64,
    }
}

/// The paper's §5.3 claim: the learned mapping is over 99.9% accurate.
const MIN_ACCURACY: f64 = 0.999;

fn check(p: &Pipeline, s: &Score) -> Result<(), String> {
    let channels = MODEL.spec().num_channels as usize;
    if p.classes != channels {
        return Err(format!(
            "found {} channel classes, the card has {channels}",
            p.classes
        ));
    }
    if s.accuracy < MIN_ACCURACY {
        return Err(format!(
            "held-out accuracy {:.5} below {MIN_ACCURACY}",
            s.accuracy
        ));
    }
    if p.alloc_failures != 0 {
        return Err(format!("{} colored allocations failed", p.alloc_failures));
    }
    Ok(())
}

fn summary(p: &Pipeline, s: &Score) -> String {
    format!(
        "reveng: partitions marked {}, mislabelled {} (agreement {:.5}), {} classes in {} groups; \
         held-out partitions {}, accuracy {:.5}; {} simulated loads",
        p.labels.len(),
        s.mislabelled,
        s.mark_agreement,
        p.classes,
        p.groups.len(),
        s.held_out,
        s.accuracy,
        p.loads
    )
}

/// The simulated metrics of `seeds.json`.
fn simulated(p: &Pipeline, s: &Score) -> Metrics {
    let mut m = Metrics::new();
    m.put("reveng_accuracy", s.accuracy);
    m.put("failed_share", s.mislabelled as f64 / p.labels.len() as f64);
    m
}

/// Set-ups timed before each repetition.
const SETUPS_PER_ROUND: usize = 2;

/// The untraced run.
pub fn measured(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (m, _) = measure(
        seconds,
        SETUPS_PER_ROUND,
        || setup(seed, &mut Tracer::disabled()),
        |_| rep(seed, &mut Tracer::disabled()),
    )?;
    let out = &m.output;
    let s = score(out);
    check(out, &s)?;
    let mut metrics = m.host_metrics();
    metrics.put("goal_met_share", s.accuracy);
    Ok(Outcome {
        attempted: m.cpu_s.len() as u64,
        metrics,
        simulated: simulated(out, &s),
        summary: [summary(out, &s)]
            .into_iter()
            .chain(m.timing_lines())
            .collect(),
    })
}

/// The traced run: spans around each stage, checked against an
/// untraced repetition.
pub fn traced(seed: u64, seconds: f64, tracer_out: &mut Option<Tracer>) -> Result<Outcome, String> {
    let start = std::time::Instant::now();
    let mut plain_cpu = Vec::new();
    let mut traced_cpu = Vec::new();
    let mut last = None;
    while traced_cpu.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (plain, plain_s) = cpu_timed(|| {
            setup(seed, &mut Tracer::disabled())?;
            rep(seed, &mut Tracer::disabled())
        });
        let mut tracer = Tracer::new();
        let (traced, traced_s) = cpu_timed(|| {
            tracer.span("setup", |t| setup(seed, t))?;
            rep(seed, &mut tracer)
        });
        let (plain, traced) = (plain?.0, traced?.0);
        if traced != plain {
            return Err("traced pipeline differs from the untraced one".into());
        }
        plain_cpu.push(plain_s);
        traced_cpu.push(traced_s);
        last = Some((traced, tracer, traced_s));
    }
    let (p, tracer, round) = last.expect("one traced repetition");
    let share = |span: &str| tracer.cpu_s(span) / round;
    let s = score(&p);
    check(&p, &s)?;
    let mut m = Metrics::new();
    m.put("mem.loads", p.loads as f64);
    m.put("mem.l2_hits", p.l2_hits as f64);
    m.put("mem.row_conflicts", p.row_conflicts as f64);
    m.put("reveng.calibrate_share", share("reveng.calibrate"));
    m.put("reveng.mark_share", share("reveng.mark"));
    m.put("reveng.marked", p.labels.len() as f64);
    m.put("reveng.classes", p.classes as f64);
    m.put("reveng.analyze_share", share("reveng.analyze"));
    m.put("learner.train_share", share("learner.train"));
    m.put("learner.samples", p.labels.len() as f64);
    m.put("learner.lut_share", share("learner.lut"));
    m.put("coloring.pool_share", share("coloring.pool"));
    m.put("coloring.chunks", p.chunks as f64);
    m.put("coloring.allocs", p.allocs as f64);
    m.put("coloring.alloc_failures", p.alloc_failures as f64);
    m.put("ops.sent", p.labels.len() as f64);
    m.put("ops.completed", (p.labels.len() - s.mislabelled) as f64);
    m.put("ops.failed", s.mislabelled as f64);
    m.put("tracing.round_cpu_s", round);
    m.put(
        "tracing.overhead",
        median(&traced_cpu) / median(&plain_cpu) - 1.0,
    );
    // No model is compiled or served and no fleet runs here.
    m.idle(&per_layer(), SERVING_SETUP);
    m.idle(&per_layer(), FIG17_CELL);
    m.idle(&per_layer(), FLEET_LAYERS);
    let line = format!(
        "reveng traced: {} repetitions matched the untraced pipeline exactly",
        traced_cpu.len()
    );
    *tracer_out = Some(tracer);
    Ok(Outcome {
        attempted: traced_cpu.len() as u64,
        metrics: m,
        simulated: simulated(&p, &s),
        summary: vec![summary(&p, &s), line],
    })
}
