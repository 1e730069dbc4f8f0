//! Reverse engineering walkthrough (paper §5): probe a black-box simulated
//! GPU with latency measurements only, mark a contiguous region, recover
//! the permutation structure, then train the hash learner and build the
//! lookup table. Exits non-zero when the table misses §5.3's >99.9%
//! accuracy.
//!
//! ```sh
//! cargo run --release --example reverse_engineer
//! ```

use sgdrc_repro::gpu_spec::GpuModel;
use sgdrc_repro::mem_sim::GpuDevice;
use sgdrc_repro::reveng::{
    align_classes, analyze, render_fig8, ChannelMarker, MarkerConfig, MlpConfig, MlpHashLearner,
    Sample,
};
use std::process::ExitCode;

/// §5.3: the learned lookup table is more than 99.9% accurate.
const ACCURACY_FLOOR: f64 = 0.999;

fn main() -> ExitCode {
    let model = GpuModel::RtxA2000;
    let mut dev = GpuDevice::new(model, 96 << 20, 7);
    println!(
        "probing a simulated {} through load latencies only...",
        model.name()
    );

    // 1. Calibrate thresholds, build per-channel conflict pools, and mark
    //    eight 144-partition layout periods of a physically contiguous
    //    region (Algo 1-3).
    let mut marker = ChannelMarker::new(&mut dev, MarkerConfig::default()).expect("marker");
    let (start, len) = marker.longest_contiguous_run();
    let count = (144 * 8).min(len);
    let labels = marker.mark_indexed(start, count).expect("marking");
    println!(
        "marked {count} partitions; discovered {} channel classes",
        marker.num_classes()
    );

    // 2. Recover the §5.2 structure: blocks, groups, m-permutations.
    let report = analyze(&labels);
    println!(
        "block = {} KiB, {} groups, window = {} partitions, patterns/group = {:?}",
        report.block_size,
        report.groups.len(),
        report.window,
        report.patterns_per_group
    );
    print!("{}", render_fig8(&report, 0));

    // 3. Train the MLP hash learner on the marked samples (raw labels are
    //    noisy, exactly like the paper's 15K-sample collection).
    let samples: Vec<Sample> = labels
        .iter()
        .map(|&(pa, label)| Sample {
            partition: pa.partition(),
            label,
        })
        .collect();
    let learner = MlpHashLearner::train(&samples, &MlpConfig::default());
    let lut = learner.lookup_table(4096);

    // 4. Verify against the oracle — allowed here, never in the pipeline.
    let hash = model.channel_hash();
    let (mapping, acc) = align_classes(&labels, |pa| hash.channel_of(pa), hash.num_channels());
    println!("marking agreement with ground truth: {:.2}%", acc * 100.0);
    let correct = (0..lut.len() as u64)
        .filter(|&p| {
            mapping.get(lut[p as usize] as usize).copied().flatten()
                == Some(hash.channel_of_partition(p))
        })
        .count();
    let lut_acc = correct as f64 / lut.len() as f64;
    println!(
        "lookup table for 4096 partitions (4 MiB of VRAM): {:.2}% accurate after {} epochs",
        lut_acc * 100.0,
        learner.epochs_trained()
    );
    if lut_acc > ACCURACY_FLOOR {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lookup table below the §5.3 floor of {:.1}%",
            ACCURACY_FLOOR * 100.0
        );
        ExitCode::FAILURE
    }
}
