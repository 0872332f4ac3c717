//! The replay workload: synthesized captures pushed snapshot by snapshot
//! through `ForceEstimator::push_snapshot`, the way `wiforce-cli replay`
//! consumes a recorded reader stream. Nothing is synthesized while the
//! clock runs.

use crate::alloc;
use crate::gen::Capture;
use crate::press::same_bits;
use crate::stats::Outcomes;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wiforce::harmonics::extract_lines;
use wiforce::{EstimatorConfig, ForceEstimator, ForceReading, SensorModel, Simulation};

/// Per-layer samples of traced replay passes.
#[derive(Debug, Default)]
pub struct Layers {
    /// Every `push_snapshot` call, ns.
    pub push_ns: Vec<f64>,
    /// The `push_snapshot` calls that complete a group, µs.
    pub complete_us: Vec<f64>,
    /// `harmonics::extract_lines` on each completed group, called
    /// separately from the estimator, µs.
    pub extract_us: Vec<f64>,
    pub allocs: u64,
    pub groups: u64,
}

/// The estimator configuration `wiforce-cli replay` uses, locking its
/// reference on a capture's first `reference_groups` groups.
pub fn estimator_config(sim: &Simulation, reference_groups: usize) -> EstimatorConfig {
    EstimatorConfig {
        group: sim.group,
        reference_groups,
        ..EstimatorConfig::wiforce(sim.group.line1_hz)
    }
}

/// One pass over the capture with a fresh estimator. Scores each press
/// group's reading into `out` (latency = the completing push) and
/// returns the readings in press order (`None` = failed).
pub fn pass(
    capture: &Capture,
    cfg: &EstimatorConfig,
    model: &SensorModel,
    out: &mut Outcomes,
    mut trace: Option<&mut Layers>,
) -> Vec<Option<ForceReading>> {
    let mut est = ForceEstimator::new(*cfg, model.clone());
    let n = cfg.group.n_snapshots;
    let snaps = &capture.recording.snapshots;
    let mut readings = Vec::with_capacity(capture.presses.len());
    for (i, row) in snaps.rows().enumerate() {
        let a0 = alloc::allocs();
        let t = Instant::now();
        let r = est.push_snapshot(row);
        let dt = t.elapsed();
        let completes = (i + 1) % n == 0;
        let g = i / n;
        if let Some(tr) = trace.as_deref_mut() {
            tr.allocs += alloc::allocs() - a0;
            tr.push_ns.push(dt.as_secs_f64() * 1e9);
            if completes {
                tr.groups += 1;
                tr.complete_us.push(dt.as_secs_f64() * 1e6);
                let group = snaps.rows_view(g * n, n);
                let te = Instant::now();
                black_box(extract_lines(
                    &cfg.group,
                    group,
                    g as f64 * cfg.group.group_duration_s(),
                ));
                tr.extract_us.push(te.elapsed().as_secs_f64() * 1e6);
            }
        }
        if completes && g >= capture.reference_groups {
            let press = &capture.presses[g - capture.reference_groups];
            let reading = r.ok().flatten();
            out.score_timed(press.truth(), reading.as_ref(), dt.as_secs_f64() * 1e6);
            readings.push(reading);
        }
    }
    readings
}

fn same(a: &[Option<ForceReading>], b: &[Option<ForceReading>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => same_bits(x, y),
            (None, None) => true,
            _ => false,
        })
}

/// Replays captures in turn: `blocks` blocks of `per_block` captures,
/// each capture back to back for an equal share of `dur`. `make(i)`
/// synthesizes capture `i` outside the timed slices. Errors are scored on
/// each capture's first pass; every pass counts for throughput and
/// latency. Returns whether every pass over a capture gave bit-identical
/// readings.
pub fn run(
    make: impl Fn(u64) -> Capture,
    cfg: &EstimatorConfig,
    model: &SensorModel,
    dur: Duration,
    (blocks, per_block): (u32, u32),
    out: &mut Outcomes,
) -> bool {
    let mut repeatable = true;
    let slice = dur / (blocks * per_block);
    for b in 0..blocks {
        let mut done = 0u64;
        let mut busy = Duration::ZERO;
        for c in 0..per_block {
            let capture = make(u64::from(b * per_block + c));
            let mut first: Option<Vec<Option<ForceReading>>> = None;
            out.errors_done = false;
            let start = Instant::now();
            loop {
                let before = out.completed();
                let r = pass(&capture, cfg, model, out, None);
                done += out.completed() - before;
                out.errors_done = true;
                match &first {
                    None => first = Some(r),
                    Some(f) => repeatable &= same(f, &r),
                }
                if start.elapsed() >= slice {
                    break;
                }
            }
            busy += start.elapsed();
        }
        out.block_rate.push(done as f64 / busy.as_secs_f64());
    }
    repeatable
}

/// Traced replay: traced and untraced passes alternate for `dur`.
/// Returns whether the traced readings equal the untraced ones.
pub fn run_traced(
    capture: &Capture,
    cfg: &EstimatorConfig,
    model: &SensorModel,
    dur: Duration,
    l: &mut Layers,
    out: &mut Outcomes,
) -> bool {
    let untraced = pass(capture, cfg, model, out, None);
    out.errors_done = true;
    let mut equal = true;
    let end = Instant::now() + dur;
    let mut traced_passes = 0;
    while traced_passes == 0 || Instant::now() < end {
        let traced = pass(capture, cfg, model, out, Some(l));
        equal &= same(&traced, &untraced);
        equal &= same(&pass(capture, cfg, model, out, None), &untraced);
        traced_passes += 1;
    }
    equal
}
