//! The batch workload: `batch::run_batch` serving one reader with
//! frequency-multiplexed tags on the `Stall` overflow policy.

use crate::gen;
use crate::stats::{median, Outcomes};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wiforce::batch::{run_batch, BatchConfig, BatchReport, ReaderSpec};
use wiforce::{SensorModel, Simulation};

/// What a batch run serves: blocks of `presses` presses per stream on
/// `sim`'s scene, schedules drawn from `seed`.
pub struct Plan<'a> {
    pub sim: &'a Simulation,
    pub model: &'a Arc<SensorModel>,
    pub seed: u64,
    pub presses: usize,
}

/// One block of the workload at `workers` threads.
pub fn run_block(
    sim: &Simulation,
    model: &Arc<SensorModel>,
    spec: &ReaderSpec,
    workers: usize,
) -> Result<BatchReport, String> {
    run_batch(
        sim,
        model,
        std::slice::from_ref(spec),
        &BatchConfig::wiforce(workers),
    )
    .map_err(|e| format!("run_batch: {e}"))
}

/// Force errors split by position in each stream: first and last quarter.
#[derive(Debug, Default)]
pub struct Quarters {
    pub first: Vec<f64>,
    pub last: Vec<f64>,
}

/// Scores a block against its schedule. Every press slot either yields a
/// reading or is counted as failed; latency per group is the engine's
/// produce→consume latency, with failed groups counted as over any limit.
/// Returns whether `press readings + failures` accounts for every slot.
pub fn score(
    spec: &ReaderSpec,
    report: &BatchReport,
    out: &mut Outcomes,
    q: &mut Quarters,
) -> bool {
    let reference_groups = BatchConfig::wiforce(1).reference_groups;
    let mut accounted = true;
    for (sched, stream) in spec.streams.iter().zip(&report.streams) {
        let n = sched.presses.len();
        let mut got = vec![None; n];
        for r in &stream.readings {
            if let Some(p) = r.press {
                got[p] = Some(r.reading);
            }
        }
        let mut ok = vec![false; n];
        for (p, truth) in sched.presses.iter().enumerate() {
            let err = out.score((truth.force_n, truth.location_m), got[p].as_ref());
            ok[p] = err.is_some();
            match err {
                Some(e) if p < n / 4 => q.first.push(e),
                Some(e) if p >= n - n / 4 => q.last.push(e),
                _ => {}
            }
        }
        for (g, &ns) in stream.latencies_ns.iter().enumerate() {
            let failed = g
                .checked_sub(reference_groups)
                .is_some_and(|p| p < n && !ok[p]);
            out.lat_us.push(if failed {
                f64::INFINITY
            } else {
                ns as f64 / 1e3
            });
        }
        let readings = stream.readings.iter().filter(|r| r.press.is_some()).count();
        accounted &= readings as u64 + stream.failures == n as u64;
    }
    accounted
}

/// Serves back-to-back blocks of `presses` presses per stream for `dur`
/// (at least one block). Returns the first block's spec and report for
/// the worker-invariance check, and whether every block accounted for
/// every press.
pub fn run(
    plan: &Plan,
    workers: usize,
    dur: Duration,
    out: &mut Outcomes,
    q: &mut Quarters,
) -> Result<(ReaderSpec, BatchReport, bool), String> {
    let end = Instant::now() + dur;
    let mut first = None;
    let mut accounted = true;
    let mut block = 0;
    while first.is_none() || Instant::now() < end {
        let spec = gen::reader(plan.sim, plan.seed, block, plan.presses)?;
        let t = Instant::now();
        let report = run_block(plan.sim, plan.model, &spec, workers)?;
        let wall = t.elapsed().as_secs_f64();
        let before = out.completed();
        accounted &= score(&spec, &report, out, q);
        out.block_rate
            .push((out.completed() - before) as f64 / wall);
        if first.is_none() {
            first = Some((spec, report));
        }
        block += 1;
    }
    let (spec, report) = first.expect("at least one block ran");
    Ok((spec, report, accounted))
}

/// Per-layer figures of the traced batch run.
#[derive(Debug, Default)]
pub struct Layers {
    pub backpressure_events: u64,
    pub groups_produced: u64,
    pub groups_dropped: u64,
    pub failures: u64,
    pub cpu_s: f64,
    pub wall_s: f64,
    /// Per pair: presses/s at `nproc` workers over `nproc` × presses/s at 1.
    pub scaling: Vec<f64>,
}

/// Traced batch run: pairs of blocks on one spec, at 1 worker and at
/// `nproc` workers (order alternating, the channel cache emptied before
/// each so neither reuses the other's tables). Returns whether every pair
/// was `deterministic_eq` and every block accounted for every press.
pub fn run_traced(
    plan: &Plan,
    nproc: usize,
    dur: Duration,
    l: &mut Layers,
    out: &mut Outcomes,
    q: &mut Quarters,
) -> Result<bool, String> {
    let end = Instant::now() + dur;
    let mut ok = true;
    let mut pair = 0u64;
    let cpu0 = crate::host::cpu_seconds();
    let wall0 = Instant::now();
    while pair == 0 || Instant::now() < end {
        let spec = gen::reader(plan.sim, plan.seed, (1 << 20) + pair, plan.presses)?;
        let order = if pair.is_multiple_of(2) {
            [1, nproc]
        } else {
            [nproc, 1]
        };
        let mut reports = Vec::new();
        for workers in order {
            plan.sim.channel_cache.invalidate();
            let t = Instant::now();
            let report = run_block(plan.sim, plan.model, &spec, workers)?;
            let pps = report.press_readings() as f64 / t.elapsed().as_secs_f64();
            if workers == nproc {
                ok &= score(&spec, &report, out, q);
                l.backpressure_events += report.backpressure_events;
                l.groups_produced += report.groups_produced;
                l.groups_dropped += report.groups_dropped;
                l.failures += report.streams.iter().map(|s| s.failures).sum::<u64>();
            }
            reports.push((workers, pps, report));
        }
        ok &= reports[0].2.deterministic_eq(&reports[1].2);
        let pps = |w: usize| reports.iter().find(|r| r.0 == w).map_or(0.0, |r| r.1);
        l.scaling.push(pps(nproc) / (nproc as f64 * pps(1)));
        pair += 1;
    }
    l.cpu_s = crate::host::cpu_seconds() - cpu0;
    l.wall_s = wall0.elapsed().as_secs_f64();
    Ok(ok)
}

/// `force_err_q4_over_q1` of [`Quarters`]; 1.0 when either side is empty.
pub fn quarter_ratio(q: &Quarters) -> f64 {
    if q.first.is_empty() || q.last.is_empty() {
        return 1.0;
    }
    median(&q.last) / median(&q.first)
}
