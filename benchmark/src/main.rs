//! WiForce benchmark: one command that generates seeded inputs, drives the
//! library through its public entry points, checks the outputs, and prints
//! the end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run) as one JSON line. See `README.md` for the metrics and workloads.
//!
//! ```text
//! wiforce-benchmark --workload <press_seq|serve_batch|press_fallback|replay_capture>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```

mod alloc;
mod gen;
mod host;
mod press;
mod replay;
mod serve;
mod stats;

use gen::{Capture, PressGen};
use stats::{median, tail, Outcomes, TAIL_SAMPLES};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wiforce::{SensorModel, Simulation};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics (untraced run), with units. Must match BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("presses_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("force_err_median_n", "N"),
    ("loc_err_median_mm", "mm"),
    ("success_share", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run), with units. Must match BENCHMARK.json.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("mech.jittered_contact.p50_us", "us"),
    ("pipeline.measure_phases.p50_us", "us"),
    ("pipeline.measure_phases.p99_us", "us"),
    ("model.invert.p50_us", "us"),
    ("tracking.update.p50_us", "us"),
    ("press.unattributed.p50_us", "us"),
    ("trace_overhead_pct", "%"),
    ("mech.allocs_per_press", "count"),
    ("pipeline.measure_phases.allocs_per_press", "count"),
    ("model.invert.allocs_per_press", "count"),
    ("estimator.allocs_per_group", "count"),
    ("channel.cache_hit_ratio", "ratio"),
    ("channel.response_memo_hit_ratio", "ratio"),
    ("batch.backpressure_per_kgroup", "1/kgroup"),
    ("batch.groups_dropped", "count"),
    ("batch.failures", "count"),
    ("process.cpu_util", "ratio"),
    ("batch.scaling_efficiency", "ratio"),
    ("batch.force_err_q4_over_q1", "ratio"),
    ("harmonics.extract_lines.p50_us", "us"),
    ("estimator.group_complete.p50_us", "us"),
    ("estimator.push_snapshot.p50_ns", "ns"),
    ("calib.vna_calibration_ms", "ms"),
];

/// Carrier of every workload's scene (the paper's 2.4 GHz setup).
const CARRIER_HZ: f64 = 2.4e9;
/// Snapshot drop probability of `press_fallback`'s lossy link: outside
/// the spectral envelope, so every press takes the time-domain reference.
const LOSSY_DROP_PROB: f64 = 0.02;
/// Loose sanity bands on the median errors: a run outside them is wrong,
/// not merely inaccurate (the paper reports ≈0.5 N and ≈0.6 mm).
const FORCE_BAND_N: f64 = 2.0;
const LOC_BAND_MM: f64 = 3.0;
/// No-touch groups at the head of every capture.
const CAPTURE_REFERENCE_GROUPS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PressSeq,
    ServeBatch,
    PressFallback,
    ReplayCapture,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PressSeq,
        Workload::ServeBatch,
        Workload::PressFallback,
        Workload::ReplayCapture,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PressSeq => "press_seq",
            Workload::ServeBatch => "serve_batch",
            Workload::PressFallback => "press_fallback",
            Workload::ReplayCapture => "replay_capture",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's scene: the paper's default setup, on a lossy link
    /// for `press_fallback`.
    fn scene(self) -> Simulation {
        let mut sim = Simulation::paper_default(CARRIER_HZ);
        if self == Workload::PressFallback {
            sim.faults.snapshot_drop_prob = LOSSY_DROP_PROB;
        }
        sim
    }
}

/// Workload sizes. Fixed for the benchmark; the self-tests shrink them.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// Presses per stream in one `serve_batch` block.
    batch_presses: usize,
    /// Press groups per `replay_capture` capture. One reference and two
    /// press groups (≈1.9 MB) stay cache-resident, like a live stream's
    /// just-arrived snapshots; a capture of dozens of groups streams from
    /// the shared L3 or DRAM, and its replay latency then changed by up to
    /// 60% from one allocation to the next.
    capture_presses: usize,
    /// `replay_capture` captures per block, one in memory at a time.
    captures_per_block: u32,
    /// Presses (or first-batch presses per stream) run during set-up.
    warmup_presses: usize,
    /// Fresh processes whose set-up is timed beside this one's.
    setup_probes: usize,
    /// Blocks per untraced press or replay run (throughput is their median).
    blocks: u32,
    /// Timed `vna_calibration` repeats in the traced run.
    calib_repeats: usize,
}

const FULL: Scale = Scale {
    batch_presses: 250,
    capture_presses: 2,
    captures_per_block: 32,
    warmup_presses: 16,
    setup_probes: 8,
    blocks: 10,
    calib_repeats: 5,
};

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

const USAGE: &str = "usage: wiforce-benchmark --workload <press_seq|serve_batch|press_fallback|replay_capture> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut setup_probe = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                setup_probe = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            setup_probe,
        })
    }
}

/// A set-up system: the scene and its calibrated model.
struct Rig {
    sim: Simulation,
    model: Arc<SensorModel>,
}

/// Builds, calibrates and warms the workload's system: the set-up a
/// deployment pays before its first reading. Returns it with its wall
/// time, s.
fn setup(
    w: Workload,
    seed: u64,
    scale: &Scale,
    warm: Option<&Capture>,
) -> Result<(Rig, f64), String> {
    let t = Instant::now();
    let sim = w.scene();
    let model = Arc::new(
        sim.vna_calibration()
            .map_err(|e| format!("calibration: {e}"))?,
    );
    match w {
        Workload::PressSeq | Workload::PressFallback => {
            let mut tracker =
                wiforce::tracking::Tracker::new(wiforce::tracking::TrackerConfig::wiforce());
            for p in PressGen::new(seed, gen::stream::WARMUP).take(scale.warmup_presses) {
                // a warm-up press may fail like any other; only its cost matters here
                let _ = press::press(&sim, &model, &mut tracker, &p);
            }
        }
        Workload::ServeBatch => {
            let spec = gen::reader(&sim, seed, u64::MAX, scale.warmup_presses / 4 + 1)?;
            serve::run_block(&sim, &model, &spec, host::nproc())?;
        }
        Workload::ReplayCapture => {
            let warm = warm.ok_or("replay set-up needs its warm-up capture")?;
            let cfg = replay::estimator_config(&sim, CAPTURE_REFERENCE_GROUPS);
            replay::pass(warm, &cfg, &model, &mut Outcomes::default(), None);
        }
    }
    Ok((Rig { sim, model }, t.elapsed().as_secs_f64()))
}

/// The small capture replay set-up warms on (an input, made before the
/// set-up clock starts).
fn warm_capture(w: Workload, seed: u64, scale: &Scale) -> Option<Capture> {
    (w == Workload::ReplayCapture).then(|| {
        Capture::synthesize(
            &w.scene(),
            seed,
            u64::MAX,
            CAPTURE_REFERENCE_GROUPS,
            scale.capture_presses,
        )
    })
}

/// Set-up time of `n` fresh processes of this executable.
fn setup_probes(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .map_err(|e| format!("running set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let value = text
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok());
            match (out.status.success(), value) {
                (true, Some(v)) => Ok(v),
                _ => Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// Everything a run reports.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    checks: Vec<(&'static str, bool)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, note: Option<String>) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric is declared");
        self.metrics.push((name, value, unit));
        if let Some(n) = note {
            self.notes.push(format!("{name}: {n}"));
        }
    }

    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    fn count(&mut self, out: &Outcomes) {
        self.attempted += out.attempted;
        self.failed += out.failed;
    }

    /// The metrics must be exactly the declared set, each finite.
    fn complete(&self, declared: &[(&str, &str)]) -> bool {
        self.metrics.len() == declared.len()
            && declared.iter().all(|(n, u)| {
                self.metrics
                    .iter()
                    .any(|m| m.0 == *n && m.2 == *u && m.1.is_finite())
            })
    }

    fn correct(&self, declared: &[(&str, &str)]) -> bool {
        self.attempted > 0 && self.complete(declared) && self.checks.iter().all(|c| c.1)
    }

    fn json(&self, declared: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                // a non-finite value fails `complete`; keep the line valid JSON
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(declared),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Accuracy metrics and their sanity check.
fn accuracy(r: &mut Report, out: &Outcomes) {
    let (force, loc) = if out.force_err_n.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (median(&out.force_err_n), median(&out.loc_err_mm))
    };
    let n = Some(format!("n={}", out.force_err_n.len()));
    r.metric("force_err_median_n", force, n.clone());
    r.metric("loc_err_median_mm", loc, n);
    r.check(
        "median errors inside the sanity bands",
        force <= FORCE_BAND_N && loc <= LOC_BAND_MM,
    );
}

/// Untraced run: the end-to-end metrics.
fn untraced(args: &Args, scale: &Scale, rig: &Rig, r: &mut Report) -> Result<(), String> {
    let dur = Duration::from_secs_f64(args.seconds);
    let mut out = Outcomes::default();
    let started = Instant::now();
    match args.workload {
        Workload::PressSeq | Workload::PressFallback => {
            let mut gen = PressGen::new(args.seed, gen::stream::MEASURE);
            press::run(&rig.sim, &rig.model, &mut gen, dur, scale.blocks, &mut out);
        }
        Workload::ServeBatch => {
            let workers = host::nproc();
            let mut q = serve::Quarters::default();
            let plan = serve::Plan {
                sim: &rig.sim,
                model: &rig.model,
                seed: args.seed,
                presses: scale.batch_presses,
            };
            let (spec, report, accounted) = serve::run(&plan, workers, dur, &mut out, &mut q)?;
            r.check(
                "every batch press is a reading or a counted failure",
                accounted,
            );
            let single = serve::run_block(&rig.sim, &rig.model, &spec, 1)?;
            r.check(
                "batch at nproc workers deterministic_eq to 1 worker",
                report.deterministic_eq(&single),
            );
            r.notes.push(format!(
                "batch: {} blocks of {} streams x {} presses",
                out.block_rate.len(),
                spec.streams.len(),
                scale.batch_presses
            ));
        }
        Workload::ReplayCapture => {
            let scene = args.workload.scene();
            let make = |b| {
                Capture::synthesize(
                    &scene,
                    args.seed,
                    b,
                    CAPTURE_REFERENCE_GROUPS,
                    scale.capture_presses,
                )
            };
            let cfg = replay::estimator_config(&rig.sim, CAPTURE_REFERENCE_GROUPS);
            let repeatable = replay::run(
                make,
                &cfg,
                &rig.model,
                dur,
                (scale.blocks, scale.captures_per_block),
                &mut out,
            );
            r.check("every replay pass gives bit-identical readings", repeatable);
        }
    }
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    r.count(&out);
    let rates: Vec<String> = out.block_rate.iter().map(|v| format!("{v:.0}")).collect();
    r.metric(
        "presses_per_s",
        median(&out.block_rate),
        Some(format!("median of blocks [{}]", rates.join(" "))),
    );
    let (t, chunks) = out.lat_us.summary().ok_or("no operation ran")?;
    // a failed operation is over any limit: if failures reach the tail,
    // report the whole run's wall time as its latency
    let cap = |v: f64| if v.is_finite() { v } else { wall_us };
    let note = format!("median over {chunks} chunks of n={} samples", t.n);
    r.metric("latency_p50_us", cap(t.p50), Some(note.clone()));
    r.metric(
        "latency_p99_us",
        cap(t.tail),
        Some(format!(
            "{note}, p{:.2} of each (at least {TAIL_SAMPLES} samples beyond)",
            t.tail_q * 100.0
        )),
    );
    accuracy(r, &out);
    r.metric(
        "success_share",
        ratio(out.completed() as f64, out.attempted as f64),
        Some(format!(
            "{} of {} attempted failed",
            out.failed, out.attempted
        )),
    );
    r.check(
        "every attempt is a completion or a counted failure",
        out.completed() + out.failed == out.attempted,
    );
    Ok(())
}

/// Traced run: the per-layer metrics. Every workload runs the press,
/// replay and batch layers on its own scene; its own layers get the
/// larger share of the time.
fn traced(
    args: &Args,
    scale: &Scale,
    rig: &Rig,
    capture: &Capture,
    r: &mut Report,
) -> Result<(), String> {
    let secs = args.seconds;
    let [press_share, replay_share, batch_share] = match args.workload {
        Workload::PressSeq | Workload::PressFallback => [0.6, 0.2, 0.2],
        Workload::ServeBatch => [0.2, 0.2, 0.6],
        Workload::ReplayCapture => [0.2, 0.6, 0.2],
    };
    let dur = |share: f64| Duration::from_secs_f64(secs * share);
    let (sim, model) = (&rig.sim, &rig.model);

    let mut out = Outcomes::default();
    let mut pl = press::Layers::default();
    let mut gen = PressGen::new(args.seed, gen::stream::MEASURE);
    let identical = press::run_traced(sim, model, &mut gen, dur(press_share), &mut pl, &mut out);
    r.check(
        "traced press layers bit-identical to measure_press",
        identical,
    );
    r.count(&out);

    let mut out = Outcomes::default();
    let mut rl = replay::Layers::default();
    let cfg = replay::estimator_config(sim, CAPTURE_REFERENCE_GROUPS);
    let equal = replay::run_traced(capture, &cfg, model, dur(replay_share), &mut rl, &mut out);
    r.check("traced replay readings equal untraced", equal);
    r.count(&out);

    let mut out = Outcomes::default();
    let mut bl = serve::Layers::default();
    let mut q = serve::Quarters::default();
    let presses = if args.workload == Workload::ServeBatch {
        scale.batch_presses
    } else {
        scale.batch_presses / 4
    };
    let plan = serve::Plan {
        sim,
        model,
        seed: args.seed,
        presses,
    };
    let ok = serve::run_traced(
        &plan,
        host::nproc(),
        dur(batch_share),
        &mut bl,
        &mut out,
        &mut q,
    )?;
    r.check(
        "batch 1 vs nproc workers deterministic_eq, every press accounted",
        ok,
    );
    r.count(&out);

    let calib_ms: Vec<f64> = (0..scale.calib_repeats)
        .map(|_| {
            let t = Instant::now();
            let m = sim.vna_calibration();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            m.map(|_| ms).map_err(|e| format!("calibration: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let n = |v: &[f64]| Some(format!("n={}", v.len()));
    let presses_n = pl.presses as f64;
    r.metric(
        "mech.jittered_contact.p50_us",
        median(&pl.mech_us),
        n(&pl.mech_us),
    );
    r.metric(
        "pipeline.measure_phases.p50_us",
        median(&pl.phases_us),
        n(&pl.phases_us),
    );
    let t = tail(&pl.phases_us);
    r.metric(
        "pipeline.measure_phases.p99_us",
        t.tail,
        Some(format!("p{:.2} of n={}", t.tail_q * 100.0, t.n)),
    );
    r.metric(
        "model.invert.p50_us",
        median(&pl.invert_us),
        n(&pl.invert_us),
    );
    r.metric(
        "tracking.update.p50_us",
        median(&pl.track_us),
        n(&pl.track_us),
    );
    r.metric(
        "press.unattributed.p50_us",
        median(&pl.unattributed_us),
        n(&pl.unattributed_us),
    );
    r.metric(
        "trace_overhead_pct",
        (median(&pl.traced_us) / median(&pl.untraced_us) - 1.0) * 100.0,
        Some(format!(
            "traced n={}, untraced n={}",
            pl.traced_us.len(),
            pl.untraced_us.len()
        )),
    );
    r.metric(
        "mech.allocs_per_press",
        ratio(pl.mech_allocs as f64, presses_n),
        None,
    );
    r.metric(
        "pipeline.measure_phases.allocs_per_press",
        ratio(pl.phases_allocs as f64, presses_n),
        None,
    );
    r.metric(
        "model.invert.allocs_per_press",
        ratio(pl.invert_allocs as f64, presses_n),
        None,
    );
    r.metric(
        "estimator.allocs_per_group",
        ratio(rl.allocs as f64, rl.groups as f64),
        None,
    );
    let hit = |(h, m): (u64, u64)| ratio(h as f64, (h + m) as f64);
    r.metric(
        "channel.cache_hit_ratio",
        hit(pl.cache),
        Some(format!("{:?} (hits, misses)", pl.cache)),
    );
    r.metric(
        "channel.response_memo_hit_ratio",
        hit(pl.memo),
        Some(format!("{:?} (hits, misses)", pl.memo)),
    );
    r.metric(
        "batch.backpressure_per_kgroup",
        ratio(
            bl.backpressure_events as f64 * 1e3,
            bl.groups_produced as f64,
        ),
        Some(format!(
            "{} events over {} groups",
            bl.backpressure_events, bl.groups_produced
        )),
    );
    r.metric("batch.groups_dropped", bl.groups_dropped as f64, None);
    r.metric("batch.failures", bl.failures as f64, None);
    r.metric(
        "process.cpu_util",
        ratio(bl.cpu_s, bl.wall_s),
        Some("over the batch run".into()),
    );
    r.metric(
        "batch.scaling_efficiency",
        median(&bl.scaling),
        Some(format!(
            "median of {} pairs at {} workers",
            bl.scaling.len(),
            host::nproc()
        )),
    );
    r.metric(
        "batch.force_err_q4_over_q1",
        serve::quarter_ratio(&q),
        Some(format!("{} presses per stream", presses)),
    );
    r.metric(
        "harmonics.extract_lines.p50_us",
        median(&rl.extract_us),
        n(&rl.extract_us),
    );
    r.metric(
        "estimator.group_complete.p50_us",
        median(&rl.complete_us),
        n(&rl.complete_us),
    );
    r.metric(
        "estimator.push_snapshot.p50_ns",
        median(&rl.push_ns),
        n(&rl.push_ns),
    );
    r.metric("calib.vna_calibration_ms", median(&calib_ms), n(&calib_ms));
    Ok(())
}

fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let w = args.workload;
    let mut r = Report::default();
    alloc::set_counting(args.trace);
    r.notes.push(format!(
        "host: nproc={} cpu={:?} kernels={} batch_workers={} synth_workers={}",
        host::nproc(),
        host::cpu_model(),
        wiforce_dsp::kernels::backend().name(),
        host::nproc(),
        wiforce::parallel::default_workers(),
    ));

    // inputs first: they are files or schedules, not part of set-up
    let warm = warm_capture(w, args.seed, scale);
    let capture = args.trace.then(|| {
        Capture::synthesize(
            &w.scene(),
            args.seed,
            0,
            CAPTURE_REFERENCE_GROUPS,
            scale.capture_presses,
        )
    });
    let (busy0, steal0) = host::cpu_jiffies();
    let (rig, setup_s) = setup(w, args.seed, scale, warm.as_ref())?;
    if args.trace {
        let capture = capture.as_ref().expect("traced runs synthesize a capture");
        traced(args, scale, &rig, capture, &mut r)?;
    } else {
        let mut samples = vec![setup_s];
        samples.extend(setup_probes(args, scale.setup_probes)?);
        r.metric(
            "setup_s",
            median(&samples),
            Some(format!(
                "median of {} set-ups, one per process",
                samples.len()
            )),
        );
        untraced(args, scale, &rig, &mut r)?;
        r.metric("peak_rss_mib", host::peak_rss_mib(), None);
    }
    let (busy, steal) = host::cpu_jiffies();
    let (busy, steal) = (busy - busy0, steal - steal0);
    r.notes.push(format!(
        "host: steal {:.1}% of CPU time ({steal} stolen, {busy} busy jiffies)",
        ratio(steal as f64 * 100.0, (steal + busy) as f64)
    ));
    Ok(r)
}

fn main() -> ExitCode {
    // select the spectral arm the way a deployment does, before the
    // library reads its environment
    std::env::set_var("WIFORCE_SYNTH_SPECTRAL", "1");
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let warm = warm_capture(args.workload, args.seed, &FULL);
        return match setup(args.workload, args.seed, &FULL, warm.as_ref()) {
            Ok((_, s)) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match run(&args, &FULL) {
        Ok(r) => {
            println!(
                "# workload={} seed={} seconds={} trace={}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            for n in &r.notes {
                println!("# {n}");
            }
            for (name, ok) in &r.checks {
                println!("# check {}: {name}", if *ok { "ok" } else { "FAILED" });
            }
            for (name, v, unit) in &r.metrics {
                println!("# {name} = {v} {unit}");
            }
            println!("{}", r.json(declared));
            if r.correct(declared) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny sizes: every code path, a fraction of a second each.
    const TINY: Scale = Scale {
        batch_presses: 4,
        capture_presses: 2,
        captures_per_block: 2,
        warmup_presses: 2,
        setup_probes: 0,
        blocks: 2,
        calib_repeats: 1,
    };

    #[test]
    fn every_declared_metric_is_emitted_and_every_check_passes() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 5,
                    seconds: 0.05,
                    trace,
                    setup_probe: false,
                };
                let r = run(&args, &TINY).expect("run");
                let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                assert!(
                    r.complete(declared),
                    "{workload:?} trace={trace}: {:?}",
                    r.metrics
                );
                assert!(
                    r.checks.iter().all(|c| c.1),
                    "{workload:?} trace={trace}: {:?}",
                    r.checks
                );
                assert!(r.correct(declared));
                let line = r.json(declared);
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn declared_metrics_and_workloads_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        let listed: Vec<&str> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split_once("\", \"why\"").map(|(n, _)| n))
            .collect();
        assert!(listed.len() >= 2, "{listed:?}");
        for name in listed {
            assert!(Workload::parse(name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn args_reject_malformed_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let ok = parse("--workload replay_capture --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(ok.workload, Workload::ReplayCapture);
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 10.0);
        for bad in [
            "--workload nope --seed 1",
            "--workload press_seq",
            "--workload press_seq --seed x",
            "--workload press_seq --seed 1 --trace 2",
            "--workload press_seq --seed 1 --seconds -1",
            "--workload press_seq --seed 1 --seconds",
            "--workload press_seq --seed 1 --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
