//! The press workloads: `Simulation::measure_press` + `Tracker::update`
//! untraced, and the same press split into its public layer calls
//! (`jittered_contact` → `measure_phases` → `SensorModel::invert`, then
//! `Tracker::update`) when traced.

use crate::alloc;
use crate::gen::{Press, PressGen};
use crate::stats::Outcomes;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wiforce::tracking::{Tracker, TrackerConfig};
use wiforce::{ForceReading, SensorModel, Simulation, WiForceError};

/// The inversion residual limit `Simulation::measure_press` applies.
const MAX_RESIDUAL_RAD: f64 = 0.35;
/// Presses per traced or untraced block of the interleaved traced run.
const TRACE_BLOCK: usize = 16;
/// Traced presses re-run through `measure_press` for the bit-identity check.
const CHECK_PRESSES: usize = 64;

/// One untraced production press.
pub fn press(
    sim: &Simulation,
    model: &SensorModel,
    tracker: &mut Tracker,
    p: &Press,
) -> Result<ForceReading, WiForceError> {
    let reading = sim.measure_press(model, p.force_n, p.location_m, &mut p.rng())?;
    black_box(tracker.update(&reading));
    Ok(reading)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `blocks` equal blocks of back-to-back presses over `dur` (at
/// least one press per block).
pub fn run(
    sim: &Simulation,
    model: &SensorModel,
    gen: &mut PressGen,
    dur: Duration,
    blocks: u32,
    out: &mut Outcomes,
) {
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    for _ in 0..blocks {
        let start = Instant::now();
        let end = start + dur / blocks;
        let mut done = 0u64;
        loop {
            let p = gen.next_press();
            let t = Instant::now();
            let r = press(sim, model, &mut tracker, &p);
            let lat = us(t.elapsed());
            done += u64::from(out.score_timed(p.truth(), r.as_ref().ok(), lat));
            if Instant::now() >= end {
                break;
            }
        }
        out.block_rate
            .push(done as f64 / start.elapsed().as_secs_f64());
    }
}

/// Per-layer samples of the traced press run.
#[derive(Debug, Default)]
pub struct Layers {
    pub mech_us: Vec<f64>,
    pub phases_us: Vec<f64>,
    pub invert_us: Vec<f64>,
    pub track_us: Vec<f64>,
    /// Traced press wall time minus the sum of its layers.
    pub unattributed_us: Vec<f64>,
    pub traced_us: Vec<f64>,
    pub untraced_us: Vec<f64>,
    pub mech_allocs: u64,
    pub phases_allocs: u64,
    pub invert_allocs: u64,
    /// Presses whose three layer calls all ran (the alloc denominators).
    pub presses: u64,
    /// `SharedChannelCache::stats` delta over the run: (hits, misses).
    pub cache: (u64, u64),
    /// `SharedChannelCache::response_stats` delta over the run.
    pub memo: (u64, u64),
}

/// One traced press: each public layer call wrapped in its own
/// timestamps and allocation counts. Same calls, same RNG order, as
/// `Simulation::measure_press`, so the reading is bit-identical to it.
pub fn press_traced(
    sim: &Simulation,
    model: &SensorModel,
    tracker: &mut Tracker,
    p: &Press,
    l: &mut Layers,
) -> Result<ForceReading, WiForceError> {
    let mut rng = p.rng();
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let contact = sim.jittered_contact(p.force_n, p.location_m, &mut rng);
    let a1 = alloc::allocs();
    let t1 = Instant::now();
    let phases = sim.measure_phases(contact.as_ref(), &mut rng)?;
    let a2 = alloc::allocs();
    let t2 = Instant::now();
    let est = model.invert(phases.dphi1_rad, phases.dphi2_rad, MAX_RESIDUAL_RAD);
    let a3 = alloc::allocs();
    let t3 = Instant::now();
    let est = est?;
    let reading = ForceReading {
        force_n: est.force_n,
        location_m: est.location_m,
        dphi1_rad: phases.dphi1_rad,
        dphi2_rad: phases.dphi2_rad,
        residual_rad: est.residual_rad,
        touched: contact.is_some(),
    };
    let t4 = Instant::now();
    black_box(tracker.update(&reading));
    let t5 = Instant::now();
    let layers = [t1 - t0, t2 - t1, t3 - t2, t5 - t4];
    l.mech_us.push(us(layers[0]));
    l.phases_us.push(us(layers[1]));
    l.invert_us.push(us(layers[2]));
    l.track_us.push(us(layers[3]));
    let total = t5 - t0;
    l.traced_us.push(us(total));
    l.unattributed_us
        .push(us(total) - layers.iter().map(|d| us(*d)).sum::<f64>());
    l.mech_allocs += a1 - a0;
    l.phases_allocs += a2 - a1;
    l.invert_allocs += a3 - a2;
    l.presses += 1;
    Ok(reading)
}

/// Bitwise equality of two readings.
pub fn same_bits(a: &ForceReading, b: &ForceReading) -> bool {
    let bits = |r: &ForceReading| {
        [
            r.force_n.to_bits(),
            r.location_m.to_bits(),
            r.dphi1_rad.to_bits(),
            r.dphi2_rad.to_bits(),
            r.residual_rad.to_bits(),
        ]
    };
    a.touched == b.touched && bits(a) == bits(b)
}

fn delta(after: (u64, u64), before: (u64, u64)) -> (u64, u64) {
    (
        after.0.saturating_sub(before.0),
        after.1.saturating_sub(before.1),
    )
}

/// Traced run: blocks of traced presses interleaved with blocks of
/// untraced presses (order alternating), so the tracing overhead is
/// measured under the same conditions. Returns whether every checked
/// traced reading is bit-identical to `measure_press` at the same seed.
pub fn run_traced(
    sim: &Simulation,
    model: &SensorModel,
    gen: &mut PressGen,
    dur: Duration,
    l: &mut Layers,
    out: &mut Outcomes,
) -> bool {
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    let mut checks: Vec<(Press, ForceReading)> = Vec::new();
    let cache0 = sim.channel_cache.stats();
    let memo0 = sim.channel_cache.response_stats();
    let end = Instant::now() + dur;
    let mut round = 0;
    while round == 0 || Instant::now() < end {
        for traced in [round % 2 == 0, round % 2 == 1] {
            for _ in 0..TRACE_BLOCK {
                let p = gen.next_press();
                let r = if traced {
                    let r = press_traced(sim, model, &mut tracker, &p, l);
                    if let (Ok(r), true) = (&r, checks.len() < CHECK_PRESSES) {
                        checks.push((p, *r));
                    }
                    r
                } else {
                    let t = Instant::now();
                    let r = press(sim, model, &mut tracker, &p);
                    l.untraced_us.push(us(t.elapsed()));
                    r
                };
                out.score(p.truth(), r.as_ref().ok());
            }
        }
        round += 1;
    }
    l.cache = delta(sim.channel_cache.stats(), cache0);
    l.memo = delta(sim.channel_cache.response_stats(), memo0);
    !checks.is_empty()
        && checks.iter().all(|(p, traced)| {
            sim.measure_press(model, p.force_n, p.location_m, &mut p.rng())
                .is_ok_and(|r| same_bits(&r, traced))
        })
}
