//! Seeded workload generators. Every input of a run is a pure function of
//! the `--seed` argument; the library only ever sees the generated values.
//!
//! Presses are drawn uniformly over the calibrated rectangle, kept inside
//! the 20–60 mm calibration span so no press is out of the model's range
//! by construction. `ReaderSpec::frequency_multiplexed` is deliberately
//! not used: its fixed schedule puts every sixth press at 70 mm.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wiforce::batch::{PressSpec, ReaderSpec};
use wiforce::pipeline::{PressNoise, TagClock};
use wiforce::record::Recording;
use wiforce::Simulation;
use wiforce_dsp::SnapshotMatrix;

/// Applied force range, N.
pub const FORCE_N: (f64, f64) = (1.0, 7.5);
/// Press location range, m (the model is calibrated at 20–60 mm).
pub const LOCATION_M: (f64, f64) = (0.022, 0.058);
/// Tags riding the `serve_batch` reader.
pub const BATCH_STREAMS: usize = 8;
/// Clock band of the batch tags, Hz (every `4fs` line stays below the
/// snapshot-rate Nyquist).
const BATCH_BAND_HZ: (f64, f64) = (800.0, 2000.0);

/// Generator stream ids, so each input family draws independently.
pub mod stream {
    pub const MEASURE: u64 = 1;
    pub const WARMUP: u64 = 2;
    pub const CAPTURE: u64 = 3;
    pub const BATCH: u64 = 0x100;
}

/// One press to apply: where, how hard, and the key seeding its noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Press {
    pub force_n: f64,
    pub location_m: f64,
    pub key: u64,
}

impl Press {
    pub fn truth(&self) -> (f64, f64) {
        (self.force_n, self.location_m)
    }

    /// The per-press RNG `measure_press` (or its decomposition) consumes.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.key)
    }
}

/// SplitMix64 finalizer over `(a, b)`: decorrelated sub-seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An endless, seed-determined sequence of in-range presses.
pub struct PressGen {
    rng: StdRng,
}

impl PressGen {
    pub fn new(seed: u64, stream: u64) -> Self {
        PressGen {
            rng: StdRng::seed_from_u64(mix(seed, stream)),
        }
    }

    pub fn next_press(&mut self) -> Press {
        let u: f64 = self.rng.gen();
        let v: f64 = self.rng.gen();
        Press {
            force_n: FORCE_N.0 + u * (FORCE_N.1 - FORCE_N.0),
            location_m: LOCATION_M.0 + v * (LOCATION_M.1 - LOCATION_M.0),
            key: self.rng.gen(),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Press> {
        (0..n).map(|_| self.next_press()).collect()
    }
}

/// Block `block` of the batch workload: one reader carrying
/// [`BATCH_STREAMS`] tags on Doppler-grid clocks, each with its own
/// seeded schedule of `presses` in-range presses, on `sim`'s link.
pub fn reader(
    sim: &Simulation,
    seed: u64,
    block: u64,
    presses: usize,
) -> Result<ReaderSpec, String> {
    let grid_hz = 1.0 / sim.group.group_duration_s();
    let clocks = batch_clocks(grid_hz)?;
    let sub = mix(mix(seed, stream::BATCH), block);
    let mut spec = ReaderSpec::new(sub).with_faults(sim.faults);
    for (s, fs) in clocks.into_iter().enumerate() {
        let schedule = PressGen::new(sub, s as u64 + 1)
            .take(presses)
            .into_iter()
            .map(|p| PressSpec {
                force_n: p.force_n,
                location_m: p.location_m,
            })
            .collect();
        spec = spec.stream(&format!("s{s}"), fs, schedule);
    }
    Ok(spec)
}

fn batch_clocks(grid_hz: f64) -> Result<Vec<f64>, String> {
    wiforce_sensor::multi::allocate_frequencies_on_grid(
        BATCH_STREAMS,
        BATCH_BAND_HZ.0,
        BATCH_BAND_HZ.1,
        grid_hz,
    )
    .map_err(|e| format!("allocating batch clocks: {e}"))
}

/// A synthesized capture: `reference_groups` untouched groups, then one
/// group per press, on one free-running tag clock — the stream a reader
/// records and `wiforce-cli replay` consumes. A run replays several
/// captures in turn, one in memory at a time.
pub struct Capture {
    pub recording: Recording,
    pub reference_groups: usize,
    /// The press applied during each press group, in order.
    pub presses: Vec<Press>,
}

impl Capture {
    /// Capture `segment` of a run: its own clock, noise and presses, all
    /// drawn from `seed`. Synthesized on the counter-addressed reference
    /// path, one `run_snapshots_counter_into` call per group.
    pub fn synthesize(
        sim: &Simulation,
        seed: u64,
        segment: u64,
        reference_groups: usize,
        n_presses: usize,
    ) -> Self {
        let sub = mix(mix(seed, stream::CAPTURE), segment);
        let mut rng = StdRng::seed_from_u64(sub);
        let mut clock = TagClock::new(&mut rng);
        let mut noise = PressNoise::from_rng(&mut rng);
        let mut snaps = SnapshotMatrix::default();
        sim.run_snapshots_counter_into(None, reference_groups, &mut clock, &mut noise, &mut snaps);
        let presses = PressGen::new(sub, stream::CAPTURE).take(n_presses);
        for p in &presses {
            let contact = sim.jittered_contact(p.force_n, p.location_m, &mut rng);
            sim.run_snapshots_counter_into(contact.as_ref(), 1, &mut clock, &mut noise, &mut snaps);
        }
        Capture {
            recording: Recording::new(sim.group.snapshot_period_s, snaps),
            reference_groups,
            presses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presses_stay_in_range_and_repeat_per_seed() {
        let a = PressGen::new(7, stream::MEASURE).take(10_000);
        assert_eq!(a, PressGen::new(7, stream::MEASURE).take(10_000));
        assert_ne!(a, PressGen::new(8, stream::MEASURE).take(10_000));
        assert_ne!(a, PressGen::new(7, stream::WARMUP).take(10_000));
        for p in &a {
            assert!((FORCE_N.0..=FORCE_N.1).contains(&p.force_n));
            assert!((LOCATION_M.0..=LOCATION_M.1).contains(&p.location_m));
        }
        // the draws cover the rectangle, not a corner of it
        let lo = a.iter().filter(|p| p.location_m < 0.026).count();
        let hi = a.iter().filter(|p| p.location_m > 0.054).count();
        assert!(lo > 500 && hi > 500, "{lo} {hi}");
    }

    #[test]
    fn batch_schedules_are_in_range_distinct_and_deterministic() {
        let sim = Simulation::paper_default(2.4e9);
        let a = reader(&sim, 3, 0, 50).unwrap();
        let b = reader(&sim, 3, 0, 50).unwrap();
        let c = reader(&sim, 3, 1, 50).unwrap();
        assert_eq!(a.streams.len(), BATCH_STREAMS);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
        for (sa, sb) in a.streams.iter().zip(&b.streams) {
            assert_eq!(sa.presses, sb.presses);
            assert_eq!(sa.fs_hz, sb.fs_hz);
            for p in &sa.presses {
                assert!((FORCE_N.0..=FORCE_N.1).contains(&p.force_n));
                assert!((LOCATION_M.0..=LOCATION_M.1).contains(&p.location_m));
            }
        }
        assert_ne!(a.streams[0].presses, a.streams[1].presses);
        assert_ne!(a.streams[0].presses, c.streams[0].presses);
        let mut clocks: Vec<f64> = a.streams.iter().map(|s| s.fs_hz).collect();
        clocks.dedup();
        assert_eq!(clocks.len(), BATCH_STREAMS);
    }
}
