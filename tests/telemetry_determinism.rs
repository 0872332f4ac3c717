//! Telemetry must be an observer, not a participant: enabling the
//! recorder may not change a single output bit of the estimation
//! pipeline, because the instrumentation never touches RNG or numeric
//! state. Runs the same seeded press, and the same streamed capture, with
//! the recorder off and on and compares every field bitwise.
//!
//! The recorder gate is a process global, so the tests that flip it
//! hold one shared lock.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};
use wiforce::estimator::{EstimatorConfig, ForceEstimator, ForceReading};
use wiforce::pipeline::{Simulation, TagClock};
use wiforce::WiForceError;

fn gate() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn same_bits(a: &ForceReading, b: &ForceReading) -> bool {
    a.force_n.to_bits() == b.force_n.to_bits()
        && a.location_m.to_bits() == b.location_m.to_bits()
        && a.dphi1_rad.to_bits() == b.dphi1_rad.to_bits()
        && a.dphi2_rad.to_bits() == b.dphi2_rad.to_bits()
        && a.residual_rad.to_bits() == b.residual_rad.to_bits()
        && a.touched == b.touched
}

fn run_press(
    sim: &Simulation,
    model: &wiforce::SensorModel,
    force: f64,
    loc: f64,
    seed: u64,
) -> Result<ForceReading, WiForceError> {
    let mut rng = StdRng::seed_from_u64(seed);
    sim.measure_press(model, force, loc, &mut rng)
}

proptest! {
    // each case runs two full presses (~40 ms), so keep the count low
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn telemetry_does_not_perturb_estimates(
        force in 1.0f64..7.0,
        loc in 0.018f64..0.062,
        seed in 0u64..10_000,
    ) {
        let mut sim = Simulation::paper_default(2.4e9);
        sim.reference_groups = 1;
        sim.measure_groups = 1;
        let model = sim.vna_calibration().expect("calibration");

        let _gate = gate();
        wiforce_telemetry::set_enabled(false);
        wiforce_telemetry::reset();
        let off = run_press(&sim, &model, force, loc, seed);

        wiforce_telemetry::set_enabled(true);
        wiforce_telemetry::reset();
        let on = run_press(&sim, &model, force, loc, seed);
        wiforce_telemetry::set_enabled(false);
        let recorded = wiforce_telemetry::take();

        match (off, on) {
            (Ok(a), Ok(b)) => prop_assert!(same_bits(&a, &b), "{a:?} vs {b:?}"),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "off/on diverged: {a:?} vs {b:?}"),
        }

        // the instrumented run really recorded the pipeline
        prop_assert_eq!(recorded.counters.get("pipeline.presses"), Some(&1));
        prop_assert!(recorded
            .spans
            .keys()
            .any(|k| k.starts_with("pipeline.measure_press")));
    }
}

/// The streaming estimator, snapshot by snapshot: same readings with the
/// recorder off and on, and the instrumented run splits each reading into
/// extraction, group handling and the nested model inversion.
#[test]
fn telemetry_does_not_perturb_streaming_readings() {
    let mut sim = Simulation::paper_default(2.4e9);
    sim.reference_groups = 1;
    sim.measure_groups = 1;
    let model = sim.vna_calibration().expect("calibration");
    let cfg = EstimatorConfig {
        reference_groups: 1,
        group: sim.group,
        ..EstimatorConfig::wiforce(sim.group.line1_hz)
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut clock = TagClock::new(&mut rng);
    let quiet = sim.run_snapshots(None, 1, &mut clock, &mut rng);
    let contact = sim.contact_for(4.0, 0.035);
    let pressed = sim.run_snapshots(contact.as_ref(), 2, &mut clock, &mut rng);
    let run = || -> Vec<ForceReading> {
        let mut est = ForceEstimator::new(cfg, model.clone());
        quiet
            .rows()
            .chain(pressed.rows())
            .filter_map(|row| est.push_snapshot(row).expect("clean capture"))
            .collect()
    };

    let _gate = gate();
    wiforce_telemetry::set_enabled(false);
    wiforce_telemetry::reset();
    let off = run();
    wiforce_telemetry::set_enabled(true);
    wiforce_telemetry::reset();
    let on = run();
    wiforce_telemetry::set_enabled(false);
    let recorded = wiforce_telemetry::take();

    assert_eq!(off.len(), 2);
    assert_eq!(on.len(), 2);
    for (a, b) in off.iter().zip(&on) {
        assert!(a.touched && same_bits(a, b), "{a:?} vs {b:?}");
    }
    let count = |path: &str| recorded.spans.get(path).map_or(0, |h| h.count);
    assert_eq!(count("harmonics.extract_lines"), 3);
    assert_eq!(count("estimator.group"), 3);
    assert_eq!(count("estimator.group/estimator.model_invert"), 2);
}

/// Every press names the synthesis arm that ran it and, when the spectral
/// arm was asked for but refused, why; the readings stay bit-equal with
/// the recorder off and on.
#[test]
fn spectral_press_counters_name_the_arm_and_the_refusal() {
    let mut sim = Simulation::paper_default(2.4e9);
    sim.reference_groups = 1;
    sim.measure_groups = 1;
    let contact = sim.contact_for(4.0, 0.035);
    let mut spectral = sim.clone();
    spectral.synth_spectral = Some(true);
    let mut refused = spectral.clone();
    refused.faults.snapshot_drop_prob = 0.01;
    let mut time_domain = sim.clone();
    time_domain.synth_spectral = Some(false);
    let cases = [
        (&spectral, "pipeline.arm.spectral", None),
        (
            &refused,
            "pipeline.arm.time_domain",
            Some("pipeline.spectral_refused.snapshot_drops"),
        ),
        (&time_domain, "pipeline.arm.time_domain", None),
    ];

    let _gate = gate();
    for (sim, arm, refusal) in cases {
        let press = || {
            let mut rng = StdRng::seed_from_u64(17);
            sim.measure_phases(contact.as_ref(), &mut rng)
                .map(|p| [p.dphi1_rad, p.dphi2_rad, p.line_power].map(f64::to_bits))
                .map_err(|e| e.to_string())
        };
        wiforce_telemetry::set_enabled(false);
        wiforce_telemetry::reset();
        let off = press();
        wiforce_telemetry::set_enabled(true);
        wiforce_telemetry::reset();
        let on = press();
        wiforce_telemetry::set_enabled(false);
        let recorded = wiforce_telemetry::take();

        assert_eq!(off, on, "{arm}");
        let arms: Vec<(&String, &u64)> = recorded
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pipeline.arm."))
            .collect();
        assert_eq!(arms, [(&arm.to_string(), &1)], "{arm}");
        let refusals: Vec<&String> = recorded
            .counters
            .keys()
            .filter(|k| k.starts_with("pipeline.spectral_refused."))
            .collect();
        assert_eq!(refusals, refusal.into_iter().collect::<Vec<_>>(), "{arm}");
        if let Some(name) = refusal {
            assert_eq!(recorded.counters.get(name), Some(&1));
        }
    }
}
