//! Streaming force estimator.
//!
//! The deployment-shaped API: feed channel-estimate snapshots as the
//! reader produces them; the estimator groups them, locks a no-touch
//! reference, and emits a `(force, location)` reading per phase group.
//! This is what a real WiForce reader would run online, and what the
//! fingertip/UI experiments (§5.3) drive.

use crate::calib::SensorModel;
use crate::diffphase::{differential, Averaging};
use crate::harmonics::{extract_lines_summed, GroupLines, PhaseGroupConfig};
use crate::pipeline::average_lines;
use crate::WiForceError;
use wiforce_dsp::kernels::add_row;
use wiforce_dsp::{Complex, SnapshotMatrix};

/// Configuration for the streaming estimator.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Phase-group processing parameters.
    pub group: PhaseGroupConfig,
    /// Subcarrier combining.
    pub averaging: Averaging,
    /// Number of initial groups averaged into the no-touch reference.
    pub reference_groups: usize,
    /// Phase magnitude (rad) below which the sensor is reported untouched.
    pub touch_threshold_rad: f64,
    /// Maximum accepted model-inversion residual, rad.
    pub max_residual_rad: f64,
}

impl EstimatorConfig {
    /// Paper-default configuration for base clock `fs_hz`.
    pub fn wiforce(fs_hz: f64) -> Self {
        EstimatorConfig {
            group: PhaseGroupConfig::wiforce(fs_hz),
            averaging: Averaging::Coherent,
            reference_groups: 3,
            touch_threshold_rad: 1.2f64.to_radians(),
            max_residual_rad: 0.35,
        }
    }
}

/// One emitted reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceReading {
    /// Estimated force, N (0 when untouched).
    pub force_n: f64,
    /// Estimated press location, m (NaN when untouched).
    pub location_m: f64,
    /// Port-1 differential phase, rad.
    pub dphi1_rad: f64,
    /// Port-2 differential phase, rad.
    pub dphi2_rad: f64,
    /// Model-inversion residual, rad (0 when untouched).
    pub residual_rad: f64,
    /// Whether a touch was detected.
    pub touched: bool,
}

/// Streaming estimator state machine.
#[derive(Debug, Clone)]
pub struct ForceEstimator {
    cfg: EstimatorConfig,
    model: SensorModel,
    buffer: SnapshotMatrix,
    /// Per-subcarrier sums of the buffered snapshots, kept as they
    /// arrive so a completing group is not read again for its means.
    col_sums: Vec<Complex>,
    reference_accum: Vec<GroupLines>,
    reference: Option<GroupLines>,
    groups_seen: usize,
}

impl ForceEstimator {
    /// Creates an estimator with a calibrated model.
    pub fn new(cfg: EstimatorConfig, model: SensorModel) -> Self {
        wiforce_telemetry::gauge!("estimator.reference_locked", 0.0);
        ForceEstimator {
            cfg,
            model,
            buffer: SnapshotMatrix::default(),
            col_sums: Vec::new(),
            reference_accum: Vec::new(),
            reference: None,
            groups_seen: 0,
        }
    }

    /// `true` once the no-touch reference is locked.
    pub fn reference_locked(&self) -> bool {
        self.reference.is_some()
    }

    /// Number of complete phase groups consumed.
    pub fn groups_seen(&self) -> usize {
        self.groups_seen
    }

    /// Pushes one channel-estimate snapshot (one per sounding frame).
    ///
    /// The snapshot is copied into a flat, capacity-reusing group buffer,
    /// so a steady-state stream performs no per-snapshot allocation, and
    /// added into the per-subcarrier sums the group's means come from.
    ///
    /// Returns a reading when a phase group completes after the reference
    /// is locked; `Ok(None)` while filling groups or acquiring the
    /// reference. A snapshot whose width differs from the stream's (set
    /// by its first snapshot) is a [`WiForceError::Config`] error and
    /// leaves the estimator untouched.
    pub fn push_snapshot(
        &mut self,
        snapshot: &[Complex],
    ) -> Result<Option<ForceReading>, WiForceError> {
        let width = self.buffer.n_cols();
        if width != 0 && snapshot.len() != width {
            return Err(WiForceError::Config(format!(
                "snapshot has {} subcarriers, the stream has {width}",
                snapshot.len()
            )));
        }
        if self.buffer.is_empty() {
            self.col_sums.clear();
            self.col_sums.resize(snapshot.len(), Complex::ZERO);
        }
        self.buffer.push_row(snapshot);
        add_row(&mut self.col_sums, snapshot);
        let rows = self.buffer.n_rows();
        if rows == 1 {
            // the width is known now: reserve the whole group once instead
            // of growing through a chain of doubling reallocations (a
            // no-op after the first group, since `clear` keeps capacity)
            self.buffer
                .reserve_rows(self.cfg.group.n_snapshots.saturating_sub(1));
        }
        if rows < self.cfg.group.n_snapshots {
            return Ok(None);
        }
        // take the buffers so the group can borrow them while `self` stays
        // mutable; their capacity is handed back afterwards
        let buffer = std::mem::take(&mut self.buffer);
        let sums = std::mem::take(&mut self.col_sums);
        let result = self.process_group(buffer.view(), Some(&sums));
        self.buffer = buffer;
        self.buffer.clear();
        self.col_sums = sums;
        result
    }

    /// Pushes one complete phase group without copying.
    ///
    /// The batch engine shares each synthesized snapshot matrix across
    /// every frequency-multiplexed stream on a reader; feeding it here
    /// extracts this stream's lines straight from the shared buffer
    /// instead of re-copying `n_snapshots` rows per stream the way
    /// [`Self::push_snapshot`] must. Falls back to row-wise pushes (and
    /// returns the last reading completed, if any) when the internal
    /// buffer holds a partial group or `group` is not exactly one group
    /// long.
    pub fn push_group(
        &mut self,
        group: &SnapshotMatrix,
    ) -> Result<Option<ForceReading>, WiForceError> {
        if self.buffer.n_rows() == 0 && group.n_rows() == self.cfg.group.n_snapshots {
            return self.process_group(group.view(), None);
        }
        let mut last = Ok(None);
        for row in group.rows() {
            match self.push_snapshot(row) {
                Ok(None) => {}
                done => last = done,
            }
        }
        last
    }

    /// The reader time the estimator expects the *next* group to start
    /// at — producers synthesizing lines directly (the spectral batch
    /// path) must phase-reference their synthesis here so pre-extracted
    /// lines land on the same rotation the extraction path would apply.
    pub fn next_group_start_s(&self) -> f64 {
        self.groups_seen as f64
            * self.cfg.group.n_snapshots as f64
            * self.cfg.group.snapshot_period_s
    }

    /// Pushes one phase group's pre-extracted spectral lines.
    ///
    /// The spectral batch path synthesizes each group's lines directly —
    /// no time-domain snapshots ever exist — so extraction is skipped
    /// entirely; reference locking, differential phases, and inversion
    /// run unchanged. The lines must be phase-referenced to
    /// [`Self::next_group_start_s`].
    pub fn push_lines(&mut self, lines: GroupLines) -> Result<Option<ForceReading>, WiForceError> {
        self.process_lines(lines)
    }

    /// Shared group-completion pipeline: harmonic extraction, reference
    /// handling, differential phases, model inversion. `col_sums` are the
    /// group's column sums when [`Self::push_snapshot`] kept them.
    fn process_group(
        &mut self,
        group: wiforce_dsp::SnapshotView<'_>,
        col_sums: Option<&[Complex]>,
    ) -> Result<Option<ForceReading>, WiForceError> {
        // counted once per completed group (not per push): the per-sample
        // counter lookup was a measurable share of telemetry-on overhead
        wiforce_telemetry::counter!(
            "estimator.snapshots_pushed",
            self.cfg.group.n_snapshots as u64
        );
        let lines =
            extract_lines_summed(&self.cfg.group, group, col_sums, self.next_group_start_s());
        self.process_lines(lines)
    }

    /// Group-completion tail shared by the extraction and pre-extracted
    /// (spectral) paths: reference handling, differential phases, model
    /// inversion.
    fn process_lines(&mut self, lines: GroupLines) -> Result<Option<ForceReading>, WiForceError> {
        let _span = wiforce_telemetry::span!("estimator.group");
        self.groups_seen += 1;
        wiforce_telemetry::counter!("estimator.groups", 1);
        wiforce_telemetry::gauge!("estimator.groups_seen", self.groups_seen as f64);

        // acquisition phase: accumulate the reference
        if self.reference.is_none() {
            self.reference_accum.push(lines);
            if self.reference_accum.len() >= self.cfg.reference_groups {
                self.reference = Some(average_lines(&self.reference_accum));
                self.reference_accum.clear();
                wiforce_telemetry::counter!("estimator.reference_locks", 1);
                wiforce_telemetry::gauge!("estimator.reference_locked", 1.0);
            }
            return Ok(None);
        }

        let reference = self.reference.as_ref().expect("locked above");
        let d = differential(reference, &lines, self.cfg.averaging);
        // NaN lines (here or in the locked reference) carry no phase: fail
        // the group rather than let `max` below read it as untouched
        if !(d.dphi1_rad.is_finite() && d.dphi2_rad.is_finite()) {
            wiforce_telemetry::counter!("estimator.inversion_failures", 1);
            return Err(WiForceError::OutOfModelRange {
                phi1: d.dphi1_rad,
                phi2: d.dphi2_rad,
            });
        }
        let magnitude = d.dphi1_rad.abs().max(d.dphi2_rad.abs());
        wiforce_telemetry::observe!("estimator.group_phase_mag_rad", magnitude);
        if magnitude < self.cfg.touch_threshold_rad {
            wiforce_telemetry::counter!("estimator.readings_untouched", 1);
            return Ok(Some(ForceReading {
                force_n: 0.0,
                location_m: f64::NAN,
                dphi1_rad: d.dphi1_rad,
                dphi2_rad: d.dphi2_rad,
                residual_rad: 0.0,
                touched: false,
            }));
        }
        let est = {
            let _span = wiforce_telemetry::span!("estimator.model_invert");
            self.model
                .invert(d.dphi1_rad, d.dphi2_rad, self.cfg.max_residual_rad)
        }
        .inspect_err(|_| wiforce_telemetry::counter!("estimator.inversion_failures", 1))?;
        wiforce_telemetry::counter!("estimator.readings_touched", 1);
        Ok(Some(ForceReading {
            force_n: est.force_n,
            location_m: est.location_m,
            dphi1_rad: d.dphi1_rad,
            dphi2_rad: d.dphi2_rad,
            residual_rad: est.residual_rad,
            touched: true,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Simulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wiforce_dsp::TAU;

    /// Builds snapshots with a synthetic tag line consistent with a model
    /// press (we reuse the full Simulation for realistic streams in
    /// integration tests; here a lighter synthetic keeps unit tests fast).
    fn synthetic_snapshots(
        cfg: &PhaseGroupConfig,
        n_groups: usize,
        phi1: f64,
        phi2: f64,
    ) -> Vec<Vec<Complex>> {
        let k = 8;
        let amp = 1e-3;
        (0..n_groups * cfg.n_snapshots)
            .map(|i| {
                let t = i as f64 * cfg.snapshot_period_s;
                let tone1 = Complex::cis(TAU * cfg.line1_hz * t - phi1) * amp;
                let tone2 = Complex::cis(TAU * cfg.line2_hz * t - phi2) * amp;
                (0..k)
                    .map(|kk| Complex::from_polar(0.1, kk as f64 * 0.3) + tone1 + tone2)
                    .collect()
            })
            .collect()
    }

    fn model() -> SensorModel {
        Simulation::paper_default(0.9e9).vna_calibration().unwrap()
    }

    #[test]
    fn locks_reference_then_reports() {
        let sim = Simulation::paper_default(0.9e9);
        let cfg = EstimatorConfig {
            reference_groups: 2,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, model());

        // reference stream: zero phases
        for s in synthetic_snapshots(&cfg.group, 2, 0.0, 0.0) {
            assert!(est.push_snapshot(&s).unwrap().is_none());
        }
        assert!(est.reference_locked());

        // touched stream with the VNA phases of a 4 N press at 40 mm
        let (p1, p2) = sim.vna_phases(4.0, 0.040);
        let mut readings = Vec::new();
        for s in synthetic_snapshots(&cfg.group, 2, p1, p2) {
            if let Some(r) = est.push_snapshot(&s).unwrap() {
                readings.push(r);
            }
        }
        assert_eq!(readings.len(), 2);
        for r in readings {
            assert!(r.touched);
            assert!((r.force_n - 4.0).abs() < 0.6, "force {}", r.force_n);
            assert!((r.location_m - 0.040).abs() < 4e-3, "loc {}", r.location_m);
        }
    }

    #[test]
    fn untouched_reports_zero_force() {
        let cfg = EstimatorConfig {
            reference_groups: 1,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, model());
        for s in synthetic_snapshots(&cfg.group, 1, 0.0, 0.0) {
            est.push_snapshot(&s).unwrap();
        }
        let mut out = None;
        for s in synthetic_snapshots(&cfg.group, 1, 0.0, 0.0) {
            if let Some(r) = est.push_snapshot(&s).unwrap() {
                out = Some(r);
            }
        }
        let r = out.unwrap();
        assert!(!r.touched);
        assert_eq!(r.force_n, 0.0);
        assert!(r.location_m.is_nan());
    }

    #[test]
    fn groups_counted() {
        let cfg = EstimatorConfig {
            reference_groups: 1,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, model());
        for s in synthetic_snapshots(&cfg.group, 3, 0.0, 0.0) {
            let _ = est.push_snapshot(&s).unwrap();
        }
        assert_eq!(est.groups_seen(), 3);
    }

    #[test]
    fn partial_group_returns_none() {
        let cfg = EstimatorConfig::wiforce(1000.0);
        let mut est = ForceEstimator::new(cfg, model());
        let r = est.push_snapshot(&[Complex::ZERO; 4]).unwrap();
        assert!(r.is_none());
        assert_eq!(est.groups_seen(), 0);
    }

    /// One calibrated model shared by the corrupt-input cases.
    fn shared_model() -> SensorModel {
        static MODEL: std::sync::OnceLock<SensorModel> = std::sync::OnceLock::new();
        MODEL.get_or_init(model).clone()
    }

    /// A corrupt group may fail or read as untouched, but never panics
    /// and never emits a non-finite phase or a non-finite touch.
    fn assert_clean(r: Result<Option<ForceReading>, WiForceError>) {
        match r {
            Ok(None) | Err(WiForceError::OutOfModelRange { .. }) => {}
            Ok(Some(r)) => {
                assert!(r.dphi1_rad.is_finite() && r.dphi2_rad.is_finite(), "{r:?}");
                if r.touched {
                    assert!(r.force_n.is_finite() && r.location_m.is_finite(), "{r:?}");
                }
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn nan_zero_power_and_all_zero_inputs_fail_cleanly() {
        let cfg = EstimatorConfig {
            reference_groups: 1,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let n = cfg.group.n_snapshots;
        let k = 8;
        let good = synthetic_snapshots(&cfg.group, 1, 0.0, 0.0);
        let zero = vec![vec![Complex::ZERO; k]; n];
        let nan = vec![vec![Complex::new(f64::NAN, f64::NAN); k]; n];
        let mut one_nan = good.clone();
        one_nan[n / 2][3] = Complex::new(f64::NAN, 0.0);
        for (reference, current) in [
            (&zero, &zero),
            (&good, &zero),
            (&zero, &good),
            (&nan, &good),
            (&good, &nan),
            (&good, &one_nan),
        ] {
            let mut est = ForceEstimator::new(cfg, shared_model());
            for s in reference.iter().chain(current) {
                assert_clean(est.push_snapshot(s));
            }
            assert_eq!(est.groups_seen(), 2);
        }
        // NaN anywhere in the measured group fails it outright
        let mut est = ForceEstimator::new(cfg, shared_model());
        for s in &good {
            est.push_snapshot(s).unwrap();
        }
        let last = nan.iter().map(|s| est.push_snapshot(s)).last().unwrap();
        assert!(
            matches!(last, Err(WiForceError::OutOfModelRange { .. })),
            "{last:?}"
        );
        // NaN on one line beside an unchanged other line: the larger
        // phase magnitude alone would read the pair as untouched
        let mut est = ForceEstimator::new(cfg, shared_model());
        let lines = |p1: Complex| GroupLines {
            p1: vec![p1; k],
            p2: vec![Complex::ONE; k],
        };
        assert_eq!(est.push_lines(lines(Complex::ONE)).unwrap(), None);
        let r = est.push_lines(lines(Complex::new(f64::NAN, 0.0)));
        assert!(
            matches!(r, Err(WiForceError::OutOfModelRange { .. })),
            "{r:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Pre-extracted lines mixing NaN, ±∞, exact zeros and finite
        /// values, in the reference and in the measured groups.
        #[test]
        fn corrupt_lines_never_panic(
            cells in proptest::prop::collection::vec((0u8..6, -1.0f64..1.0, -1.0f64..1.0), 64),
        ) {
            let cfg = EstimatorConfig {
                reference_groups: 1,
                ..EstimatorConfig::wiforce(1000.0)
            };
            let value = |&(kind, re, im): &(u8, f64, f64)| match kind {
                0 => Complex::new(f64::NAN, im),
                1 => Complex::new(f64::INFINITY, im),
                2 => Complex::new(re, f64::NEG_INFINITY),
                3 => Complex::ZERO,
                _ => Complex::new(re, im),
            };
            let vals: Vec<Complex> = cells.iter().map(value).collect();
            let mut est = ForceEstimator::new(cfg, shared_model());
            for group in vals.chunks(16) {
                let lines = GroupLines {
                    p1: group[..8].to_vec(),
                    p2: group[8..].to_vec(),
                };
                assert_clean(est.push_lines(lines));
            }
            proptest::prop_assert_eq!(est.groups_seen(), 4);
        }
    }

    fn same_reading(a: &ForceReading, b: &ForceReading) -> bool {
        let bits = |r: &ForceReading| {
            [
                r.force_n.to_bits(),
                r.location_m.to_bits(),
                r.dphi1_rad.to_bits(),
                r.dphi2_rad.to_bits(),
                r.residual_rad.to_bits(),
            ]
        };
        bits(a) == bits(b) && a.touched == b.touched
    }

    /// Bitwise equality of two group results; errors compare by their
    /// rendering (their phases may be NaN).
    fn assert_same_result(
        a: &Result<Option<ForceReading>, WiForceError>,
        b: &Result<Option<ForceReading>, WiForceError>,
        what: &str,
    ) {
        match (a, b) {
            (Ok(Some(x)), Ok(Some(y))) => assert!(same_reading(x, y), "{what}: {x:?} vs {y:?}"),
            (Ok(None), Ok(None)) => {}
            (Err(x), Err(y)) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "{what}"),
            _ => panic!("{what}: {a:?} vs {b:?}"),
        }
    }

    /// Sums kept at push time, sums taken inside the extraction pass, and
    /// the library's extraction + differential + inversion called by hand
    /// must give the same bits for every group of a simulated capture —
    /// including a group with one NaN snapshot.
    #[test]
    fn streaming_sums_match_group_and_direct_extraction_bitwise() {
        let mut sim = Simulation::paper_default(2.4e9);
        sim.reference_groups = 1;
        sim.measure_groups = 1;
        let model = sim.vna_calibration().unwrap();
        let cfg = EstimatorConfig {
            reference_groups: 1,
            group: sim.group,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let n = cfg.group.n_snapshots;
        let mut rng = StdRng::seed_from_u64(91);
        let mut clock = crate::pipeline::TagClock::new(&mut rng);
        let mut groups = vec![sim.run_snapshots(None, 1, &mut clock, &mut rng)];
        for (f, x) in [(5.0, 0.030), (2.5, 0.045)] {
            let contact = sim.contact_for(f, x);
            groups.push(sim.run_snapshots(contact.as_ref(), 1, &mut clock, &mut rng));
        }
        let mut one_nan = groups[1].clone();
        one_nan.row_mut(n / 2)[3] = Complex::new(f64::NAN, 0.0);
        groups.push(one_nan);

        let mut streamed = ForceEstimator::new(cfg, model.clone());
        let mut grouped = ForceEstimator::new(cfg, model.clone());
        let mut reference = None;
        let mut results = Vec::new();
        for (g, group) in groups.iter().enumerate() {
            let mut by_row = Ok(None);
            for r in group.rows() {
                by_row = streamed.push_snapshot(r);
            }
            let by_group = grouped.push_group(group);
            assert_same_result(&by_row, &by_group, &format!("group {g}"));

            let start = g as f64 * cfg.group.group_duration_s();
            let lines = crate::harmonics::extract_lines(&cfg.group, group.view(), start);
            let Some(locked) = &reference else {
                reference = Some(average_lines(&[lines]));
                assert!(matches!(by_row, Ok(None)));
                continue;
            };
            let d = differential(locked, &lines, cfg.averaging);
            let direct = if d.dphi1_rad.is_finite() && d.dphi2_rad.is_finite() {
                model
                    .invert(d.dphi1_rad, d.dphi2_rad, cfg.max_residual_rad)
                    .map(|e| {
                        Some(ForceReading {
                            force_n: e.force_n,
                            location_m: e.location_m,
                            dphi1_rad: d.dphi1_rad,
                            dphi2_rad: d.dphi2_rad,
                            residual_rad: e.residual_rad,
                            touched: true,
                        })
                    })
            } else {
                Err(WiForceError::OutOfModelRange {
                    phi1: d.dphi1_rad,
                    phi2: d.dphi2_rad,
                })
            };
            assert_same_result(&by_row, &direct, &format!("group {g} vs direct"));
            results.push(by_row);
        }
        // the pressed groups read as touches and the NaN group fails
        assert!(matches!(results[..2], [Ok(Some(a)), Ok(Some(b))] if a.touched && b.touched));
        assert!(matches!(
            results[2],
            Err(WiForceError::OutOfModelRange { .. })
        ));
    }

    /// A snapshot of the wrong width is refused without touching the
    /// buffered group, its sums or the reference.
    #[test]
    fn mismatched_snapshot_is_refused_and_leaves_the_group_intact() {
        let cfg = EstimatorConfig {
            reference_groups: 1,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let (p1, p2) = Simulation::paper_default(0.9e9).vna_phases(4.0, 0.040);
        let stream: Vec<Vec<Complex>> = synthetic_snapshots(&cfg.group, 1, 0.0, 0.0)
            .into_iter()
            .chain(synthetic_snapshots(&cfg.group, 1, p1, p2))
            .collect();
        let n = cfg.group.n_snapshots;
        let run = |bad_at: Option<usize>| {
            let mut est = ForceEstimator::new(cfg, shared_model());
            let mut last = Ok(None);
            for (i, s) in stream.iter().enumerate() {
                if bad_at == Some(i) {
                    for width in [s.len() + 1, s.len() - 1, 0] {
                        let r = est.push_snapshot(&vec![Complex::ONE; width]);
                        assert!(matches!(r, Err(WiForceError::Config(_))), "{r:?}");
                    }
                }
                last = est.push_snapshot(s);
            }
            (last, est.groups_seen())
        };
        let (clean, groups) = run(None);
        assert_eq!(groups, 2);
        assert!(matches!(clean, Ok(Some(r)) if r.touched));
        for bad_at in [1, n - 1, n, n + n / 2, 2 * n - 1] {
            let (dirty, groups) = run(Some(bad_at));
            assert_eq!(groups, 2, "bad row at {bad_at}");
            assert_same_result(&dirty, &clean, &format!("bad row at {bad_at}"));
        }
    }

    use rand::Rng;

    #[test]
    fn streaming_matches_batch_on_simulated_channel() {
        // run the estimator on genuinely simulated snapshots and check the
        // reading against the pressed ground truth
        let mut sim = Simulation::paper_default(2.4e9);
        sim.reference_groups = 1;
        sim.measure_groups = 1;
        let m = sim.vna_calibration().unwrap();
        let cfg = EstimatorConfig {
            reference_groups: 1,
            group: sim.group,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, m);
        let mut rng = StdRng::seed_from_u64(77);

        // hand the estimator raw snapshots from the pipeline: first an
        // untouched stretch, then a 5 N press at 30 mm
        let mut clock = crate::pipeline::TagClock::new(&mut rng);
        let quiet = sim.run_snapshots(None, 1, &mut clock, &mut rng);
        for s in quiet.rows() {
            let _ = est.push_snapshot(s).unwrap();
        }
        let contact = sim.contact_for(5.0, 0.030);
        let pressed = sim.run_snapshots(contact.as_ref(), 1, &mut clock, &mut rng);
        let mut reading = None;
        for s in pressed.rows() {
            if let Some(r) = est.push_snapshot(s).unwrap() {
                reading = Some(r);
            }
        }
        let r = reading.expect("one group of readings");
        assert!(r.touched);
        // the phase-force curve flattens near 5–7 N, so a ~1° systematic
        // phase offset maps to >1 N there; allow that margin
        assert!((r.force_n - 5.0).abs() < 1.6, "force {}", r.force_n);
        assert!((r.location_m - 0.030).abs() < 5e-3, "loc {}", r.location_m);
        let _ = rng.gen::<u8>();
    }
}
