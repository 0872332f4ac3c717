//! Sensor-model inversion: measured phases → (force, location).
//!
//! The forward model ([`SensorModel::predict`]) maps `(F, x)` to the two
//! differential phases. Inversion minimizes the squared phase residual
//! over the calibrated `(F, x)` rectangle with a coarse grid followed by
//! three local refinement passes — robust against the model's mild
//! non-convexity and fast enough for streaming use.
//!
//! The coarse grid's predicted phases depend on the model alone, so they
//! are built once per model (`InversionGrid`, at fit and at `.wfm`
//! load); a reading pays one cost kernel over its cells. Each refinement
//! pass evaluates its polynomial samples with Horner across the pass's
//! force rows and interpolates them with dense per-curve stencil weights.
//! Every step keeps the per-cell arithmetic of `predict`'s stencil form
//! and the row-major, strict-`<` scan order, so the estimate is the same
//! bit for bit.

use crate::calib::{LocationCurve, SensorModel};
use crate::WiForceError;
use wiforce_dsp::interp::{catmull_stencil, CatmullStencil};
use wiforce_dsp::kernels::{first_min, horner_lanes, phase_cost_rows, stencil_rows};

/// Coarse grid steps along force (`NF + 1` rows) and location (`NX + 1`
/// columns).
const NF: usize = 40;
const NX: usize = 45;
/// Points per axis of a refinement pass (`±10` steps around the best).
const FINE: usize = 21;
/// Row strides of the cost blocks: the columns (and the refinement's
/// rows) are padded to whole 8-lane vectors with copies of the last one.
/// A copy costs exactly what its original costs and comes after it in
/// the row-major scan, so it can never be the first minimum.
const NX_STRIDE: usize = 48;
const FINE_STRIDE: usize = 24;
const COARSE_CELLS: usize = (NF + 1) * NX_STRIDE;
const FINE_CELLS: usize = FINE_STRIDE * FINE_STRIDE;
// a refinement pass's three blocks reuse the coarse cost cells
const _: () = assert!(3 * FINE_CELLS <= COARSE_CELLS);

/// An inverted estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated force, N.
    pub force_n: f64,
    /// Estimated press location, m.
    pub location_m: f64,
    /// Residual RMS phase error of the fit, rad.
    pub residual_rad: f64,
}

/// The coarse inversion grid of one model: the `(NF + 1) × (NX + 1)`
/// force/location cells and both predicted phases at each, row-major by
/// force with rows padded to `NX_STRIDE` (~31 KB). Built by
/// [`InversionGrid::build`] when the model is fitted or loaded, and shared
/// between clones of the model.
pub(crate) struct InversionGrid {
    /// Calibration locations, ascending, m (the stencils' grid).
    xs: Vec<f64>,
    /// Force of each grid row, N.
    forces: Vec<f64>,
    /// Location of each (padded) grid column, m.
    locations: Vec<f64>,
    /// Predicted `φ₁` per cell, rad.
    pred1: Vec<f64>,
    /// Predicted `φ₂` per cell, rad.
    pred2: Vec<f64>,
}

impl std::fmt::Debug for InversionGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InversionGrid({}×{})", NF + 1, NX + 1)
    }
}

impl InversionGrid {
    /// Predicts every coarse cell with the same expressions the scan used
    /// per reading: one force row of polynomial samples, then one
    /// Catmull-Rom stencil per location column.
    ///
    /// `curves` must hold at least two strictly increasing locations.
    pub(crate) fn build(curves: &[LocationCurve], (f_lo, f_hi): (f64, f64)) -> Self {
        let xs: Vec<f64> = curves.iter().map(|c| c.location_m).collect();
        let (x_lo, x_hi) = (xs[0], xs[xs.len() - 1]);
        let forces: Vec<f64> = (0..=NF)
            .map(|i| f_lo + (f_hi - f_lo) * i as f64 / NF as f64)
            .collect();
        let locations: Vec<f64> = (0..NX_STRIDE)
            .map(|j| x_lo + (x_hi - x_lo) * j.min(NX) as f64 / NX as f64)
            .collect();
        let stencils: Vec<CatmullStencil> = locations
            .iter()
            .map(|&x| catmull_stencil(&xs, x).expect("validated at fit time"))
            .collect();
        let cells = forces.len() * NX_STRIDE;
        let (mut pred1, mut pred2) = (Vec::with_capacity(cells), Vec::with_capacity(cells));
        for &f in &forces {
            let y1: Vec<f64> = curves.iter().map(|c| c.poly1.eval(f)).collect();
            let y2: Vec<f64> = curves.iter().map(|c| c.poly2.eval(f)).collect();
            for st in &stencils {
                pred1.push(st.eval(&y1));
                pred2.push(st.eval(&y2));
            }
        }
        InversionGrid {
            xs,
            forces,
            locations,
            pred1,
            pred2,
        }
    }
}

impl SensorModel {
    /// Inverts the model: finds `(F, x)` whose predicted phases best match
    /// the measurement.
    ///
    /// Returns [`WiForceError::OutOfModelRange`] when even the best fit
    /// leaves more than `max_residual_rad` RMS phase error — the signature
    /// of a measurement the calibration cannot explain — and for NaN or
    /// infinite phases, whatever the limit.
    pub fn invert(
        &self,
        phi1_rad: f64,
        phi2_rad: f64,
        max_residual_rad: f64,
    ) -> Result<Estimate, WiForceError> {
        if !(phi1_rad.is_finite() && phi2_rad.is_finite()) {
            return Err(WiForceError::OutOfModelRange {
                phi1: phi1_rad,
                phi2: phi2_rad,
            });
        }
        let (f_lo, f_hi) = self.force_range_n();
        let (x_lo, x_hi) = self.location_range_m();
        let grid = self.grid();
        let phi = [phi1_rad, phi2_rad];

        // one heap block serves every pass: the coarse costs, then the
        // refinement's predictions and costs in the same cells, plus the
        // per-curve polynomial samples (both ports, curve-major, one lane
        // per force row) and dense stencil weights (one lane per column)
        let curves = self.curves();
        let nk = curves.len();
        let mut scratch = vec![0.0; COARSE_CELLS + 3 * nk * FINE_STRIDE];
        let (cells, per_curve) = scratch.split_at_mut(COARSE_CELLS);

        // coarse grid: predicted at fit time, costed per reading
        let (mut best_f, mut best_x, mut best_c) = (f_lo, x_lo, f64::INFINITY);
        phase_cost_rows(cells, &grid.pred1, &grid.pred2, phi, NX_STRIDE);
        if let Some(idx) = first_min(cells, best_c) {
            best_f = grid.forces[idx / NX_STRIDE];
            best_x = grid.locations[idx % NX_STRIDE];
            best_c = cells[idx];
        }

        // local refinement: three passes of 10× finer grids around the best
        let (pred1, rest) = cells.split_at_mut(FINE_CELLS);
        let (pred2, rest) = rest.split_at_mut(FINE_CELLS);
        let cost = &mut rest[..FINE_CELLS];
        let (samples1, rest) = per_curve.split_at_mut(nk * FINE_STRIDE);
        let (samples2, weights) = rest.split_at_mut(nk * FINE_STRIDE);
        let mut forces = [0.0; FINE_STRIDE];
        let mut locations = [0.0; FINE_STRIDE];
        let mut stencils = [CatmullStencil::default(); FINE_STRIDE];
        let mut span_f = (f_hi - f_lo) / NF as f64;
        let mut span_x = (x_hi - x_lo) / NX as f64;
        for _ in 0..3 {
            let (f0, x0) = (best_f, best_x);
            for j in 0..FINE_STRIDE {
                let step = j.min(FINE - 1) as f64 - 10.0;
                forces[j] = (f0 + step * span_f / 10.0).clamp(f_lo, f_hi);
                locations[j] = (x0 + step * span_x / 10.0).clamp(x_lo, x_hi);
                stencils[j] = if j < FINE {
                    catmull_stencil(&grid.xs, locations[j]).expect("validated at fit time")
                } else {
                    stencils[FINE - 1]
                };
                for k in 0..nk {
                    weights[k * FINE_STRIDE + j] = stencils[j].weight(k);
                }
            }
            for (k, c) in curves.iter().enumerate() {
                let lanes = k * FINE_STRIDE..(k + 1) * FINE_STRIDE;
                horner_lanes(&mut samples1[lanes.clone()], c.poly1.coeffs(), &forces);
                horner_lanes(&mut samples2[lanes], c.poly2.coeffs(), &forces);
            }
            if samples1.iter().chain(&*samples2).all(|y| y.is_finite()) {
                stencil_rows(pred1, samples1, weights, nk);
                stencil_rows(pred2, samples2, weights, nk);
            } else {
                // 0·∞ is NaN, so a zero weight no longer drops out: apply
                // the sparse stencils, row by row
                let mut y1 = vec![0.0; nk];
                let mut y2 = vec![0.0; nk];
                for i in 0..FINE_STRIDE {
                    for k in 0..nk {
                        y1[k] = samples1[k * FINE_STRIDE + i];
                        y2[k] = samples2[k * FINE_STRIDE + i];
                    }
                    for (j, st) in stencils.iter().enumerate() {
                        pred1[i * FINE_STRIDE + j] = st.eval(&y1);
                        pred2[i * FINE_STRIDE + j] = st.eval(&y2);
                    }
                }
            }
            phase_cost_rows(cost, pred1, pred2, phi, FINE_STRIDE);
            if let Some(idx) = first_min(cost, best_c) {
                best_f = forces[idx / FINE_STRIDE];
                best_x = locations[idx % FINE_STRIDE];
                best_c = cost[idx];
            }
            span_f /= 10.0;
            span_x /= 10.0;
        }

        let residual = (best_c / 2.0).sqrt();
        if residual > max_residual_rad {
            return Err(WiForceError::OutOfModelRange {
                phi1: phi1_rad,
                phi2: phi2_rad,
            });
        }
        Ok(Estimate {
            force_n: best_f,
            location_m: best_x,
            residual_rad: residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{CalibrationSample, LocationData};
    use wiforce_dsp::polyfit::Polynomial;

    fn synth_phases(force: f64, loc: f64) -> (f64, f64) {
        let l = 0.080;
        let w1 = 1.0 - loc / l;
        let w2 = loc / l;
        (
            0.5 * w1 * force.sqrt() + 0.02 * force,
            0.5 * w2 * force.sqrt() + 0.02 * force,
        )
    }

    fn model() -> SensorModel {
        let data: Vec<LocationData> = [0.020, 0.030, 0.040, 0.050, 0.060]
            .iter()
            .map(|&loc| LocationData {
                location_m: loc,
                samples: (1..=16)
                    .map(|i| {
                        let f = i as f64 * 0.5;
                        let (p1, p2) = synth_phases(f, loc);
                        CalibrationSample {
                            force_n: f,
                            phi1_rad: p1,
                            phi2_rad: p2,
                        }
                    })
                    .collect(),
            })
            .collect();
        SensorModel::fit(&data, 3).unwrap()
    }

    #[test]
    fn round_trip_at_calibration_points() {
        let m = model();
        for &loc in &[0.020, 0.040, 0.060] {
            for &f in &[1.0, 3.0, 6.0] {
                let (p1, p2) = synth_phases(f, loc);
                let est = m.invert(p1, p2, 0.2).unwrap();
                assert!((est.force_n - f).abs() < 0.1, "f: {} vs {f}", est.force_n);
                assert!(
                    (est.location_m - loc).abs() < 1.5e-3,
                    "x: {} vs {loc}",
                    est.location_m
                );
            }
        }
    }

    #[test]
    fn round_trip_at_held_out_location() {
        let m = model();
        let (p1, p2) = synth_phases(4.0, 0.055);
        let est = m.invert(p1, p2, 0.2).unwrap();
        assert!((est.force_n - 4.0).abs() < 0.2);
        assert!((est.location_m - 0.055).abs() < 2e-3);
    }

    #[test]
    fn noisy_phases_give_graceful_errors() {
        let m = model();
        let (p1, p2) = synth_phases(4.0, 0.040);
        let noise = 0.5f64.to_radians();
        let est = m.invert(p1 + noise, p2 - noise, 0.2).unwrap();
        assert!((est.force_n - 4.0).abs() < 0.5, "{}", est.force_n);
        assert!((est.location_m - 0.040).abs() < 3e-3);
    }

    #[test]
    fn garbage_phases_rejected() {
        let m = model();
        let err = m.invert(2.5, -2.5, 0.05).unwrap_err();
        assert!(matches!(err, WiForceError::OutOfModelRange { .. }));
    }

    /// `predict` per cell in its stencil form — the polynomial samples at
    /// `f`, then a Catmull-Rom stencil at `x` — which is the arithmetic
    /// every inverter since the stencil's introduction has used.
    /// (`predict` itself evaluates `catmull_rom` directly, which agrees
    /// only up to reassociation.)
    fn predict_per_cell(m: &SensorModel, f: f64, x: f64) -> (f64, f64) {
        let xs = m.locations_m();
        let y1: Vec<f64> = m.curves().iter().map(|c| c.poly1.eval(f)).collect();
        let y2: Vec<f64> = m.curves().iter().map(|c| c.poly2.eval(f)).collect();
        let st = catmull_stencil(&xs, x).unwrap();
        (st.eval(&y1), st.eval(&y2))
    }

    /// The original inverter: a prediction per grid cell, scanned
    /// row-major with strict `<`. Test-only: the shipped inverter must
    /// reproduce its estimate bit for bit.
    fn per_cell_reference(m: &SensorModel, phi1: f64, phi2: f64) -> (f64, f64, f64) {
        use wiforce_dsp::phase::wrap_to_pi;
        let (f_lo, f_hi) = m.force_range_n();
        let (x_lo, x_hi) = m.location_range_m();
        let cost = |f: f64, x: f64| -> f64 {
            let (p1, p2) = predict_per_cell(m, f, x);
            let e1 = wrap_to_pi(p1 - phi1);
            let e2 = wrap_to_pi(p2 - phi2);
            e1 * e1 + e2 * e2
        };
        let (mut bf, mut bx, mut bc) = (f_lo, x_lo, f64::INFINITY);
        for i in 0..=NF {
            let f = f_lo + (f_hi - f_lo) * i as f64 / NF as f64;
            for j in 0..=NX {
                let x = x_lo + (x_hi - x_lo) * j as f64 / NX as f64;
                let c = cost(f, x);
                if c < bc {
                    (bc, bf, bx) = (c, f, x);
                }
            }
        }
        let mut span_f = (f_hi - f_lo) / NF as f64;
        let mut span_x = (x_hi - x_lo) / NX as f64;
        for _ in 0..3 {
            let (f0, x0) = (bf, bx);
            for i in -10i32..=10 {
                let f = (f0 + i as f64 * span_f / 10.0).clamp(f_lo, f_hi);
                for j in -10i32..=10 {
                    let x = (x0 + j as f64 * span_x / 10.0).clamp(x_lo, x_hi);
                    let c = cost(f, x);
                    if c < bc {
                        (bc, bf, bx) = (c, f, x);
                    }
                }
            }
            span_f /= 10.0;
            span_x /= 10.0;
        }
        (bf, bx, (bc / 2.0).sqrt())
    }

    /// `invert` (with no residual limit, so every scan is compared) equals
    /// the per-cell reference bit for bit; NaN residuals match as NaN.
    fn assert_matches_reference(m: &SensorModel, phi1: f64, phi2: f64) {
        let est = m.invert(phi1, phi2, f64::INFINITY).unwrap();
        let (rf, rx, rres) = per_cell_reference(m, phi1, phi2);
        let at = format!("({phi1:e}, {phi2:e})");
        assert_eq!(est.force_n.to_bits(), rf.to_bits(), "force at {at}");
        assert_eq!(est.location_m.to_bits(), rx.to_bits(), "location at {at}");
        assert!(
            est.residual_rad.to_bits() == rres.to_bits()
                || (est.residual_rad.is_nan() && rres.is_nan()),
            "residual at {at}: {} vs {rres}",
            est.residual_rad
        );
    }

    /// The paper-default VNA calibration (five curves), built once.
    fn paper_model() -> SensorModel {
        static MODEL: std::sync::OnceLock<SensorModel> = std::sync::OnceLock::new();
        MODEL
            .get_or_init(|| {
                crate::pipeline::Simulation::paper_default(2.4e9)
                    .vna_calibration()
                    .unwrap()
            })
            .clone()
    }

    /// Phases inside the models' range, and within 1e-3 of ±π, where the
    /// cost kernel's rows fall back to the scalar wrap.
    fn probe_phases(m: &SensorModel) -> Vec<(f64, f64)> {
        use std::f64::consts::PI;
        let mut out = Vec::new();
        for &(f, x) in &[(1.5, 0.025), (4.0, 0.040), (6.5, 0.058), (7.9, 0.021)] {
            out.push(m.predict(f, x));
        }
        for d in [-1e-3, -1e-9, 0.0, 1e-9, 1e-3] {
            for &edge in &[PI, -PI] {
                out.push((edge + d, 0.3));
                out.push((0.3, edge + d));
                out.push((edge + d, -edge - d));
            }
        }
        out
    }

    #[test]
    fn row_hoist_matches_per_cell_predict_bitwise() {
        for m in [model(), paper_model()] {
            for (p1, p2) in probe_phases(&m) {
                assert_matches_reference(&m, p1, p2);
            }
        }
        // the documented fits, at the default residual limit too
        let m = model();
        for &(f, loc) in &[(1.5, 0.025), (4.0, 0.040), (6.5, 0.058)] {
            let (p1, p2) = synth_phases(f, loc);
            let est = m.invert(p1, p2, 0.35).unwrap();
            let (rf, rx, rres) = per_cell_reference(&m, p1, p2);
            assert_eq!(est.force_n.to_bits(), rf.to_bits());
            assert_eq!(est.location_m.to_bits(), rx.to_bits());
            assert_eq!(est.residual_rad.to_bits(), rres.to_bits());
        }
    }

    #[test]
    fn grid_survives_wfm_round_trip_and_clone() {
        let dir = std::env::temp_dir().join("wiforce_model_grid_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, m) in [("synth.wfm", model()), ("paper.wfm", paper_model())] {
            let path = dir.join(name);
            m.save(&path).unwrap();
            let loaded = SensorModel::load(&path).unwrap();
            let cloned = m.clone();
            for (p1, p2) in probe_phases(&m) {
                assert_matches_reference(&loaded, p1, p2);
                assert_matches_reference(&cloned, p1, p2);
                assert_eq!(m.invert(p1, p2, 0.35), cloned.invert(p1, p2, 0.35));
            }
        }
    }

    /// Curves whose phases depend on location only: every cell of a column
    /// costs the same, so the scan must keep the first (lowest-force) row.
    /// (Ties inside one row are pinned on `kernels::first_min` itself.)
    #[test]
    fn equal_cost_cells_keep_the_first() {
        let curves: Vec<LocationCurve> = [0.020, 0.040, 0.060]
            .iter()
            .map(|&loc| LocationCurve {
                location_m: loc,
                poly1: Polynomial::new(vec![10.0 * loc]),
                poly2: Polynomial::new(vec![-5.0 * loc]),
            })
            .collect();
        let m = SensorModel::new(curves, 0.5, 8.0);
        for (p1, p2) in [(0.4, -0.2), (0.3, -0.15), (-3.0, 3.0)] {
            assert_matches_reference(&m, p1, p2);
            let est = m.invert(p1, p2, f64::INFINITY).unwrap();
            assert_eq!(est.force_n, 0.5, "ties resolve to the first row");
        }
    }

    /// Huge but finite coefficients: samples overflow to ±∞, so zero
    /// stencil weights meet ∞ and the refinement must take the sparse
    /// stencils to stay on the reference.
    #[test]
    fn overflowing_samples_follow_the_reference() {
        let base = model();
        let mut curves = base.curves().to_vec();
        let mut c = curves[4].poly1.coeffs().to_vec();
        c.resize(4, 0.0);
        c[3] = 1e306;
        curves[4].poly1 = Polynomial::new(c);
        let (f_lo, f_hi) = base.force_range_n();
        let m = SensorModel::new(curves, f_lo, f_hi);
        assert!(m.curves()[4].poly1.eval(f_hi).is_infinite());
        for (p1, p2) in probe_phases(&base) {
            assert_matches_reference(&m, p1, p2);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn inversion_matches_per_cell_reference(phi1 in -7.0f64..7.0, phi2 in -7.0f64..7.0) {
            assert_matches_reference(&model(), phi1, phi2);
            assert_matches_reference(&paper_model(), phi1, phi2);
        }
    }

    #[test]
    fn non_finite_phases_rejected_at_any_residual_limit() {
        let m = model();
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for limit in [0.35, f64::INFINITY, f64::NAN] {
            for &b in &bad {
                for (p1, p2) in [(b, 0.1), (0.1, b), (b, b)] {
                    let err = m.invert(p1, p2, limit).unwrap_err();
                    assert!(
                        matches!(err, WiForceError::OutOfModelRange { .. }),
                        "({p1}, {p2}) at limit {limit}: {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn residual_reported() {
        let m = model();
        let (p1, p2) = synth_phases(2.0, 0.030);
        let est = m.invert(p1, p2, 0.2).unwrap();
        assert!(est.residual_rad < 0.02, "{}", est.residual_rad);
    }
}
