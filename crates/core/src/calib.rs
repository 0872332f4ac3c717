//! Sensor-model calibration (paper §4.2).
//!
//! "We now use the data obtained by applying force at all 5 locations, and
//! compute a cubic-fit to make a model that allows to compute the force
//! magnitude and force location based on the measured phase changes."
//!
//! A [`SensorModel`] holds one cubic phase-force polynomial *per port per
//! calibration location*; between calibration locations the predicted
//! phases are interpolated along the sensor axis (the paper validates this
//! at the held-out 55 mm point, Table 1). Model inversion lives in
//! [`crate::model`].

use crate::model::InversionGrid;
use crate::WiForceError;
use std::sync::Arc;
use wiforce_dsp::interp::catmull_rom;
use wiforce_dsp::polyfit::Polynomial;

/// One calibration observation: a press and its two differential phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Ground-truth applied force, N (load cell in the paper).
    pub force_n: f64,
    /// Port-1 differential phase, rad.
    pub phi1_rad: f64,
    /// Port-2 differential phase, rad.
    pub phi2_rad: f64,
}

/// All samples collected at one press location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationData {
    /// Press location, m.
    pub location_m: f64,
    /// Force sweep samples.
    pub samples: Vec<CalibrationSample>,
}

/// Fitted curves for one location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationCurve {
    /// Press location, m.
    pub location_m: f64,
    /// Cubic fit `φ₁(F)`, rad.
    pub poly1: Polynomial,
    /// Cubic fit `φ₂(F)`, rad.
    pub poly2: Polynomial,
}

/// The calibrated WiForce sensor model.
#[derive(Debug, Clone)]
pub struct SensorModel {
    curves: Vec<LocationCurve>,
    force_min_n: f64,
    force_max_n: f64,
    /// The inversion's coarse grid, a function of the fields above.
    grid: Arc<InversionGrid>,
}

impl PartialEq for SensorModel {
    /// Models are equal when their curves and force range are; the
    /// inversion grid is derived from those.
    fn eq(&self, other: &Self) -> bool {
        self.curves == other.curves
            && self.force_min_n == other.force_min_n
            && self.force_max_n == other.force_max_n
    }
}

impl SensorModel {
    /// Fits cubic (or `degree`) polynomials per location.
    ///
    /// Requirements: at least two locations with strictly increasing
    /// positions, and at least `degree + 1` samples per location.
    pub fn fit(data: &[LocationData], degree: usize) -> Result<Self, WiForceError> {
        if data.len() < 2 {
            return Err(WiForceError::Calibration(format!(
                "need at least 2 calibration locations, got {}",
                data.len()
            )));
        }
        let mut sorted: Vec<&LocationData> = data.iter().collect();
        sorted.sort_by(|a, b| {
            a.location_m
                .partial_cmp(&b.location_m)
                .expect("NaN location")
        });
        if sorted
            .windows(2)
            .any(|w| w[0].location_m >= w[1].location_m)
        {
            return Err(WiForceError::Calibration(
                "duplicate calibration locations".into(),
            ));
        }

        let mut force_min = f64::INFINITY;
        let mut force_max = f64::NEG_INFINITY;
        let mut curves = Vec::with_capacity(sorted.len());
        for loc in sorted {
            if loc.samples.len() < degree + 1 {
                return Err(WiForceError::Calibration(format!(
                    "location {:.3} m has {} samples, need {}",
                    loc.location_m,
                    loc.samples.len(),
                    degree + 1
                )));
            }
            let forces: Vec<f64> = loc.samples.iter().map(|s| s.force_n).collect();
            let phi1: Vec<f64> = loc.samples.iter().map(|s| s.phi1_rad).collect();
            let phi2: Vec<f64> = loc.samples.iter().map(|s| s.phi2_rad).collect();
            let poly1 = Polynomial::fit(&forces, &phi1, degree)
                .map_err(|e| WiForceError::Calibration(e.to_string()))?;
            let poly2 = Polynomial::fit(&forces, &phi2, degree)
                .map_err(|e| WiForceError::Calibration(e.to_string()))?;
            force_min = force_min.min(forces.iter().cloned().fold(f64::INFINITY, f64::min));
            force_max = force_max.max(forces.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
            curves.push(LocationCurve {
                location_m: loc.location_m,
                poly1,
                poly2,
            });
        }
        Ok(SensorModel::new(curves, force_min, force_max))
    }

    /// Assembles a validated model (at least two strictly increasing
    /// locations) and builds its inversion grid.
    pub(crate) fn new(curves: Vec<LocationCurve>, force_min_n: f64, force_max_n: f64) -> Self {
        let grid = Arc::new(InversionGrid::build(&curves, (force_min_n, force_max_n)));
        SensorModel {
            curves,
            force_min_n,
            force_max_n,
            grid,
        }
    }

    /// The coarse inversion grid built at fit or load time.
    pub(crate) fn grid(&self) -> &InversionGrid {
        &self.grid
    }

    /// Calibration locations, ascending, m.
    pub fn locations_m(&self) -> Vec<f64> {
        self.curves.iter().map(|c| c.location_m).collect()
    }

    /// Calibrated force range `(min, max)`, N.
    pub fn force_range_n(&self) -> (f64, f64) {
        (self.force_min_n, self.force_max_n)
    }

    /// Location range covered by calibration `(min, max)`, m.
    pub fn location_range_m(&self) -> (f64, f64) {
        (
            self.curves.first().map_or(0.0, |c| c.location_m),
            self.curves.last().map_or(0.0, |c| c.location_m),
        )
    }

    /// The fitted curves.
    pub fn curves(&self) -> &[LocationCurve] {
        &self.curves
    }

    /// Predicted `(φ₁, φ₂)` (rad) for a press of `force_n` at
    /// `location_m`, interpolating the per-location cubic evaluations
    /// along the sensor axis.
    pub fn predict(&self, force_n: f64, location_m: f64) -> (f64, f64) {
        let xs: Vec<f64> = self.curves.iter().map(|c| c.location_m).collect();
        let y1: Vec<f64> = self.curves.iter().map(|c| c.poly1.eval(force_n)).collect();
        let y2: Vec<f64> = self.curves.iter().map(|c| c.poly2.eval(force_n)).collect();
        let p1 = catmull_rom(&xs, &y1, location_m).expect("validated at fit time");
        let p2 = catmull_rom(&xs, &y2, location_m).expect("validated at fit time");
        (p1, p2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic ground truth: φ1 grows with force, more steeply close to
    /// port 1; φ2 mirrored.
    fn synth_phases(force: f64, loc: f64) -> (f64, f64) {
        let l = 0.080;
        let w1 = 1.0 - loc / l;
        let w2 = loc / l;
        (
            0.3 * w1 * force.sqrt() + 0.01 * force,
            0.3 * w2 * force.sqrt() + 0.01 * force,
        )
    }

    fn synth_data() -> Vec<LocationData> {
        [0.020, 0.030, 0.040, 0.050, 0.060]
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
            .collect()
    }

    #[test]
    fn fit_and_ranges() {
        let m = SensorModel::fit(&synth_data(), 3).unwrap();
        assert_eq!(m.locations_m(), vec![0.020, 0.030, 0.040, 0.050, 0.060]);
        let (lo, hi) = m.force_range_n();
        assert_eq!(lo, 0.5);
        assert_eq!(hi, 8.0);
        assert_eq!(m.location_range_m(), (0.020, 0.060));
    }

    #[test]
    fn predicts_at_calibration_points() {
        let m = SensorModel::fit(&synth_data(), 3).unwrap();
        for &loc in &[0.020, 0.040, 0.060] {
            for &f in &[1.0, 4.0, 7.5] {
                let (p1, p2) = m.predict(f, loc);
                let (t1, t2) = synth_phases(f, loc);
                assert!((p1 - t1).abs() < 0.02, "loc {loc} f {f}: {p1} vs {t1}");
                assert!((p2 - t2).abs() < 0.02);
            }
        }
    }

    #[test]
    fn interpolates_held_out_location() {
        // the paper's 55 mm validation: trained at 20/30/40/50/60, tested
        // between calibration points
        let m = SensorModel::fit(&synth_data(), 3).unwrap();
        let (p1, p2) = m.predict(4.0, 0.055);
        let (t1, t2) = synth_phases(4.0, 0.055);
        assert!((p1 - t1).abs() < 0.03, "{p1} vs {t1}");
        assert!((p2 - t2).abs() < 0.03, "{p2} vs {t2}");
    }

    #[test]
    fn fit_errors() {
        assert!(matches!(
            SensorModel::fit(&synth_data()[..1], 3),
            Err(WiForceError::Calibration(_))
        ));
        let mut dup = synth_data();
        dup[1].location_m = dup[0].location_m;
        assert!(SensorModel::fit(&dup, 3).is_err());
        let mut sparse = synth_data();
        sparse[0].samples.truncate(2);
        assert!(SensorModel::fit(&sparse, 3).is_err());
    }

    #[test]
    fn unsorted_input_accepted() {
        let mut data = synth_data();
        data.reverse();
        let m = SensorModel::fit(&data, 3).unwrap();
        assert_eq!(m.locations_m(), vec![0.020, 0.030, 0.040, 0.050, 0.060]);
    }
}

impl SensorModel {
    /// Serializes the model to a small self-describing text format
    /// (`.wfm`): a header line, then one line per location with the two
    /// cubic coefficient sets.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "WFM1 {} {} {}",
            self.curves.len(),
            self.force_min_n,
            self.force_max_n
        )?;
        for c in &self.curves {
            write!(f, "{}", c.location_m)?;
            write!(f, " | ")?;
            for v in c.poly1.coeffs() {
                write!(f, "{v} ")?;
            }
            write!(f, "| ")?;
            for v in c.poly2.coeffs() {
                write!(f, "{v} ")?;
            }
            writeln!(f)?;
        }
        f.flush()
    }

    /// Loads a model saved by [`Self::save`]. The header's curve count
    /// must fit the file's lines, every location, coefficient and force
    /// bound must be finite, and the force range must have min < max;
    /// violations are `InvalidData` errors.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        let text = std::fs::read_to_string(path)?;
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty model file"))?;
        let mut head = header.split_whitespace();
        if head.next() != Some("WFM1") {
            return Err(bad("not a WFM1 sensor model"));
        }
        let n: usize = head
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad curve count"))?;
        let force_min_n: f64 = head
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad force range"))?;
        let force_max_n: f64 = head
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad force range"))?;
        if !(force_min_n.is_finite() && force_max_n.is_finite()) {
            return Err(bad("non-finite force range"));
        }
        if force_min_n >= force_max_n {
            return Err(bad("force range needs min < max"));
        }
        if n > text.lines().count() - 1 {
            return Err(bad("curve count exceeds the file's lines"));
        }
        let mut curves = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines.next().ok_or_else(|| bad("truncated model file"))?;
            let mut parts = line.split('|');
            let loc: f64 = parts
                .next()
                .and_then(|v| v.trim().parse().ok())
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| bad("bad location"))?;
            let parse_poly =
                |chunk: Option<&str>| -> Result<wiforce_dsp::polyfit::Polynomial, Error> {
                    let coeffs: Result<Vec<f64>, _> = chunk
                        .ok_or_else(|| bad("missing coefficients"))?
                        .split_whitespace()
                        .map(|v| v.parse::<f64>())
                        .collect();
                    let coeffs = coeffs.map_err(|_| bad("bad coefficient"))?;
                    if coeffs.is_empty() {
                        return Err(bad("empty coefficient set"));
                    }
                    if coeffs.iter().any(|c| !c.is_finite()) {
                        return Err(bad("non-finite coefficient"));
                    }
                    Ok(wiforce_dsp::polyfit::Polynomial::new(coeffs))
                };
            let poly1 = parse_poly(parts.next())?;
            let poly2 = parse_poly(parts.next())?;
            curves.push(LocationCurve {
                location_m: loc,
                poly1,
                poly2,
            });
        }
        if curves.len() < 2
            || curves
                .windows(2)
                .any(|w| w[0].location_m >= w[1].location_m)
        {
            return Err(bad("model needs ≥2 strictly increasing locations"));
        }
        Ok(SensorModel::new(curves, force_min_n, force_max_n))
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    fn sample_model() -> SensorModel {
        let data: Vec<LocationData> = [0.020, 0.040, 0.060]
            .iter()
            .map(|&loc| LocationData {
                location_m: loc,
                samples: (1..=8)
                    .map(|i| {
                        let f = i as f64;
                        CalibrationSample {
                            force_n: f,
                            phi1_rad: 0.1 * f + loc,
                            phi2_rad: -0.05 * f * f + loc,
                        }
                    })
                    .collect(),
            })
            .collect();
        SensorModel::fit(&data, 3).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wiforce_model_test");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip() {
        let m = sample_model();
        let path = tmp("model.wfm");
        m.save(&path).unwrap();
        let back = SensorModel::load(&path).unwrap();
        assert_eq!(back.locations_m(), m.locations_m());
        assert_eq!(back.force_range_n(), m.force_range_n());
        // predictions agree to printing precision
        for &f in &[1.0, 4.5, 7.0] {
            for &x in &[0.025, 0.040, 0.055] {
                let (a1, a2) = m.predict(f, x);
                let (b1, b2) = back.predict(f, x);
                assert!((a1 - b1).abs() < 1e-12 && (a2 - b2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn load_rejects_garbage() {
        let path = tmp("garbage.wfm");
        std::fs::write(&path, "not a model\n1 2 3").unwrap();
        assert!(SensorModel::load(&path).is_err());
    }

    #[test]
    fn load_rejects_oversized_curve_count() {
        let path = tmp("oversized.wfm");
        std::fs::write(&path, "WFM1 18446744073709551615 0.5 8\n").unwrap();
        let err = SensorModel::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn load_rejects_non_finite_values() {
        let m = sample_model();
        let path = tmp("finite.wfm");
        m.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // first coefficient of the first curve's port-1 cubic
        let (loc, rest) = lines[1].split_once(" | ").unwrap();
        let (_, tail) = rest.split_once(' ').unwrap();
        let nan_coeff = format!("{loc} | NaN {tail}");
        // the header's force range
        let head: Vec<&str> = lines[0].split_whitespace().collect();
        let inf_range = format!("{} {} {} inf", head[0], head[1], head[2]);
        for (row, bad) in [(1, nan_coeff), (0, inf_range)] {
            let saved = std::mem::replace(&mut lines[row], bad);
            std::fs::write(&path, lines.join("\n")).unwrap();
            let err = SensorModel::load(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            lines[row] = saved;
        }
        // and the restored text still loads
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(SensorModel::load(&path).is_ok());
    }

    #[test]
    fn load_rejects_truncation() {
        let m = sample_model();
        let path = tmp("trunc.wfm");
        m.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, cut).unwrap();
        assert!(SensorModel::load(&path).is_err());
    }

    fn header_with_range(text: &str, range: &str) -> String {
        let (head, body) = text.split_once('\n').unwrap();
        let n = head.split_whitespace().nth(1).unwrap();
        format!("WFM1 {n} {range}\n{body}")
    }

    #[test]
    fn load_rejects_inverted_force_range() {
        // min above max made `invert` panic in `f64::clamp`
        let path = tmp("inverted.wfm");
        sample_model().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, header_with_range(&text, "8 0.5")).unwrap();
        let err = SensorModel::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn load_rejects_empty_force_range() {
        // min equal to max read every press as that one force
        let path = tmp("empty_range.wfm");
        sample_model().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, header_with_range(&text, "0.5 0.5")).unwrap();
        let err = SensorModel::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    /// What a loaded model must survive: inversions anywhere on the phase
    /// torus, including its seams, return without panicking.
    fn inverts_cleanly(m: &SensorModel) {
        for (p1, p2) in [
            (0.0, 0.0),
            (0.4, -0.3),
            (-3.1, 3.1),
            (std::f64::consts::PI, -std::f64::consts::PI),
            (2.0, 1.0),
        ] {
            let _ = m.invert(p1, p2, 0.35);
        }
    }

    fn sample_bytes(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let path = tmp(name);
        sample_model().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn load_survives_every_truncation() {
        let (path, bytes) = sample_bytes("every_cut.wfm");
        let mut loaded = 0;
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            if let Ok(m) = SensorModel::load(&path) {
                inverts_cleanly(&m);
                loaded += 1;
            }
        }
        // a cut inside the last curve's digits can still parse
        assert!(loaded < bytes.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Random corruptions of a valid file: each position is either
        /// XORed with a nonzero byte or overwritten with a character a
        /// number could contain, so many corruptions still parse.
        #[test]
        fn load_survives_random_corruption(
            edits in proptest::prelude::prop::collection::vec(
                (0usize..1 << 20, 1u8..255, 0u8..2),
                1..8,
            ),
        ) {
            const NUMERIC: &[u8] = b"0123456789.-+eE |\nNaNinf";
            let (path, mut bytes) = sample_bytes("corrupt.wfm");
            let len = bytes.len();
            for (at, byte, mode) in edits {
                let b = &mut bytes[at % len];
                *b = if mode == 0 {
                    *b ^ byte
                } else {
                    NUMERIC[byte as usize % NUMERIC.len()]
                };
            }
            std::fs::write(&path, &bytes).unwrap();
            if let Ok(m) = SensorModel::load(&path) {
                let (lo, hi) = m.force_range_n();
                proptest::prop_assert!(lo < hi);
                inverts_cleanly(&m);
            }
        }
    }
}
