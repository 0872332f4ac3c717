//! Interpolation on sorted grids.
//!
//! The sensor model is calibrated at five discrete press locations
//! (20/30/40/50/60 mm); estimating at intermediate locations (the paper
//! validates at 55 mm) requires interpolating fitted model parameters across
//! location — done here with linear and monotone-friendly Catmull-Rom
//! interpolation, plus bilinear interpolation for 2-D lookup tables.

use std::fmt;

/// Errors from interpolation routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Grid has fewer than two points.
    TooFewPoints,
    /// Grid abscissae are not strictly increasing.
    NotSorted,
    /// Grid and value lengths differ.
    LengthMismatch,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::TooFewPoints => write!(f, "need at least 2 grid points"),
            InterpError::NotSorted => write!(f, "grid must be strictly increasing"),
            InterpError::LengthMismatch => write!(f, "grid and values must have equal length"),
        }
    }
}

impl std::error::Error for InterpError {}

fn validate(xs: &[f64], ys: &[f64]) -> Result<(), InterpError> {
    if xs.len() < 2 {
        return Err(InterpError::TooFewPoints);
    }
    if xs.len() != ys.len() {
        return Err(InterpError::LengthMismatch);
    }
    if xs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(InterpError::NotSorted);
    }
    Ok(())
}

/// Index of the left grid point of the interval containing `x` (clamped to
/// the outermost intervals for extrapolation).
fn bracket(xs: &[f64], x: f64) -> usize {
    let n = xs.len();
    if x <= xs[0] {
        return 0;
    }
    if x >= xs[n - 1] {
        return n - 2;
    }
    // partition_point gives first index with xs[i] > x
    xs.partition_point(|&g| g <= x).saturating_sub(1).min(n - 2)
}

/// Piecewise-linear interpolation of `(xs, ys)` at `x`, linearly
/// extrapolating beyond the grid ends.
pub fn lerp(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, InterpError> {
    validate(xs, ys)?;
    let i = bracket(xs, x);
    let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    Ok(ys[i] * (1.0 - t) + ys[i + 1] * t)
}

/// Catmull-Rom cubic interpolation at `x` (C¹-smooth through the samples),
/// clamping to linear behaviour beyond the grid.
pub fn catmull_rom(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, InterpError> {
    validate(xs, ys)?;
    let n = xs.len();
    if x <= xs[0] || x >= xs[n - 1] || n < 3 {
        return lerp(xs, ys, x);
    }
    let i = bracket(xs, x);
    // Tangents via finite differences (non-uniform grid aware).
    let tangent = |k: usize| -> f64 {
        if k == 0 {
            (ys[1] - ys[0]) / (xs[1] - xs[0])
        } else if k == n - 1 {
            (ys[n - 1] - ys[n - 2]) / (xs[n - 1] - xs[n - 2])
        } else {
            (ys[k + 1] - ys[k - 1]) / (xs[k + 1] - xs[k - 1])
        }
    };
    let h = xs[i + 1] - xs[i];
    let t = (x - xs[i]) / h;
    let (m0, m1) = (tangent(i) * h, tangent(i + 1) * h);
    let t2 = t * t;
    let t3 = t2 * t;
    Ok((2.0 * t3 - 3.0 * t2 + 1.0) * ys[i]
        + (t3 - 2.0 * t2 + t) * m0
        + (-2.0 * t3 + 3.0 * t2) * ys[i + 1]
        + (t3 - t2) * m1)
}

/// A precomputed Catmull-Rom evaluation stencil at one fixed abscissa.
///
/// Catmull-Rom interpolation is linear in the sample values: for a fixed
/// grid `xs` and query `x`, the result is a dot product of at most four
/// weights with `ys[base..]`. Callers that evaluate many different value
/// rows at the same abscissae (e.g. the sensor-model inversion's grid
/// scan, which sweeps force rows under fixed location columns) build the
/// stencil once per abscissa and pay four multiply-adds per evaluation
/// instead of a full bracket + tangent computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CatmullStencil {
    /// First sample index the taps apply to.
    base: usize,
    /// Tap weights for `ys[base..base + 4]`; trailing taps that fall off
    /// the grid carry zero weight.
    w: [f64; 4],
}

impl CatmullStencil {
    /// Applies the stencil to one row of sample values (`ys` must be the
    /// same length as the grid the stencil was built for).
    #[inline]
    pub fn eval(&self, ys: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (w, y) in self.w.iter().zip(&ys[self.base..]) {
            acc += w * y;
        }
        acc
    }

    /// The weight this stencil gives sample `k` of the grid: its tap
    /// weight where a tap lands on `k`, `0.0` elsewhere. Expanding a
    /// stencil to these dense weights (see
    /// [`crate::kernels::stencil_rows`]) reproduces [`Self::eval`]'s bits
    /// on finite samples.
    #[inline]
    pub fn weight(&self, k: usize) -> f64 {
        match k.checked_sub(self.base) {
            Some(tap) if tap < self.w.len() => self.w[tap],
            _ => 0.0,
        }
    }
}

/// Builds the [`CatmullStencil`] for query point `x` on grid `xs`,
/// matching [`catmull_rom`]'s piecewise definition (including the linear
/// clamp beyond the grid ends) up to floating-point reassociation.
pub fn catmull_stencil(xs: &[f64], x: f64) -> Result<CatmullStencil, InterpError> {
    if xs.len() < 2 {
        return Err(InterpError::TooFewPoints);
    }
    if xs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(InterpError::NotSorted);
    }
    let n = xs.len();
    let i = bracket(xs, x);
    if x <= xs[0] || x >= xs[n - 1] || n < 3 {
        let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
        return Ok(CatmullStencil {
            base: i,
            w: [1.0 - t, t, 0.0, 0.0],
        });
    }
    let h = xs[i + 1] - xs[i];
    let t = (x - xs[i]) / h;
    let t2 = t * t;
    let t3 = t2 * t;
    let b0 = 2.0 * t3 - 3.0 * t2 + 1.0;
    let b1 = t3 - 2.0 * t2 + t;
    let b2 = -2.0 * t3 + 3.0 * t2;
    let b3 = t3 - t2;
    // accumulate per-sample weights of b0·ys[i] + b1·h·tangent(i) +
    // b2·ys[i+1] + b3·h·tangent(i+1), where each tangent is a finite
    // difference of two samples
    let base = if i == 0 { 0 } else { i - 1 };
    let mut w = [0.0f64; 4];
    {
        let mut add = |idx: usize, v: f64| w[idx - base] += v;
        add(i, b0);
        add(i + 1, b2);
        if i == 0 {
            let c = b1 * h / (xs[1] - xs[0]);
            add(1, c);
            add(0, -c);
        } else {
            let c = b1 * h / (xs[i + 1] - xs[i - 1]);
            add(i + 1, c);
            add(i - 1, -c);
        }
        if i + 1 == n - 1 {
            let c = b3 * h / (xs[n - 1] - xs[n - 2]);
            add(n - 1, c);
            add(n - 2, -c);
        } else {
            let c = b3 * h / (xs[i + 2] - xs[i]);
            add(i + 2, c);
            add(i, -c);
        }
    }
    Ok(CatmullStencil { base, w })
}

/// Bilinear interpolation on a rectangular grid.
///
/// `values[i][j]` corresponds to `(xs[i], ys[j])`. Clamps outside the grid.
pub fn bilinear(
    xs: &[f64],
    ys: &[f64],
    values: &[Vec<f64>],
    x: f64,
    y: f64,
) -> Result<f64, InterpError> {
    if xs.len() < 2 || ys.len() < 2 {
        return Err(InterpError::TooFewPoints);
    }
    if values.len() != xs.len() || values.iter().any(|row| row.len() != ys.len()) {
        return Err(InterpError::LengthMismatch);
    }
    if xs.windows(2).any(|w| w[0] >= w[1]) || ys.windows(2).any(|w| w[0] >= w[1]) {
        return Err(InterpError::NotSorted);
    }
    let i = bracket(xs, x);
    let j = bracket(ys, y);
    let tx = ((x - xs[i]) / (xs[i + 1] - xs[i])).clamp(0.0, 1.0);
    let ty = ((y - ys[j]) / (ys[j + 1] - ys[j])).clamp(0.0, 1.0);
    let v00 = values[i][j];
    let v10 = values[i + 1][j];
    let v01 = values[i][j + 1];
    let v11 = values[i + 1][j + 1];
    Ok(v00 * (1.0 - tx) * (1.0 - ty)
        + v10 * tx * (1.0 - ty)
        + v01 * (1.0 - tx) * ty
        + v11 * tx * ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_matches_catmull_rom_everywhere() {
        // non-uniform grid, queries inside every interval, at knots, and
        // beyond both ends (the linear-clamp region)
        let xs = [0.0, 0.7, 1.5, 3.1, 4.0];
        let rows = [
            [1.0, -2.0, 0.5, 3.0, -1.0],
            [0.0, 1.0, 4.0, 9.0, 16.0],
            [5.0, 5.0, 5.0, 5.0, 5.0],
        ];
        for q in 0..200 {
            let x = -0.5 + 5.0 * q as f64 / 199.0;
            let st = catmull_stencil(&xs, x).unwrap();
            for ys in &rows {
                let direct = catmull_rom(&xs, ys, x).unwrap();
                let via = st.eval(ys);
                assert!(
                    (direct - via).abs() <= 1e-12 * (1.0 + direct.abs()),
                    "x={x}: direct={direct} stencil={via}"
                );
            }
        }
    }

    #[test]
    fn stencil_handles_tiny_grids() {
        // n == 2 → pure lerp path; n == 3 → boundary tangents both sides
        let st = catmull_stencil(&[0.0, 1.0], 0.25).unwrap();
        assert!((st.eval(&[0.0, 4.0]) - 1.0).abs() < 1e-15);
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0, 0.0];
        for &x in &[0.3, 0.5, 1.2, 1.9] {
            let st = catmull_stencil(&xs, x).unwrap();
            let direct = catmull_rom(&xs, &ys, x).unwrap();
            assert!((st.eval(&ys) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn stencil_rejects_bad_grids() {
        assert!(catmull_stencil(&[0.0], 0.0).is_err());
        assert!(catmull_stencil(&[1.0, 0.5], 0.7).is_err());
    }

    #[test]
    fn lerp_hits_knots_and_midpoints() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 10.0, 30.0];
        assert_eq!(lerp(&xs, &ys, 0.0).unwrap(), 0.0);
        assert_eq!(lerp(&xs, &ys, 1.0).unwrap(), 10.0);
        assert_eq!(lerp(&xs, &ys, 2.0).unwrap(), 20.0);
        assert_eq!(lerp(&xs, &ys, 0.5).unwrap(), 5.0);
    }

    #[test]
    fn lerp_extrapolates_linearly() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 2.0];
        assert_eq!(lerp(&xs, &ys, 2.0).unwrap(), 4.0);
        assert_eq!(lerp(&xs, &ys, -1.0).unwrap(), -2.0);
    }

    #[test]
    fn lerp_errors() {
        assert_eq!(lerp(&[1.0], &[1.0], 0.5), Err(InterpError::TooFewPoints));
        assert_eq!(
            lerp(&[1.0, 0.0], &[1.0, 2.0], 0.5),
            Err(InterpError::NotSorted)
        );
        assert_eq!(
            lerp(&[0.0, 1.0], &[1.0], 0.5),
            Err(InterpError::LengthMismatch)
        );
    }

    #[test]
    fn catmull_rom_through_knots() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 4.0, 9.0];
        for (x, y) in xs.iter().zip(&ys) {
            assert!((catmull_rom(&xs, &ys, *x).unwrap() - y).abs() < 1e-12);
        }
    }

    #[test]
    fn catmull_rom_reproduces_smooth_function_better_than_lerp() {
        let xs: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let f = |x: f64| (x * 0.7).sin();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let mut err_cr = 0.0;
        let mut err_l = 0.0;
        for k in 0..60 {
            let x = 0.05 + k as f64 * 0.1;
            err_cr += (catmull_rom(&xs, &ys, x).unwrap() - f(x)).abs();
            err_l += (lerp(&xs, &ys, x).unwrap() - f(x)).abs();
        }
        assert!(
            err_cr < err_l,
            "catmull-rom {err_cr} should beat lerp {err_l}"
        );
    }

    #[test]
    fn bilinear_corners_and_center() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let v = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        assert_eq!(bilinear(&xs, &ys, &v, 0.0, 0.0).unwrap(), 0.0);
        assert_eq!(bilinear(&xs, &ys, &v, 1.0, 1.0).unwrap(), 3.0);
        assert_eq!(bilinear(&xs, &ys, &v, 0.5, 0.5).unwrap(), 1.5);
    }

    #[test]
    fn bilinear_clamps_outside() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let v = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        assert_eq!(bilinear(&xs, &ys, &v, -5.0, -5.0).unwrap(), 0.0);
        assert_eq!(bilinear(&xs, &ys, &v, 5.0, 5.0).unwrap(), 3.0);
    }

    #[test]
    fn bilinear_shape_errors() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let bad = vec![vec![0.0], vec![1.0]];
        assert_eq!(
            bilinear(&xs, &ys, &bad, 0.5, 0.5),
            Err(InterpError::LengthMismatch)
        );
    }
}
