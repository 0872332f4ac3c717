//! Discrete Fourier transforms.
//!
//! WiForce's sensing algorithm (paper §3.3, Eq. 1–3) takes an FFT *across
//! channel snapshots* to isolate the tag's switching harmonics ("artificial
//! Doppler") from static multipath, and the OFDM reader needs FFTs across
//! subcarriers. Snapshot group sizes are powers of two in our pipeline, but
//! calibration sweeps produce arbitrary lengths, so we provide:
//!
//! * [`FftPlan`] — a planned transform with precomputed bit-reversal and
//!   twiddle tables (and a cached Bluestein chirp/b-spectrum for
//!   non-power-of-two lengths), allocation-free in steady state.
//! * [`fft`] / [`ifft`] — any length: radix-2 when `n` is a power of two,
//!   Bluestein's algorithm otherwise. Backed by a per-thread plan cache
//!   ([`with_plan`]), so repeated same-length transforms reuse tables.
//! * [`goertzel`] — single-bin DFT at an arbitrary (even fractional)
//!   normalized frequency; this is how the pipeline cheaply evaluates the
//!   spectrum exactly at `fs` and `4·fs` without a full transform.
//! * [`goertzel_columns`] — batched multi-bin Goertzel over the columns of
//!   a row-major snapshot matrix in a single sequential pass.
//! * [`dft_naive`] — O(n²) reference used by the test-suite oracle.
//!
//! Conventions: forward transform `X[k] = Σ_n x[n]·e^{-j2πkn/N}` (no
//! normalization), inverse divides by `N`, matching NumPy/Matlab.

use crate::complex::Complex;
use crate::TAU;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Next power of two `>= n` (with `next_pow2(0) == 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// In-place radix-2 decimation-in-time FFT.
///
/// # Panics
/// Panics if `buf.len()` is not a power of two. Use [`fft`] for general
/// lengths.
pub fn fft_radix2_inplace(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(
        is_power_of_two(n),
        "radix-2 FFT requires power-of-two length, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }

    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -TAU / len as f64;
        let wlen = Complex::cis(ang);
        for chunk in buf.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Precomputed bit-reversal permutation and per-stage twiddle tables for a
/// power-of-two length.
///
/// The twiddles are generated with the same phasor recurrence as
/// [`fft_radix2_inplace`] (per stage: `w ← w·e^{-j2π/len}` starting from
/// 1), so a planned transform is bit-identical to the direct one.
#[derive(Debug, Clone)]
struct Radix2Tables {
    n: usize,
    /// For each index, its bit-reversed partner.
    bitrev: Vec<u32>,
    /// Twiddles of all stages, flattened: stage `len` (2, 4, …, n)
    /// contributes `len/2` entries, totalling `n - 1`.
    twiddles: Vec<Complex>,
}

impl Radix2Tables {
    fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n),
            "radix-2 plan requires power-of-two length, got {n}"
        );
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| (i.reverse_bits() >> (usize::BITS - bits.max(1))) as u32)
            .collect();
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let wlen = Complex::cis(-TAU / len as f64);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        Radix2Tables {
            n,
            bitrev,
            twiddles,
        }
    }

    /// In-place forward radix-2 FFT using the precomputed tables.
    fn run(&self, buf: &mut [Complex]) {
        let n = self.n;
        debug_assert_eq!(buf.len(), n);
        if n <= 1 {
            return;
        }
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        let mut stage_off = 0;
        while len <= n {
            let half = len / 2;
            let tw = &self.twiddles[stage_off..stage_off + half];
            for chunk in buf.chunks_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let a = *u;
                    let b = *v * w;
                    *u = a + b;
                    *v = a - b;
                }
            }
            stage_off += half;
            len <<= 1;
        }
    }
}

/// Cached state for Bluestein's algorithm at one (non-power-of-two) length.
#[derive(Debug, Clone)]
struct BluesteinPlan {
    /// Forward chirp `e^{-jπk²/n}`, length `n`.
    chirp: Vec<Complex>,
    /// FFT of the convolution kernel, length `m`.
    bspec: Vec<Complex>,
    /// Reusable length-`m` convolution workspace.
    scratch: Vec<Complex>,
    /// Radix-2 tables for the padded length `m`.
    tables: Radix2Tables,
}

/// A planned DFT of one fixed length.
///
/// Precomputes everything the transform needs — bit-reversal permutation,
/// twiddle tables, and for non-power-of-two lengths the Bluestein chirp,
/// kernel spectrum and convolution workspace — so repeated transforms do
/// no allocation and no trigonometry. Power-of-two plans are bit-identical
/// to [`fft_radix2_inplace`]; Bluestein plans are bit-identical to the
/// unplanned [`fft`] path.
///
/// Transforms take `&mut self` because Bluestein plans reuse an internal
/// workspace. For an ad-hoc cached plan see [`with_plan`].
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Tables for length `n` itself (power of two) …
    pow2: Option<Radix2Tables>,
    /// … or the Bluestein machinery for awkward lengths.
    bluestein: Option<Box<BluesteinPlan>>,
    /// Reusable split re/im workspace for the row-vectorized transforms.
    rows_scratch: Vec<f64>,
}

impl FftPlan {
    /// Plans a DFT of length `n` (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "cannot plan a zero-length FFT");
        if is_power_of_two(n) {
            FftPlan {
                n,
                pow2: Some(Radix2Tables::new(n)),
                bluestein: None,
                rows_scratch: Vec::new(),
            }
        } else {
            // chirp[k] = e^{-jπk²/n}; k² mod 2n avoids large-angle error
            let chirp: Vec<Complex> = (0..n)
                .map(|k| {
                    let kk = (k as u128 * k as u128) % (2 * n as u128);
                    Complex::cis(-crate::PI * kk as f64 / n as f64)
                })
                .collect();
            let m = next_pow2(2 * n - 1);
            let tables = Radix2Tables::new(m);
            let mut b = vec![Complex::ZERO; m];
            b[0] = chirp[0].conj();
            for k in 1..n {
                let c = chirp[k].conj();
                b[k] = c;
                b[m - k] = c;
            }
            tables.run(&mut b);
            FftPlan {
                n,
                pow2: None,
                bluestein: Some(Box::new(BluesteinPlan {
                    chirp,
                    bspec: b,
                    scratch: vec![Complex::ZERO; m],
                    tables,
                })),
                rows_scratch: Vec::new(),
            }
        }
    }

    /// The planned transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: plans are at least length 1.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward DFT in place.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned length.
    pub fn forward_inplace(&mut self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length does not match plan");
        if let Some(tables) = &self.pow2 {
            tables.run(buf);
            return;
        }
        let bs = self
            .bluestein
            .as_mut()
            .expect("non-pow2 plan has Bluestein state");
        let n = self.n;
        let m = bs.scratch.len();
        for (slot, (&x, &c)) in bs.scratch.iter_mut().zip(buf.iter().zip(&bs.chirp)) {
            *slot = x * c;
        }
        bs.scratch[n..].fill(Complex::ZERO);
        bs.tables.run(&mut bs.scratch);
        for (a, &b) in bs.scratch.iter_mut().zip(&bs.bspec) {
            *a *= b;
        }
        bs.scratch.iter_mut().for_each(|z| *z = z.conj());
        bs.tables.run(&mut bs.scratch);
        let scale = 1.0 / m as f64;
        for (out, (&a, &c)) in buf.iter_mut().zip(bs.scratch.iter().zip(&bs.chirp)) {
            *out = a.conj().scale(scale) * c;
        }
    }

    /// Inverse DFT in place, normalized by `1/N`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned length.
    pub fn inverse_inplace(&mut self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length does not match plan");
        // IFFT(x) = conj(FFT(conj(x))) / N
        buf.iter_mut().for_each(|z| *z = z.conj());
        self.forward_inplace(buf);
        let scale = 1.0 / self.n as f64;
        buf.iter_mut().for_each(|z| *z = z.conj().scale(scale));
    }

    /// Forward DFT of every length-`n` row of `plane` in place.
    ///
    /// Power-of-two plans run all rows through one invocation of the
    /// row-vectorized [`crate::kernels::fft_pow2_rows`] kernel, whose
    /// per-row arithmetic is the exact butterfly sequence of
    /// [`Self::forward_inplace`] — so each row comes out bit-identical
    /// to a row-at-a-time transform (pinned by tests below). Other
    /// lengths fall back to per-row Bluestein transforms.
    ///
    /// # Panics
    /// Panics if `plane.len() != rows * self.len()`.
    pub fn forward_rows_inplace(&mut self, plane: &mut [Complex], rows: usize) {
        assert_eq!(
            plane.len(),
            rows * self.n,
            "plane must hold exactly `rows` rows of the planned length"
        );
        if let Some(tables) = &self.pow2 {
            crate::kernels::fft_pow2_rows(
                plane,
                self.n,
                &tables.bitrev,
                &tables.twiddles,
                &mut self.rows_scratch,
            );
            return;
        }
        for row in plane.chunks_exact_mut(self.n) {
            self.forward_inplace(row);
        }
    }

    /// Inverse DFT of every length-`n` row of `plane` in place,
    /// normalized by `1/N`. The conjugate–forward–conjugate/scale
    /// elementwise wrapper of [`Self::inverse_inplace`] around
    /// [`Self::forward_rows_inplace`], so per-row results are
    /// bit-identical to row-at-a-time inverse transforms.
    ///
    /// # Panics
    /// Panics if `plane.len() != rows * self.len()`.
    pub fn inverse_rows_inplace(&mut self, plane: &mut [Complex], rows: usize) {
        assert_eq!(
            plane.len(),
            rows * self.n,
            "plane must hold exactly `rows` rows of the planned length"
        );
        plane.iter_mut().for_each(|z| *z = z.conj());
        self.forward_rows_inplace(plane, rows);
        let scale = 1.0 / self.n as f64;
        plane.iter_mut().for_each(|z| *z = z.conj().scale(scale));
    }

    /// Forward DFT into a fresh vector.
    pub fn forward(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut buf = x.to_vec();
        self.forward_inplace(&mut buf);
        buf
    }

    /// Inverse DFT into a fresh vector.
    pub fn inverse(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut buf = x.to_vec();
        self.inverse_inplace(&mut buf);
        buf
    }
}

thread_local! {
    /// Per-thread plan cache backing [`with_plan`] (and thereby [`fft`] /
    /// [`ifft`]). Keyed by length; plans are small (O(n) complex values).
    static PLAN_CACHE: RefCell<BTreeMap<usize, FftPlan>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Runs `f` with a cached [`FftPlan`] of length `n`, creating (and then
/// caching) the plan on first use. The plan is temporarily removed from
/// the cache while `f` runs, so nested `with_plan` calls are fine.
pub fn with_plan<T>(n: usize, f: impl FnOnce(&mut FftPlan) -> T) -> T {
    PLAN_CACHE.with(|cache| {
        let mut plan = cache
            .borrow_mut()
            .remove(&n)
            .unwrap_or_else(|| FftPlan::new(n));
        let out = f(&mut plan);
        cache.borrow_mut().insert(n, plan);
        out
    })
}

/// Forward DFT of arbitrary length (radix-2 fast path, Bluestein
/// otherwise), using the per-thread plan cache.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    if x.is_empty() {
        return Vec::new();
    }
    with_plan(x.len(), |p| p.forward(x))
}

/// Inverse DFT of arbitrary length, normalized by `1/N`, using the
/// per-thread plan cache.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    if x.is_empty() {
        return Vec::new();
    }
    with_plan(x.len(), |p| p.inverse(x))
}

/// Naive O(n²) DFT used as a correctness oracle in tests.
pub fn dft_naive(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|i| x[i] * Complex::cis(-TAU * (k * i) as f64 / n as f64))
                .sum()
        })
        .collect()
}

/// Goertzel evaluation of the DTFT of `x` at normalized frequency
/// `f_norm = f / f_sample` (cycles per sample, may be fractional):
/// `X(f) = Σ_n x[n]·e^{-j2π f_norm n}`.
///
/// This is exactly WiForce's Eq. (1) for one analysis frequency, and is what
/// the pipeline uses to read the `fs` and `4fs` harmonic bins without paying
/// for a full FFT per subcarrier.
pub fn goertzel(x: &[Complex], f_norm: f64) -> Complex {
    // Direct complex accumulation with recurrence phasor; numerically robust
    // for the modest n (<= a few thousand) used per phase group.
    let w = Complex::cis(-TAU * f_norm);
    let mut phase = Complex::ONE;
    let mut acc = Complex::ZERO;
    for &xn in x {
        acc += xn * phase;
        phase *= w;
    }
    acc
}

/// Batched multi-bin Goertzel over the columns of a row-major matrix.
///
/// `data` holds `n_rows × n_cols` samples (row major, as in
/// [`crate::snapshots::SnapshotMatrix`]); column `k` is the time series of
/// subcarrier `k`. The returned `out[j][k]` equals
/// `goertzel(column_k - offset_k, f_norms[j])`, with `offset_k` taken from
/// `col_offsets` (or zero when `None`).
///
/// Instead of gathering each column and running [`goertzel`] per bin —
/// `n_cols × f_norms.len()` strided passes — this walks the matrix **once**
/// in memory order, advancing one shared phase recurrence per row and
/// accumulating every (bin, column) pair on the way through. Because the
/// per-column operations (addition order, phasor recurrence) are exactly
/// those of the per-column evaluation, the results are bit-identical to
/// it, just sequential in memory.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `n_cols`, or if
/// `col_offsets` is present with a length other than `n_cols`.
pub fn goertzel_columns(
    data: &[Complex],
    n_cols: usize,
    f_norms: &[f64],
    col_offsets: Option<&[Complex]>,
) -> Vec<Vec<Complex>> {
    assert!(n_cols > 0, "matrix must have at least one column");
    assert_eq!(data.len() % n_cols, 0, "data is not a whole number of rows");
    if let Some(off) = col_offsets {
        assert_eq!(off.len(), n_cols, "offset length must match column count");
    }
    let ws: Vec<Complex> = f_norms.iter().map(|&f| Complex::cis(-TAU * f)).collect();
    let mut phases = vec![Complex::ONE; ws.len()];
    let mut out = vec![vec![Complex::ZERO; n_cols]; ws.len()];
    let zeros;
    let off = match col_offsets {
        Some(off) => off,
        None => {
            zeros = vec![Complex::ZERO; n_cols];
            &zeros
        }
    };
    // an odd line count pairs its last line with a scratch accumulator
    let mut spare = if ws.len() % 2 == 1 {
        vec![Complex::ZERO; n_cols]
    } else {
        Vec::new()
    };
    for row in data.chunks_exact(n_cols) {
        // One dispatched pass per *pair* of lines: each acc[j][k] still
        // receives exactly one `(x − off) · phase` add per row, so the
        // result is bit-identical to the per-column formulation this
        // replaces (a `+0` offset leaves every sample unchanged).
        for (acc, ph) in out.chunks_mut(2).zip(phases.chunks(2)) {
            match (acc, ph) {
                ([a, b], &[pa, pb]) => crate::kernels::cmac2_sub_scaled(a, b, row, off, pa, pb),
                ([a], &[pa]) => {
                    crate::kernels::cmac2_sub_scaled(a, &mut spare, row, off, pa, Complex::ZERO)
                }
                _ => unreachable!("accumulators and phases pair up alike"),
            }
        }
        for (phase, &w) in phases.iter_mut().zip(&ws) {
            *phase *= w;
        }
    }
    out
}

/// Swaps the two halves of a spectrum so the zero bin sits in the middle
/// (like `fftshift`). For odd lengths the extra element goes to the first
/// half after shifting, matching NumPy.
pub fn fftshift<T: Clone>(x: &[T]) -> Vec<T> {
    let n = x.len();
    let half = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[half..]);
    out.extend_from_slice(&x[..half]);
    out
}

/// Frequency (Hz) of FFT bin `k` for length `n` and sample rate `fs_hz`,
/// mapping the upper half to negative frequencies.
pub fn bin_frequency(k: usize, n: usize, fs_hz: f64) -> f64 {
    assert!(k < n);
    let kk = if k <= n / 2 {
        k as f64
    } else {
        k as f64 - n as f64
    };
    kk * fs_hz / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_spectra_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "bin {i}: {x:?} vs {y:?} (diff {})",
                (*x - *y).abs()
            );
        }
    }

    fn impulse(n: usize, at: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; n];
        v[at] = Complex::ONE;
        v
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let x = impulse(8, 0);
        let s = fft(&x);
        for z in s {
            assert!((z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_shifted_impulse_is_phase_ramp() {
        let x = impulse(16, 3);
        let s = fft(&x);
        for (k, z) in s.iter().enumerate() {
            let expect = Complex::cis(-TAU * 3.0 * k as f64 / 16.0);
            assert!((*z - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn radix2_matches_naive() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        assert_spectra_close(&fft(&x), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn bluestein_matches_naive_for_awkward_lengths() {
        for n in [3usize, 5, 6, 7, 12, 17, 30, 97] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.31).cos(), (i as f64 * 0.17).sin()))
                .collect();
            assert_spectra_close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn ifft_inverts_fft_all_lengths() {
        for n in [1usize, 2, 4, 5, 8, 9, 16, 21, 64, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
                .collect();
            let back = ifft(&fft(&x));
            assert_spectra_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.2).sin(), 0.0))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let s = fft(&x);
        let freq_energy: f64 = s.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn goertzel_matches_fft_bin() {
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(TAU * 7.0 * i as f64 / n as f64) * 2.5)
            .collect();
        let s = fft(&x);
        for k in [0usize, 1, 7, 64, 127] {
            let g = goertzel(&x, k as f64 / n as f64);
            assert!((g - s[k]).abs() < 1e-8, "bin {k}");
        }
    }

    #[test]
    fn goertzel_reads_tone_phase() {
        // A tone at normalized frequency f with initial phase φ shows up in
        // the Goertzel bin with phase φ — the property the harmonic reader
        // relies on to extract sensor phases.
        let n = 500;
        let f = 0.031; // not an integer bin of n
        let phi = 1.01;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(TAU * f * i as f64 + phi))
            .collect();
        let g = goertzel(&x, f);
        assert!((g.arg() - phi).abs() < 1e-9);
        assert!((g.abs() - n as f64).abs() < 1e-6);
    }

    #[test]
    fn fftshift_even_odd() {
        assert_eq!(fftshift(&[0, 1, 2, 3]), vec![2, 3, 0, 1]);
        assert_eq!(fftshift(&[0, 1, 2, 3, 4]), vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn bin_frequency_wraps_negative() {
        assert_eq!(bin_frequency(0, 8, 8000.0), 0.0);
        assert_eq!(bin_frequency(1, 8, 8000.0), 1000.0);
        assert_eq!(bin_frequency(4, 8, 8000.0), 4000.0);
        assert_eq!(bin_frequency(5, 8, 8000.0), -3000.0);
        assert_eq!(bin_frequency(7, 8, 8000.0), -1000.0);
    }

    #[test]
    fn empty_input_ok() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn radix2_rejects_non_power_of_two() {
        let mut x = vec![Complex::ZERO; 6];
        fft_radix2_inplace(&mut x);
    }

    fn chirp_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect()
    }

    #[test]
    fn planned_pow2_is_bit_identical_to_direct() {
        for n in [1usize, 2, 8, 64, 1024] {
            let x = chirp_signal(n);
            let mut direct = x.clone();
            fft_radix2_inplace(&mut direct);
            let mut plan = FftPlan::new(n);
            let mut planned = x.clone();
            plan.forward_inplace(&mut planned);
            assert_eq!(planned, direct, "n = {n}");
        }
    }

    #[test]
    fn planned_matches_naive_all_lengths() {
        for n in [3usize, 5, 7, 12, 17, 30, 64, 97, 625] {
            let x = chirp_signal(n);
            let mut plan = FftPlan::new(n);
            assert_spectra_close(&plan.forward(&x), &dft_naive(&x), 1e-7 * n as f64);
        }
    }

    #[test]
    fn planned_inverse_round_trips() {
        for n in [2usize, 5, 8, 21, 64, 100, 625] {
            let x = chirp_signal(n);
            let mut plan = FftPlan::new(n);
            let spec = plan.forward(&x);
            let back = plan.inverse(&spec);
            assert_spectra_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn plan_is_reusable_without_state_leak() {
        // two consecutive transforms through one plan must agree with two
        // fresh plans (the Bluestein scratch must not leak between calls)
        let x = chirp_signal(625);
        let y: Vec<Complex> = x.iter().map(|z| *z * 0.3 + Complex::I).collect();
        let mut plan = FftPlan::new(625);
        let first = plan.forward(&x);
        let second = plan.forward(&y);
        assert_eq!(first, FftPlan::new(625).forward(&x));
        assert_eq!(second, FftPlan::new(625).forward(&y));
    }

    #[test]
    fn with_plan_caches_and_nests() {
        let x = chirp_signal(48);
        let direct = FftPlan::new(48).forward(&x);
        // nested with_plan calls (different and same lengths) must work
        let out = with_plan(48, |outer| {
            let inner = with_plan(16, |p| p.forward(&x[..16]));
            assert_eq!(inner.len(), 16);
            let again = with_plan(48, |p| p.forward(&x));
            assert_eq!(again, direct);
            outer.forward(&x)
        });
        assert_eq!(out, direct);
    }

    #[test]
    fn forward_rows_is_bit_identical_to_per_row() {
        for n in [1usize, 2, 8, 64] {
            for rows in [0usize, 1, 3, 8, 64, 100] {
                let plane: Vec<Complex> = (0..rows * n)
                    .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.23).cos()))
                    .collect();
                let mut wide = plane.clone();
                FftPlan::new(n).forward_rows_inplace(&mut wide, rows);
                let mut scalar = plane;
                let mut plan = FftPlan::new(n);
                for row in scalar.chunks_exact_mut(n) {
                    plan.forward_inplace(row);
                }
                for (i, (a, b)) in wide.iter().zip(&scalar).enumerate() {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n} rows={rows} re@{i}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} rows={rows} im@{i}");
                }
            }
        }
    }

    #[test]
    fn inverse_rows_is_bit_identical_to_per_row() {
        for (n, rows) in [(8usize, 5usize), (64, 17), (64, 64)] {
            let plane: Vec<Complex> = (0..rows * n)
                .map(|i| Complex::new((i as f64 * 0.11).cos(), (i as f64 * 0.41).sin()))
                .collect();
            let mut wide = plane.clone();
            FftPlan::new(n).inverse_rows_inplace(&mut wide, rows);
            let mut scalar = plane;
            let mut plan = FftPlan::new(n);
            for row in scalar.chunks_exact_mut(n) {
                plan.inverse_inplace(row);
            }
            for (i, (a, b)) in wide.iter().zip(&scalar).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n} rows={rows} re@{i}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} rows={rows} im@{i}");
            }
        }
    }

    #[test]
    fn forward_rows_bluestein_fallback_matches_per_row() {
        let (n, rows) = (12usize, 7usize);
        let plane: Vec<Complex> = (0..rows * n)
            .map(|i| Complex::new((i as f64 * 0.19).sin(), (i as f64 * 0.31).cos()))
            .collect();
        let mut wide = plane.clone();
        FftPlan::new(n).forward_rows_inplace(&mut wide, rows);
        let mut scalar = plane;
        let mut plan = FftPlan::new(n);
        for row in scalar.chunks_exact_mut(n) {
            plan.forward_inplace(row);
        }
        assert_eq!(wide, scalar);
    }

    #[test]
    #[should_panic(expected = "rows of the planned length")]
    fn forward_rows_rejects_ragged_plane() {
        let mut buf = vec![Complex::ZERO; 10];
        FftPlan::new(8).forward_rows_inplace(&mut buf, 2);
    }

    #[test]
    #[should_panic(expected = "does not match plan")]
    fn plan_rejects_wrong_length() {
        let mut plan = FftPlan::new(8);
        let mut buf = vec![Complex::ZERO; 7];
        plan.forward_inplace(&mut buf);
    }

    #[test]
    fn goertzel_columns_matches_per_column() {
        // 50 rows × 7 columns, two analysis bins; must be *bit-identical*
        // to gathering each column and running plain goertzel
        let n_rows = 50;
        let n_cols = 7;
        let data: Vec<Complex> = (0..n_rows * n_cols)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect();
        let f_norms = [0.0576, 0.2304];
        let batched = goertzel_columns(&data, n_cols, &f_norms, None);
        for k in 0..n_cols {
            let col: Vec<Complex> = (0..n_rows).map(|n| data[n * n_cols + k]).collect();
            for (j, &f) in f_norms.iter().enumerate() {
                assert_eq!(batched[j][k], goertzel(&col, f), "bin {j} col {k}");
            }
        }
    }

    #[test]
    fn goertzel_columns_subtracts_offsets_bit_identically() {
        let n_rows = 40;
        let n_cols = 5;
        let data: Vec<Complex> = (0..n_rows * n_cols)
            .map(|i| Complex::new((i as f64 * 0.07).cos(), (i as f64 * 0.11).sin()))
            .collect();
        // per-column means, like the harmonic extractor's mean subtraction
        let mut means = vec![Complex::ZERO; n_cols];
        for row in data.chunks_exact(n_cols) {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        means
            .iter_mut()
            .for_each(|m| *m = m.scale(1.0 / n_rows as f64));
        let f_norms = [0.031];
        let batched = goertzel_columns(&data, n_cols, &f_norms, Some(&means));
        for k in 0..n_cols {
            let col: Vec<Complex> = (0..n_rows)
                .map(|n| data[n * n_cols + k] - means[k])
                .collect();
            assert_eq!(batched[0][k], goertzel(&col, f_norms[0]), "col {k}");
        }
    }

    #[test]
    fn goertzel_columns_pairs_odd_line_counts_bit_identically() {
        // odd counts leave the last line paired with a scratch accumulator;
        // with and without offsets, every line must still equal its own
        // per-column Goertzel
        let n_rows = 33;
        let n_cols = 9;
        let data: Vec<Complex> = (0..n_rows * n_cols)
            .map(|i| Complex::new((i as f64 * 0.19).cos(), (i as f64 * 0.37).sin()))
            .collect();
        let offsets: Vec<Complex> = (0..n_cols)
            .map(|k| Complex::new(0.2 - 0.03 * k as f64, 0.01 * k as f64))
            .collect();
        for f_norms in [
            &[0.0576][..],
            &[0.0576, 0.1152, 0.2304],
            &[0.01, 0.02, 0.03, 0.04, 0.05],
        ] {
            for off in [None, Some(offsets.as_slice())] {
                let batched = goertzel_columns(&data, n_cols, f_norms, off);
                assert_eq!(batched.len(), f_norms.len());
                for k in 0..n_cols {
                    let o = off.map_or(Complex::ZERO, |o| o[k]);
                    let col: Vec<Complex> = (0..n_rows)
                        .map(|n| {
                            let x = data[n * n_cols + k];
                            if off.is_some() {
                                x - o
                            } else {
                                x
                            }
                        })
                        .collect();
                    for (j, &f) in f_norms.iter().enumerate() {
                        let want = goertzel(&col, f);
                        assert_eq!(
                            batched[j][k].re.to_bits(),
                            want.re.to_bits(),
                            "bin {j} col {k}"
                        );
                        assert_eq!(
                            batched[j][k].im.to_bits(),
                            want.im.to_bits(),
                            "bin {j} col {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn goertzel_columns_empty_rows() {
        let out = goertzel_columns(&[], 4, &[0.1, 0.2], None);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|b| b.iter().all(|z| *z == Complex::ZERO)));
    }
}
