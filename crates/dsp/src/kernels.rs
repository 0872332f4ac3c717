//! Runtime-dispatched SIMD kernels for the pipeline's inner loops.
//!
//! Every hot per-sample loop in the simulator — Box–Muller noise fill,
//! complex multiply-accumulate (Goertzel row passes, tag-response
//! synthesis, preamble repeat averaging), phase wrapping, window
//! application, ADC quantization — funnels through this module. Each
//! kernel is written once as an explicitly chunked, autovectorization-
//! friendly scalar body; `#[target_feature]` wrappers re-instantiate the
//! *same Rust code* with AVX2 / AVX-512F (x86-64) or NEON (aarch64)
//! enabled, so LLVM may only vectorize it in semantics-preserving ways:
//! no FMA contraction, no reassociation, identical rounding. The runtime
//! [`backend`] dispatch therefore never changes results — a simulation
//! reproduces bit-for-bit whichever path the CPU takes, which the
//! property tests in this module pin down.
//!
//! Setting the `WIFORCE_FORCE_SCALAR` environment variable (to anything
//! but `""`/`"0"`) before first use forces the scalar bodies, keeping the
//! fallback path exercised in CI and giving a ground truth to diff
//! against when debugging a vector unit.

use crate::Complex;
use std::sync::OnceLock;

/// Which instantiation of the kernel bodies the runtime dispatch picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar bodies (also the `WIFORCE_FORCE_SCALAR` override).
    Scalar,
    /// x86-64 AVX2 instantiation.
    Avx2,
    /// x86-64 AVX-512 (F+DQ+VL) instantiation.
    Avx512,
    /// aarch64 NEON instantiation.
    Neon,
}

impl Backend {
    /// Short lowercase name (`"scalar"`, `"avx2"`, `"avx512"`, `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }
}

/// Names of every dispatched kernel, for health-report introspection.
pub const KERNEL_NAMES: &[&str] = &[
    "philox_normals",
    "philox_normals_rows",
    "box_muller_normals",
    "add_row",
    "cmac2_sub_scaled",
    "synth_truth",
    "accumulate_state",
    "blend_states",
    "accumulate_noisy",
    "accumulate_noisy_rows",
    "eq_reorder_rows",
    "fft_pow2_rows",
    "wrap_phases",
    "apply_window",
    "quantize_complex",
    "horner_lanes",
    "stencil_rows",
    "phase_cost_rows",
    "first_min",
    "tag_states",
    "spectral_mean",
    "spectral_line",
];

fn detect(force_scalar: bool) -> Backend {
    if force_scalar {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return Backend::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Backend::Neon;
        }
    }
    Backend::Scalar
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

/// The backend the dispatch table resolved to (decided once per process:
/// `WIFORCE_FORCE_SCALAR` override first, then CPUID/NEON detection,
/// scalar fallback).
pub fn backend() -> Backend {
    *BACKEND.get_or_init(|| {
        let force =
            std::env::var_os("WIFORCE_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        detect(force)
    })
}

/// `true` when the scalar override environment variable took effect.
pub fn forced_scalar() -> bool {
    backend() == Backend::Scalar && detect(false) != Backend::Scalar
}

/// The dispatched kernel set: `(kernel name, backend name)` per kernel.
/// All kernels share one backend decision; the pairs exist so health
/// reports can enumerate exactly what ran.
pub fn active_kernels() -> Vec<(&'static str, &'static str)> {
    let b = backend().name();
    KERNEL_NAMES.iter().map(|&k| (k, b)).collect()
}

/// Declares one dispatched kernel: a shared `#[inline(always)]` body,
/// per-ISA `#[target_feature]` instantiations of that same body, and the
/// public entry point that routes through [`backend`].
macro_rules! simd_kernel {
    (
        $(#[$doc:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:ident / $avx2:ident / $avx512:ident / $neon:ident
    ) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        fn $avx512($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        #[cfg(target_arch = "aarch64")]
        #[target_feature(enable = "neon")]
        fn $neon($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$doc])*
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            match backend() {
                // Safety: each arm was gated on runtime detection of the
                // exact feature its wrapper enables.
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => unsafe { $avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                Backend::Avx512 => unsafe { $avx512($($arg),*) },
                #[cfg(target_arch = "aarch64")]
                Backend::Neon => unsafe { $neon($($arg),*) },
                _ => $body($($arg),*),
            }
        }
    };
}

// ---------------------------------------------------------------------
// Counter-based (Philox) noise fill
// ---------------------------------------------------------------------

#[inline(always)]
fn philox_normals_body(key: [u32; 2], ctr_hi: [u32; 3], lane0: u32, out: &mut [f64]) {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    for (i, o) in out.iter_mut().enumerate() {
        let lane = lane0.wrapping_add(i as u32);
        let b = crate::rng::philox4x32([lane, ctr_hi[0], ctr_hi[1], ctr_hi[2]], key);
        let a = (u64::from(b[1]) << 32) | u64::from(b[0]);
        let c = (u64::from(b[3]) << 32) | u64::from(b[2]);
        // u1 ∈ (0, 1] (strictly positive without a redraw loop, so the
        // body stays branch-free and vectorizable); u2 ∈ [0, 1).
        let u1 = ((a >> 11) + 1) as f64 * SCALE;
        let u2 = (c >> 11) as f64 * SCALE;
        *o = crate::fastmath::box_muller(u1, u2);
    }
}

simd_kernel! {
    /// Fills `out` with standard normals drawn from the Philox 4x32-10
    /// counter stream at `(key, ctr_hi, lane0 + i)`: one counter block
    /// yields the two 53-bit uniforms of one Box–Muller sample, so
    /// `out[i]` is a pure function of its coordinates — independent of
    /// call order, chunking, and thread count. Bit-identical to the
    /// scalar [`crate::rng::philox_normal_at`] per element.
    pub fn philox_normals(key: [u32; 2], ctr_hi: [u32; 3], lane0: u32, out: &mut [f64])
        = philox_normals_body / philox_normals_avx2
        / philox_normals_avx512 / philox_normals_neon
}

#[inline(always)]
fn philox_normals_rows_body(
    key: [u32; 2],
    grp_dom: [u32; 2],
    snap0: u32,
    lanes: usize,
    out: &mut [f64],
) {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    if lanes == 0 {
        return;
    }
    for (r, row) in out.chunks_exact_mut(lanes).enumerate() {
        let snap = snap0.wrapping_add(r as u32);
        for (i, o) in row.iter_mut().enumerate() {
            let b = crate::rng::philox4x32([i as u32, snap, grp_dom[0], grp_dom[1]], key);
            let a = (u64::from(b[1]) << 32) | u64::from(b[0]);
            let c = (u64::from(b[3]) << 32) | u64::from(b[2]);
            let u1 = ((a >> 11) + 1) as f64 * SCALE;
            let u2 = (c >> 11) as f64 * SCALE;
            *o = crate::fastmath::box_muller(u1, u2);
        }
    }
}

simd_kernel! {
    /// Wide (snapshot-major) Philox noise fill: `out` is a plane of
    /// `out.len() / lanes` rows with `lanes` lanes each; row `r` holds
    /// the normals at counter coordinates
    /// `(key, [lane, snap0 + r, grp_dom[0], grp_dom[1]])` for lanes
    /// `0..lanes` — bit-identical per row to a [`philox_normals`] call
    /// with `ctr_hi = [snap0 + r, grp_dom[0], grp_dom[1]]` and
    /// `lane0 = 0`, but filled in one kernel invocation so the vector
    /// unit stays busy across whole snapshot blocks. A trailing partial
    /// row (`out.len() % lanes != 0`) is left untouched.
    pub fn philox_normals_rows(key: [u32; 2], grp_dom: [u32; 2], snap0: u32, lanes: usize, out: &mut [f64])
        = philox_normals_rows_body / philox_normals_rows_avx2
        / philox_normals_rows_avx512 / philox_normals_rows_neon
}

// ---------------------------------------------------------------------
// Box–Muller noise fill
// ---------------------------------------------------------------------

#[inline(always)]
fn box_muller_normals_body(u1s: &[f64], u2s: &[f64], out: &mut [f64]) {
    for ((o, &u1), &u2) in out.iter_mut().zip(u1s).zip(u2s) {
        *o = crate::fastmath::box_muller(u1, u2);
    }
}

simd_kernel! {
    /// Transforms Box–Muller uniform pairs into standard normals:
    /// `out[i] = √(−2 ln u1s[i]) · cos(2π u2s[i])`, bit-identical to the
    /// scalar [`crate::fastmath::box_muller`] per element. Every `u1s[i]`
    /// must be positive and normal (see
    /// [`crate::rng::draw_box_muller_uniforms`]). Slices must share one
    /// length (debug-asserted; the zip truncates in release).
    pub fn box_muller_normals(u1s: &[f64], u2s: &[f64], out: &mut [f64])
        = box_muller_normals_body / box_muller_normals_avx2
        / box_muller_normals_avx512 / box_muller_normals_neon
}

// ---------------------------------------------------------------------
// Complex multiply-accumulate family
// ---------------------------------------------------------------------

#[inline(always)]
fn add_row_body(acc: &mut [Complex], x: &[Complex]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

simd_kernel! {
    /// `acc[i] += x[i]` — one snapshot's contribution to the
    /// per-subcarrier column sums behind the harmonic extractor's means.
    pub fn add_row(acc: &mut [Complex], x: &[Complex])
        = add_row_body / add_row_avx2 / add_row_avx512 / add_row_neon
}

#[inline(always)]
fn cmac2_sub_scaled_body(
    acc_a: &mut [Complex],
    acc_b: &mut [Complex],
    x: &[Complex],
    off: &[Complex],
    s_a: Complex,
    s_b: Complex,
) {
    for (((a, b), &v), &o) in acc_a.iter_mut().zip(acc_b.iter_mut()).zip(x).zip(off) {
        let d = v - o;
        *a += d * s_a;
        *b += d * s_b;
    }
}

simd_kernel! {
    /// Two mean-removed Goertzel row updates from one read of the row:
    /// `d = x[i] − off[i]`, then `acc_a[i] += d · s_a` and
    /// `acc_b[i] += d · s_b`. Each accumulator sees exactly the
    /// single-line update `acc += (x − off) · s`; an all-`+0` `off`
    /// gives the offset-free update, since `x − (+0) = x` for every `x`.
    pub fn cmac2_sub_scaled(acc_a: &mut [Complex], acc_b: &mut [Complex], x: &[Complex], off: &[Complex], s_a: Complex, s_b: Complex)
        = cmac2_sub_scaled_body / cmac2_sub_scaled_avx2
        / cmac2_sub_scaled_avx512 / cmac2_sub_scaled_neon
}

#[inline(always)]
fn synth_truth_body(
    out: &mut [Complex],
    statics: &[Complex],
    gains: &[Complex],
    table: &[[Complex; 4]],
    state: usize,
) {
    for (((h, &s), &g), row) in out.iter_mut().zip(statics).zip(gains).zip(table) {
        *h = s + g * row[state];
    }
}

simd_kernel! {
    /// Per-subcarrier channel synthesis for one pure tag state:
    /// `out[k] = statics[k] + gains[k] · table[k][state]`.
    pub fn synth_truth(out: &mut [Complex], statics: &[Complex], gains: &[Complex], table: &[[Complex; 4]], state: usize)
        = synth_truth_body / synth_truth_avx2 / synth_truth_avx512 / synth_truth_neon
}

#[inline(always)]
fn accumulate_state_body(
    acc: &mut [Complex],
    gains: &[Complex],
    table: &[[Complex; 4]],
    state: usize,
) {
    for ((h, &g), row) in acc.iter_mut().zip(gains).zip(table) {
        *h += g * row[state];
    }
}

simd_kernel! {
    /// Adds one tag stream's pure-state backscatter:
    /// `acc[k] += gains[k] · table[k][state]`.
    pub fn accumulate_state(acc: &mut [Complex], gains: &[Complex], table: &[[Complex; 4]], state: usize)
        = accumulate_state_body / accumulate_state_avx2
        / accumulate_state_avx512 / accumulate_state_neon
}

#[inline(always)]
fn blend_states_body(acc: &mut [Complex], gains: &[Complex], table: &[[Complex; 4]], w: &[f64; 4]) {
    for ((h, &g), row) in acc.iter_mut().zip(gains).zip(table) {
        let avg = row[0].scale(w[0]) + row[1].scale(w[1]) + row[2].scale(w[2]) + row[3].scale(w[3]);
        *h += g * avg;
    }
}

simd_kernel! {
    /// Adds one tag stream's backscatter with the four switch states
    /// blended by integration-window weights `w` (summed in state order,
    /// matching the reference evaluation bit-for-bit).
    pub fn blend_states(acc: &mut [Complex], gains: &[Complex], table: &[[Complex; 4]], w: &[f64; 4])
        = blend_states_body / blend_states_avx2 / blend_states_avx512 / blend_states_neon
}

#[inline(always)]
fn accumulate_noisy_body(acc: &mut [Complex], signal: &[Complex], noise_pairs: &[f64], amp: f64) {
    for ((a, &x), g) in acc.iter_mut().zip(signal).zip(noise_pairs.chunks_exact(2)) {
        *a += x + Complex::new(amp * g[0], amp * g[1]);
    }
}

simd_kernel! {
    /// One noisy preamble repeat:
    /// `acc[i] += signal[i] + amp·(noise_pairs[2i] + j·noise_pairs[2i+1])`.
    /// `noise_pairs` holds `2·acc.len()` interleaved standard normals.
    pub fn accumulate_noisy(acc: &mut [Complex], signal: &[Complex], noise_pairs: &[f64], amp: f64)
        = accumulate_noisy_body / accumulate_noisy_avx2
        / accumulate_noisy_avx512 / accumulate_noisy_neon
}

#[inline(always)]
fn accumulate_noisy_rows_body(
    acc: &mut [Complex],
    payloads: &[Complex],
    states: &[u8],
    noise: &[f64],
    amp: f64,
) {
    if states.is_empty() {
        return;
    }
    let n = acc.len() / states.len();
    for ((row, &st), pairs) in acc
        .chunks_exact_mut(n)
        .zip(states)
        .zip(noise.chunks_exact(2 * n))
    {
        let signal = &payloads[usize::from(st) * n..usize::from(st) * n + n];
        for ((a, &x), g) in row.iter_mut().zip(signal).zip(pairs.chunks_exact(2)) {
            *a += x + Complex::new(amp * g[0], amp * g[1]);
        }
    }
}

simd_kernel! {
    /// Wide (snapshot-major) noisy accumulate: `acc` is a plane of
    /// `states.len()` rows of `n = acc.len() / states.len()` bins each,
    /// `payloads` holds the four state payloads back-to-back
    /// (state-major, `4·n` entries), and `noise` carries `2·n`
    /// interleaved standard normals per row. Row `r` receives
    /// `acc[r][i] += payloads[states[r]][i] + amp·(g0 + j·g1)` — the
    /// per-row arithmetic is the exact [`accumulate_noisy`] expression,
    /// so a plane call is bit-identical to row-at-a-time calls.
    pub fn accumulate_noisy_rows(acc: &mut [Complex], payloads: &[Complex], states: &[u8], noise: &[f64], amp: f64)
        = accumulate_noisy_rows_body / accumulate_noisy_rows_avx2
        / accumulate_noisy_rows_avx512 / accumulate_noisy_rows_neon
}

#[inline(always)]
fn eq_reorder_rows_body(out: &mut [Complex], avg: &[Complex], eq: &[Complex]) {
    let n = eq.len();
    if n == 0 {
        return;
    }
    let half = n / 2;
    for (orow, arow) in out.chunks_exact_mut(n).zip(avg.chunks_exact(n)) {
        for (i, slot) in orow.iter_mut().enumerate() {
            let bin = (i + n - half) % n;
            *slot = arow[bin] * eq[bin];
        }
    }
}

simd_kernel! {
    /// Wide equalize + fftshift reorder: for each row pair of the
    /// `out`/`avg` planes (row length `n = eq.len()`),
    /// `out[i] = avg[bin] · eq[bin]` with `bin = (i + n − n/2) mod n` —
    /// the per-element math of the scalar OFDM estimator's final loop,
    /// applied to whole snapshot blocks per invocation.
    pub fn eq_reorder_rows(out: &mut [Complex], avg: &[Complex], eq: &[Complex])
        = eq_reorder_rows_body / eq_reorder_rows_avx2
        / eq_reorder_rows_avx512 / eq_reorder_rows_neon
}

#[inline(always)]
fn fft_pow2_rows_body(
    plane: &mut [Complex],
    n: usize,
    bitrev: &[u32],
    twiddles: &[Complex],
    scratch: &mut Vec<f64>,
) {
    if n <= 1 {
        return;
    }
    let rows = plane.len() / n;
    debug_assert_eq!(plane.len(), rows * n);
    if rows == 0 {
        return;
    }
    if scratch.len() != 2 * n * rows {
        // every slot is overwritten by the transpose below, so the fill
        // value only matters for capacity bookkeeping
        scratch.clear();
        scratch.resize(2 * n * rows, 0.0);
    }
    let (re, im) = scratch.split_at_mut(n * rows);
    // Transpose to position-major split re/im lanes (lane r of position k
    // is row r's bin k), tiled so reads and writes both stay within a few
    // cache lines per tile.
    const TILE: usize = 8;
    for k0 in (0..n).step_by(TILE) {
        let k1 = (k0 + TILE).min(n);
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for k in k0..k1 {
                let re_lane = &mut re[k * rows + r0..k * rows + r1];
                let im_lane = &mut im[k * rows + r0..k * rows + r1];
                for (r, (o_re, o_im)) in re_lane.iter_mut().zip(im_lane).enumerate() {
                    let z = plane[(r0 + r) * n + k];
                    *o_re = z.re;
                    *o_im = z.im;
                }
            }
        }
    }
    // Bit-reversal as whole-lane block swaps — a pure index permutation
    // moves values untouched, so this is exactly the scalar swap pass.
    for (i, &j) in bitrev.iter().enumerate() {
        let j = j as usize;
        if j > i {
            let (a, b) = re.split_at_mut(j * rows);
            a[i * rows..i * rows + rows].swap_with_slice(&mut b[..rows]);
            let (a, b) = im.split_at_mut(j * rows);
            a[i * rows..i * rows + rows].swap_with_slice(&mut b[..rows]);
        }
    }
    // Butterfly stages in the exact order (and with the exact twiddles) of
    // the scalar planned transform; each lane carries one row, and lanes
    // never mix, so per-row results match the scalar path bit-for-bit.
    let mut len = 2;
    let mut stage_off = 0;
    while len <= n {
        let half = len / 2;
        let tw = &twiddles[stage_off..stage_off + half];
        let mut start = 0;
        while start < n {
            for (i, &w) in tw.iter().enumerate() {
                let lo = (start + i) * rows;
                let hi = lo + half * rows;
                let (re_lo_part, re_hi_part) = re.split_at_mut(hi);
                let (im_lo_part, im_hi_part) = im.split_at_mut(hi);
                let lo_re = &mut re_lo_part[lo..lo + rows];
                let hi_re = &mut re_hi_part[..rows];
                let lo_im = &mut im_lo_part[lo..lo + rows];
                let hi_im = &mut im_hi_part[..rows];
                for r in 0..rows {
                    let br = hi_re[r] * w.re - hi_im[r] * w.im;
                    let bi = hi_re[r] * w.im + hi_im[r] * w.re;
                    let ar = lo_re[r];
                    let ai = lo_im[r];
                    lo_re[r] = ar + br;
                    lo_im[r] = ai + bi;
                    hi_re[r] = ar - br;
                    hi_im[r] = ai - bi;
                }
            }
            start += len;
        }
        stage_off += half;
        len <<= 1;
    }
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for k0 in (0..n).step_by(TILE) {
            let k1 = (k0 + TILE).min(n);
            for r in r0..r1 {
                let row = &mut plane[r * n..r * n + n];
                for (k, z) in row.iter_mut().enumerate().take(k1).skip(k0) {
                    z.re = re[k * rows + r];
                    z.im = im[k * rows + r];
                }
            }
        }
    }
}

simd_kernel! {
    /// Row-vectorized radix-2 FFT: transforms every length-`n` row of
    /// `plane` (`plane.len() / n` rows) in one invocation. The rows are
    /// transposed into position-major split re/im lanes so every
    /// butterfly touches `rows` contiguous doubles — the vector unit
    /// spans *rows*, not positions — while each lane executes the exact
    /// add/mul sequence of the scalar planned transform
    /// (`FftPlan::forward_inplace`) with the same precomputed `bitrev`
    /// and `twiddles` tables. Per-row results are therefore bit-identical
    /// to row-at-a-time scalar transforms (pinned by fft tests).
    /// `scratch` is caller-owned workspace, resized to `2·n·rows`.
    pub fn fft_pow2_rows(plane: &mut [Complex], n: usize, bitrev: &[u32], twiddles: &[Complex], scratch: &mut Vec<f64>)
        = fft_pow2_rows_body / fft_pow2_rows_avx2
        / fft_pow2_rows_avx512 / fft_pow2_rows_neon
}

// ---------------------------------------------------------------------
// Phase wrap, window application, quantization
// ---------------------------------------------------------------------

#[inline(always)]
fn wrap_phases_body(vals: &mut [f64]) {
    for v in vals.iter_mut() {
        *v = crate::phase::wrap_to_pi(*v);
    }
}

simd_kernel! {
    /// Wraps every element to `(−π, π]` in place (elementwise
    /// [`crate::phase::wrap_to_pi`]).
    pub fn wrap_phases(vals: &mut [f64])
        = wrap_phases_body / wrap_phases_avx2 / wrap_phases_avx512 / wrap_phases_neon
}

#[inline(always)]
fn apply_window_body(frame: &mut [Complex], window: &[f64]) {
    for (z, &w) in frame.iter_mut().zip(window) {
        *z = z.scale(w);
    }
}

simd_kernel! {
    /// Multiplies a complex frame by a real window in place.
    pub fn apply_window(frame: &mut [Complex], window: &[f64])
        = apply_window_body / apply_window_avx2 / apply_window_avx512 / apply_window_neon
}

#[inline(always)]
fn quantize_complex_body(row: &mut [Complex], full_scale: f64, step: f64) {
    for z in row.iter_mut() {
        let re = (z.re.clamp(-full_scale, full_scale) / step).round() * step;
        let im = (z.im.clamp(-full_scale, full_scale) / step).round() * step;
        *z = Complex::new(re, im);
    }
}

simd_kernel! {
    /// Mid-tread uniform quantization of both components to multiples of
    /// `step`, clamped to `±full_scale` — the bulk form of an ADC
    /// transfer curve. Callers pass the same `step = 2·full_scale/levels`
    /// as their scalar reference so results agree bit-for-bit.
    pub fn quantize_complex(row: &mut [Complex], full_scale: f64, step: f64)
        = quantize_complex_body / quantize_complex_avx2
        / quantize_complex_avx512 / quantize_complex_neon
}

// ---------------------------------------------------------------------
// Model-inversion grid: polynomial samples, stencil rows, phase cost
// ---------------------------------------------------------------------

#[inline(always)]
fn horner_lanes_body(out: &mut [f64], coeffs: &[f64], xs: &[f64]) {
    out.fill(0.0);
    for &c in coeffs.iter().rev() {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = *o * x + c;
        }
    }
}

simd_kernel! {
    /// Evaluates one polynomial (ascending-power `coeffs`) at every
    /// `xs[i]` into `out[i]`, vectorized across the points. Each lane runs
    /// [`crate::polyfit::Polynomial::eval`]'s Horner steps from `0.0`, so
    /// `out[i]` is bit-identical to `eval(xs[i])`.
    pub fn horner_lanes(out: &mut [f64], coeffs: &[f64], xs: &[f64])
        = horner_lanes_body / horner_lanes_avx2 / horner_lanes_avx512 / horner_lanes_neon
}

#[inline(always)]
fn stencil_rows_body(out: &mut [f64], samples: &[f64], weights: &[f64], n_taps: usize) {
    const LANES: usize = 8;
    if n_taps == 0 {
        return;
    }
    let rows = samples.len() / n_taps;
    let cols = weights.len() / n_taps;
    if cols == 0 {
        return;
    }
    let body = cols - cols % LANES;
    for (i, row) in out.chunks_exact_mut(cols).take(rows).enumerate() {
        // eight columns at a time, their sums held across the taps
        for (c, o) in row[..body].chunks_exact_mut(LANES).enumerate() {
            let mut acc = [0.0f64; LANES];
            for k in 0..n_taps {
                let y = samples[k * rows + i];
                let w = &weights[k * cols + c * LANES..][..LANES];
                for (a, &wk) in acc.iter_mut().zip(w) {
                    *a += wk * y;
                }
            }
            o.copy_from_slice(&acc);
        }
        for (j, o) in row.iter_mut().enumerate().skip(body) {
            let mut acc = 0.0;
            for k in 0..n_taps {
                acc += weights[k * cols + j] * samples[k * rows + i];
            }
            *o = acc;
        }
    }
}

simd_kernel! {
    /// Applies dense interpolation weights to rows of samples:
    /// `out[i·cols + j] = Σₖ weights[k·cols + j] · samples[k·rows + i]`,
    /// summed from `0.0` in ascending `k`, with `rows = samples.len() /
    /// n_taps` and `cols = weights.len() / n_taps`. Vectorized across the
    /// `cols` columns of a row. With finite samples, a zero weight adds
    /// `±0` to a sum that started at `+0` and so can never be `−0`, which
    /// leaves it unchanged: a stencil expanded to dense weights gives
    /// [`crate::interp::CatmullStencil::eval`]'s bits.
    pub fn stencil_rows(out: &mut [f64], samples: &[f64], weights: &[f64], n_taps: usize)
        = stencil_rows_body / stencil_rows_avx2 / stencil_rows_avx512 / stencil_rows_neon
}

#[inline(always)]
fn phase_cost_rows_body(cost: &mut [f64], p1: &[f64], p2: &[f64], phi: [f64; 2], row_len: usize) {
    use crate::phase::wrap_to_pi;
    use crate::{PI, TAU};
    if row_len == 0 {
        return;
    }
    for ((c_row, a_row), b_row) in cost
        .chunks_exact_mut(row_len)
        .zip(p1.chunks_exact(row_len))
        .zip(p2.chunks_exact(row_len))
    {
        // `wrap_to_pi`'s in-range path as a lane select; a lane outside
        // `[0, 2π)` (or NaN) sends the whole row to the scalar form
        let mut outside = false;
        for ((c, &a), &b) in c_row.iter_mut().zip(a_row).zip(b_row) {
            let s1 = (a - phi[0]) + PI;
            let s2 = (b - phi[1]) + PI;
            outside |= !((0.0..TAU).contains(&s1) & (0.0..TAU).contains(&s2));
            let t1 = if s1 == 0.0 { TAU } else { s1 };
            let t2 = if s2 == 0.0 { TAU } else { s2 };
            let (e1, e2) = (t1 - PI, t2 - PI);
            *c = e1 * e1 + e2 * e2;
        }
        if outside {
            for ((c, &a), &b) in c_row.iter_mut().zip(a_row).zip(b_row) {
                let e1 = wrap_to_pi(a - phi[0]);
                let e2 = wrap_to_pi(b - phi[1]);
                *c = e1 * e1 + e2 * e2;
            }
        }
    }
}

simd_kernel! {
    /// Squared wrapped phase residual per grid cell:
    /// `cost[i] = wrap_to_pi(p1[i] − phi[0])² + wrap_to_pi(p2[i] − phi[1])²`,
    /// processed in rows of `row_len` cells (a trailing partial row is
    /// left untouched). Bit-identical to the scalar expression per cell.
    pub fn phase_cost_rows(cost: &mut [f64], p1: &[f64], p2: &[f64], phi: [f64; 2], row_len: usize)
        = phase_cost_rows_body / phase_cost_rows_avx2
        / phase_cost_rows_avx512 / phase_cost_rows_neon
}

#[inline(always)]
fn first_min_body(cost: &[f64], below: f64) -> Option<usize> {
    // the minimum by independent per-lane selects (no serial chain), then
    // its first position: the cell a strict-`<` scan would stop on
    const LANES: usize = 8;
    let mut lanes = [f64::INFINITY; LANES];
    let mut chunks = cost.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (m, &c) in lanes.iter_mut().zip(chunk) {
            if c < *m {
                *m = c;
            }
        }
    }
    let mut min = below;
    for &c in lanes.iter().chain(chunks.remainder()) {
        if c < min {
            min = c;
        }
    }
    if min < below {
        // whole-chunk equality tests, then the position inside the hit chunk
        let mut offset = 0;
        for chunk in cost.chunks(LANES) {
            if chunk.iter().fold(false, |hit, &c| hit | (c == min)) {
                return chunk.iter().position(|&c| c == min).map(|p| offset + p);
            }
            offset += chunk.len();
        }
    }
    None
}

simd_kernel! {
    /// The cell an in-order scan `if cost[i] < best { best = cost[i] }`
    /// started at `best = below` would end on, or `None` if no cell is
    /// strictly below `below`. NaN never wins and ties keep the earlier
    /// cell, exactly as in that scan: the result is the first occurrence
    /// of the smallest value.
    pub fn first_min(cost: &[f64], below: f64) -> Option<usize>
        = first_min_body / first_min_avx2 / first_min_avx512 / first_min_neon
}

// ---------------------------------------------------------------------
// Tag-state classification
// ---------------------------------------------------------------------

/// Largest `(t − offset)/period` for which [`duty_level_estimate`] trusts
/// its reciprocal-multiply phase (error ≤ ≈2.2e-10 of a period).
const FAST_PHASE_MAX: f64 = 1e6;

/// Adding and subtracting 2⁵² rounds a non-negative double below 2⁵¹ to
/// the nearest integer.
const ROUND_MAGIC: f64 = 4_503_599_627_370_496.0;

/// How close (fraction of a period) an estimated phase may come to a clock
/// edge before [`duty_level_estimate`] leaves the decision to the exact
/// `rem_euclid` form: 1e-9, four times the estimate's worst-case error.
const EDGE_MARGIN: f64 = 1e-9;

/// One duty-cycled square wave as the tag-state classifier reads it: high
/// while `((t − offset_s) mod period) / period < duty`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyWave {
    /// Time of a rising edge, s.
    pub offset_s: f64,
    /// `1 / period`, 1/s.
    pub inv_period: f64,
    /// High fraction of each period.
    pub duty: f64,
}

/// The level of `wave` at `t` from a reciprocal-multiply phase estimate,
/// and whether that estimate decides it exactly.
///
/// The exact level is `fl(r/period) < duty` with `r = x mod period`
/// (`x = t − offset`): `fmod` is exact, so `r/period` is the true phase
/// `φ` rounded once. The estimate is the fractional part of
/// `u = x·(1/period)`, off by at most `2·2⁻⁵³·u` — ≈2.2e-10 of a period
/// below 10⁶ periods — plus one rounding. It is trusted only when it sits
/// more than 1e-9 of a period from every edge (`0`, `duty`, `1`); then `φ`
/// and its rounding lie on the same side of `duty`, so the decision is the
/// exact one. Instants near an edge, negative `x`, large `x` and
/// non-finite input are not trusted. Branch-free (`&`, not `&&`, and
/// packed-double arithmetic only), so a walk over many instants
/// vectorizes.
#[inline(always)]
pub fn duty_level_estimate(t: f64, wave: DutyWave) -> (bool, bool) {
    let x = t - wave.offset_s;
    let u = x * wave.inv_period;
    // fractional part via round-to-nearest by 2⁵² (exact for
    // 0 ≤ u < 2⁵¹); a negative remainder wraps up by one
    let rem = u - ((u + ROUND_MAGIC) - ROUND_MAGIC);
    let frac = if rem < 0.0 { rem + 1.0 } else { rem };
    let trusted = (wave.inv_period > 0.0)
        & (0.0..FAST_PHASE_MAX).contains(&u)
        & ((frac - 0.5).abs() < 0.5 - EDGE_MARGIN)
        & ((frac - wave.duty).abs() > EDGE_MARGIN);
    (frac < wave.duty, trusted)
}

#[inline(always)]
fn tag_states_body(
    out: &mut [u8],
    t0: f64,
    dt: f64,
    s0: usize,
    waves: [DutyWave; 2],
    invert2: bool,
) -> bool {
    // eight instants at a time with the index as `s0 + lane`: both are
    // exact integers in f64, so below 2⁵³ their sum is `(s0 + i) as f64`
    // exactly, and no lane pays an integer-to-float conversion
    const LANES: usize = 8;
    const LANE: [f64; LANES] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let classify = |t: f64| {
        let (on1, ok1) = duty_level_estimate(t, waves[0]);
        let (high2, ok2) = duty_level_estimate(t, waves[1]);
        (on1 as u8 | ((high2 != invert2) as u8) << 1, ok1 & ok2)
    };
    let exact_lanes = s0.checked_add(out.len()).is_some_and(|end| end <= 1 << 53);
    let split = if exact_lanes {
        out.len() - out.len() % LANES
    } else {
        0
    };
    let (body, tail) = out.split_at_mut(split);
    // per-lane verdicts, reduced once at the end
    let mut lanes_ok = [true; LANES];
    for (c, chunk) in body.chunks_exact_mut(LANES).enumerate() {
        let base = (s0 + c * LANES) as f64;
        for ((st, &lane), lane_ok) in chunk.iter_mut().zip(&LANE).zip(&mut lanes_ok) {
            let (s, ok) = classify(t0 + (base + lane) * dt);
            *st = s;
            *lane_ok &= ok;
        }
    }
    let mut trusted = lanes_ok.iter().all(|&ok| ok);
    for (i, st) in tail.iter_mut().enumerate() {
        let (s, ok) = classify(t0 + (s0 + split + i) as f64 * dt);
        *st = s;
        trusted &= ok;
    }
    trusted
}

simd_kernel! {
    /// Classifies the instants `t0 + s·dt` (the instant computed exactly
    /// as `t0 + s as f64 * dt`), `s` in `s0..s0 + out.len()`, into the
    /// two-switch drive state `on1 | on2 << 1`, where `on1` is `waves[0]`
    /// high and `on2` is `waves[1]` high, inverted when `invert2`.
    /// Returns whether every instant was decided exactly by
    /// [`duty_level_estimate`]; on `false` some entries may differ from
    /// the exact `rem_euclid` decision, and the caller re-walks the range
    /// with it.
    pub fn tag_states(out: &mut [u8], t0: f64, dt: f64, s0: usize, waves: [DutyWave; 2], invert2: bool) -> bool
        = tag_states_body / tag_states_avx2 / tag_states_avx512 / tag_states_neon
}

// ---------------------------------------------------------------------
// Spectral line assembly
// ---------------------------------------------------------------------

/// Splits four state-major spectra of `k_sub` entries each.
#[inline(always)]
fn state_rows(rows: &[Complex], k_sub: usize) -> [&[Complex]; 4] {
    let (r0, rest) = rows.split_at(k_sub);
    let (r1, rest) = rest.split_at(k_sub);
    let (r2, rest) = rest.split_at(k_sub);
    [r0, r1, r2, &rest[..k_sub]]
}

#[inline(always)]
fn spectral_mean_body(out: &mut [Complex], statics: &[Complex], rows: &[Complex], cbar: [f64; 4]) {
    let [r0, r1, r2, r3] = state_rows(rows, out.len());
    for (((((o, &s), &b0), &b1), &b2), &b3) in
        out.iter_mut().zip(statics).zip(r0).zip(r1).zip(r2).zip(r3)
    {
        let mean_p =
            s + b0.scale(cbar[0]) + b1.scale(cbar[1]) + b2.scale(cbar[2]) + b3.scale(cbar[3]);
        *o = Complex::I * mean_p;
    }
}

simd_kernel! {
    /// The jitter coupling of one spectral phase group, per subcarrier:
    /// `out[k] = j · (statics[k] + Σ_σ rows[σ·K + k] · cbar[σ])`, summed
    /// left to right in state order, with `K = out.len()` and `rows`
    /// holding the four per-state spectra state-major (at least `4·K`
    /// entries). With `cbar` the group's state occupancy, the sum is the
    /// group's mean received spectrum.
    pub fn spectral_mean(out: &mut [Complex], statics: &[Complex], rows: &[Complex], cbar: [f64; 4])
        = spectral_mean_body / spectral_mean_avx2 / spectral_mean_avx512 / spectral_mean_neon
}

/// The per-line scalars of [`spectral_line`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineTerms {
    /// Per-state deterministic weights `W_σ`.
    pub w: [Complex; 4],
    /// Per-component standard deviation of the white line noise.
    pub sigma: f64,
    /// The line's common phase-jitter draw.
    pub jc: Complex,
    /// The line's reference phasor.
    pub reference: Complex,
}

#[inline(always)]
fn spectral_line_body(
    out: &mut [Complex],
    rows: &[Complex],
    i_mean: &[Complex],
    normals: &[f64],
    t: LineTerms,
) {
    let [r0, r1, r2, r3] = state_rows(rows, out.len());
    let w = t.w;
    for ((((((o, &b0), &b1), &b2), &b3), &im), g) in out
        .iter_mut()
        .zip(r0)
        .zip(r1)
        .zip(r2)
        .zip(r3)
        .zip(i_mean)
        .zip(normals.chunks_exact(2))
    {
        let det = b0 * w[0] + b1 * w[1] + b2 * w[2] + b3 * w[3];
        let noise = Complex::new(g[0], g[1]).scale(t.sigma);
        *o = t.reference * (det + noise + im * t.jc);
    }
}

simd_kernel! {
    /// One spectral line per subcarrier: with `K = out.len()`,
    /// `out[k] = reference · (Σ_σ rows[σ·K + k]·w[σ] + sigma·(g₀ + j·g₁) + i_mean[k]·jc)`,
    /// the state sum left to right and `(g₀, g₁) = (normals[2k],
    /// normals[2k+1])` — the deterministic, white-noise and common-jitter
    /// terms of a mean-subtracted DFT line. `rows` holds the four
    /// per-state spectra state-major (at least `4·K` entries) and
    /// `i_mean` comes from [`spectral_mean`].
    pub fn spectral_line(out: &mut [Complex], rows: &[Complex], i_mean: &[Complex], normals: &[f64], t: LineTerms)
        = spectral_line_body / spectral_line_avx2 / spectral_line_avx512 / spectral_line_neon
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn complexes(rng: &mut StdRng, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|_| Complex::new(rng.gen::<f64>() * 4.0 - 2.0, rng.gen::<f64>() * 4.0 - 2.0))
            .collect()
    }

    fn table(rng: &mut StdRng, n: usize) -> Vec<[Complex; 4]> {
        (0..n)
            .map(|_| {
                [
                    Complex::new(rng.gen(), rng.gen()),
                    Complex::new(rng.gen(), rng.gen()),
                    Complex::new(rng.gen(), rng.gen()),
                    Complex::new(rng.gen(), rng.gen()),
                ]
            })
            .collect()
    }

    fn assert_bits_eq(a: &[Complex], b: &[Complex]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re mismatch at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im mismatch at {i}");
        }
    }

    #[test]
    fn backend_is_detected_and_named() {
        let b = backend();
        assert!(!b.name().is_empty());
        let kernels = active_kernels();
        assert_eq!(kernels.len(), KERNEL_NAMES.len());
        assert!(kernels.iter().all(|&(_, back)| back == b.name()));
    }

    #[test]
    fn forced_scalar_detection_prefers_override() {
        assert_eq!(detect(true), Backend::Scalar);
        // with no override, detection picks whatever the CPU supports —
        // on x86-64/aarch64 CI machines that is at least AVX2/NEON, but
        // scalar is a valid answer on anything else
        let _ = detect(false);
    }

    // Every kernel below: dispatched entry point vs scalar body must be
    // bit-identical, at lengths straddling the chunk width.

    #[test]
    fn box_muller_kernel_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [0, 1, 7, 8, 9, 64, 640, 1013] {
            let u1s: Vec<f64> = (0..n)
                .map(|_| rng.gen::<f64>().max(f64::MIN_POSITIVE))
                .collect();
            let u2s: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
            let mut fast = vec![0.0; n];
            box_muller_normals(&u1s, &u2s, &mut fast);
            for i in 0..n {
                let want = crate::fastmath::box_muller(u1s[i], u2s[i]);
                assert_eq!(fast[i].to_bits(), want.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn philox_kernel_matches_scalar_bitwise() {
        let key = [0xDEAD_BEEF, 0x0123_4567];
        let ctr_hi = [17, 3, 1];
        for n in [0, 1, 7, 8, 9, 64, 128, 1013] {
            let mut fast = vec![0.0; n];
            philox_normals(key, ctr_hi, 5, &mut fast);
            let mut want = vec![0.0; n];
            philox_normals_body(key, ctr_hi, 5, &mut want);
            for i in 0..n {
                assert_eq!(fast[i].to_bits(), want[i].to_bits(), "n={n} i={i}");
                let scalar = crate::rng::philox_normal_at(key, ctr_hi, 5u32.wrapping_add(i as u32));
                assert_eq!(fast[i].to_bits(), scalar.to_bits(), "n={n} i={i} vs scalar");
            }
        }
    }

    #[test]
    fn philox_kernel_is_offset_invariant() {
        // Drawing lanes [0, 64) in one call or two must agree bitwise:
        // each element depends only on its own counter coordinates.
        let key = [1, 2];
        let ctr_hi = [9, 9, 0];
        let mut whole = vec![0.0; 64];
        philox_normals(key, ctr_hi, 0, &mut whole);
        let mut lo = vec![0.0; 24];
        let mut hi = vec![0.0; 40];
        philox_normals(key, ctr_hi, 0, &mut lo);
        philox_normals(key, ctr_hi, 24, &mut hi);
        for (i, w) in whole.iter().enumerate() {
            let part = if i < 24 { lo[i] } else { hi[i - 24] };
            assert_eq!(w.to_bits(), part.to_bits(), "lane {i}");
        }
    }

    /// Samples with the values where `x − (+0) = x` needs care: ±0, NaN
    /// and ±∞ beside ordinary finite values.
    fn edge_complexes(rng: &mut StdRng, n: usize) -> Vec<Complex> {
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut x = complexes(rng, n);
        for (i, z) in x.iter_mut().enumerate().step_by(3) {
            z.re = specials[i % specials.len()];
            z.im = specials[(i / 3) % specials.len()];
        }
        x
    }

    fn f64_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bits_or_nan(a: &[Complex], b: &[Complex]) {
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(same(x.re, y.re) && same(x.im, y.im), "{i}: {x:?} vs {y:?}");
        }
    }

    /// The paired Goertzel row update: dispatched entry vs scalar body,
    /// and each accumulator vs the single-line mean-removed update.
    #[test]
    fn cmac_kernels_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [1, 5, 8, 64, 127] {
            let x = complexes(&mut rng, n);
            let off = complexes(&mut rng, n);
            let (sa, sb) = (
                Complex::new(rng.gen(), rng.gen()),
                Complex::new(rng.gen(), rng.gen()),
            );
            let (base_a, base_b) = (complexes(&mut rng, n), complexes(&mut rng, n));

            let (mut a, mut b) = (base_a.clone(), base_b.clone());
            cmac2_sub_scaled(&mut a, &mut b, &x, &off, sa, sb);
            let (mut wa, mut wb) = (base_a.clone(), base_b.clone());
            cmac2_sub_scaled_body(&mut wa, &mut wb, &x, &off, sa, sb);
            assert_bits_eq(&a, &wa);
            assert_bits_eq(&b, &wb);
            // each accumulator sees the single-line mean-removed update
            let single = |base: &[Complex], s| -> Vec<Complex> {
                base.iter()
                    .zip(&x)
                    .zip(&off)
                    .map(|((&acc, &v), &o)| acc + (v - o) * s)
                    .collect()
            };
            assert_bits_eq(&a, &single(&base_a, sa));
            assert_bits_eq(&b, &single(&base_b, sb));
        }
    }

    #[test]
    fn paired_cmac_with_zero_offsets_is_the_offset_free_update() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [1, 7, 64, 99] {
            let x = edge_complexes(&mut rng, n);
            let zeros = vec![Complex::ZERO; n];
            let (sa, sb) = (Complex::new(0.3, -0.7), Complex::new(-1.1, 0.2));
            let (base_a, base_b) = (complexes(&mut rng, n), complexes(&mut rng, n));
            let (mut a, mut b) = (base_a.clone(), base_b.clone());
            cmac2_sub_scaled(&mut a, &mut b, &x, &zeros, sa, sb);
            let free = |base: &[Complex], s| -> Vec<Complex> {
                base.iter().zip(&x).map(|(&acc, &v)| acc + v * s).collect()
            };
            assert_bits_or_nan(&a, &free(&base_a, sa));
            assert_bits_or_nan(&b, &free(&base_b, sb));
        }
    }

    #[test]
    fn add_row_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1, 8, 64, 65] {
            let x = edge_complexes(&mut rng, n);
            let base = complexes(&mut rng, n);
            let mut got = base.clone();
            add_row(&mut got, &x);
            let want: Vec<Complex> = base.iter().zip(&x).map(|(&a, &v)| a + v).collect();
            assert_bits_or_nan(&got, &want);
        }
    }

    #[test]
    fn synthesis_kernels_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1, 8, 64, 65] {
            let statics = complexes(&mut rng, n);
            let gains = complexes(&mut rng, n);
            let tab = table(&mut rng, n);
            let w = [0.25, 0.125, 0.5, 0.125];
            for state in 0..4 {
                let mut got = vec![Complex::ZERO; n];
                synth_truth(&mut got, &statics, &gains, &tab, state);
                let mut want = vec![Complex::ZERO; n];
                synth_truth_body(&mut want, &statics, &gains, &tab, state);
                assert_bits_eq(&got, &want);

                let mut got = statics.clone();
                accumulate_state(&mut got, &gains, &tab, state);
                let mut want = statics.clone();
                accumulate_state_body(&mut want, &gains, &tab, state);
                assert_bits_eq(&got, &want);
            }
            let mut got = statics.clone();
            blend_states(&mut got, &gains, &tab, &w);
            let mut want = statics.clone();
            blend_states_body(&mut want, &gains, &tab, &w);
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn accumulate_noisy_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1, 8, 64, 100] {
            let signal = complexes(&mut rng, n);
            let pairs: Vec<f64> = (0..2 * n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let base = complexes(&mut rng, n);
            let mut got = base.clone();
            accumulate_noisy(&mut got, &signal, &pairs, 0.37);
            let mut want = base.clone();
            accumulate_noisy_body(&mut want, &signal, &pairs, 0.37);
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn philox_rows_kernel_matches_single_row_bitwise() {
        // A plane fill must agree per row with the row-at-a-time kernel
        // and the scalar per-element draw — same counter coordinates.
        let key = [0x5EED_CAFE, 0x89AB_CDEF];
        let grp_dom = [7, 0];
        for (rows, lanes) in [(0usize, 8usize), (1, 1), (3, 7), (4, 128), (9, 33)] {
            let mut plane = vec![0.0; rows * lanes];
            philox_normals_rows(key, grp_dom, 11, lanes, &mut plane);
            let mut want_plane = vec![0.0; rows * lanes];
            philox_normals_rows_body(key, grp_dom, 11, lanes, &mut want_plane);
            for r in 0..rows {
                let snap = 11u32.wrapping_add(r as u32);
                let ctr_hi = [snap, grp_dom[0], grp_dom[1]];
                let mut row = vec![0.0; lanes];
                philox_normals(key, ctr_hi, 0, &mut row);
                for i in 0..lanes {
                    let got = plane[r * lanes + i];
                    assert_eq!(got.to_bits(), want_plane[r * lanes + i].to_bits());
                    assert_eq!(got.to_bits(), row[i].to_bits(), "rows={rows} r={r} i={i}");
                    let scalar = crate::rng::philox_normal_at(key, ctr_hi, i as u32);
                    assert_eq!(got.to_bits(), scalar.to_bits(), "r={r} i={i} vs scalar");
                }
            }
        }
    }

    #[test]
    fn philox_rows_kernel_ignores_partial_tail() {
        let key = [1, 2];
        let mut plane = vec![f64::NAN; 2 * 8 + 3];
        philox_normals_rows(key, [0, 0], 0, 8, &mut plane);
        assert!(plane[..16].iter().all(|v| v.is_finite()));
        assert!(plane[16..].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn accumulate_noisy_rows_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for (rows, n) in [(1usize, 1usize), (3, 8), (5, 64), (4, 100)] {
            let payloads = complexes(&mut rng, 4 * n);
            let states: Vec<u8> = (0..rows).map(|_| rng.gen::<u8>() % 4).collect();
            let noise: Vec<f64> = (0..2 * n * rows).map(|_| rng.gen::<f64>() - 0.5).collect();
            let base = complexes(&mut rng, n * rows);
            let amp = 0.41;

            let mut got = base.clone();
            accumulate_noisy_rows(&mut got, &payloads, &states, &noise, amp);
            let mut body = base.clone();
            accumulate_noisy_rows_body(&mut body, &payloads, &states, &noise, amp);
            assert_bits_eq(&got, &body);

            // Reference: one accumulate_noisy call per row.
            let mut want = base.clone();
            for r in 0..rows {
                let st = usize::from(states[r]);
                accumulate_noisy_body(
                    &mut want[r * n..(r + 1) * n],
                    &payloads[st * n..st * n + n],
                    &noise[2 * n * r..2 * n * (r + 1)],
                    amp,
                );
            }
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn eq_reorder_rows_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        for (rows, n) in [(1usize, 2usize), (3, 8), (5, 64), (2, 100)] {
            let avg = complexes(&mut rng, rows * n);
            let eq = complexes(&mut rng, n);
            let mut got = vec![Complex::ZERO; rows * n];
            eq_reorder_rows(&mut got, &avg, &eq);
            let mut body = vec![Complex::ZERO; rows * n];
            eq_reorder_rows_body(&mut body, &avg, &eq);
            assert_bits_eq(&got, &body);

            let half = n / 2;
            let mut want = vec![Complex::ZERO; rows * n];
            for r in 0..rows {
                for i in 0..n {
                    let bin = (i + n - half) % n;
                    want[r * n + i] = avg[r * n + bin] * eq[bin];
                }
            }
            assert_bits_eq(&got, &want);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_isa_instantiations_match_scalar_bitwise() {
        let key = [3, 4];
        let (rows, lanes) = (5usize, 67usize);
        let mut scalar = vec![0.0; rows * lanes];
        philox_normals_rows_body(key, [2, 1], 6, lanes, &mut scalar);
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut v = vec![0.0; rows * lanes];
            // Safety: AVX2 support was just detected.
            unsafe { philox_normals_rows_avx2(key, [2, 1], 6, lanes, &mut v) };
            for (a, b) in v.iter().zip(&scalar) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            let mut v = vec![0.0; rows * lanes];
            // Safety: AVX-512 F+DQ+VL support was just detected.
            unsafe { philox_normals_rows_avx512(key, [2, 1], 6, lanes, &mut v) };
            for (a, b) in v.iter().zip(&scalar) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn wrap_window_quantize_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1, 8, 64, 99] {
            let phases: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 50.0 - 25.0).collect();
            let mut got = phases.clone();
            wrap_phases(&mut got);
            let mut want = phases.clone();
            wrap_phases_body(&mut want);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }

            let frame = complexes(&mut rng, n);
            let win: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
            let mut got = frame.clone();
            apply_window(&mut got, &win);
            let mut want = frame.clone();
            apply_window_body(&mut want, &win);
            assert_bits_eq(&got, &want);

            let row = complexes(&mut rng, n);
            let full_scale = 1.5;
            let step = 2.0 * full_scale / 1024.0;
            let mut got = row.clone();
            quantize_complex(&mut got, full_scale, step);
            let mut want = row.clone();
            quantize_complex_body(&mut want, full_scale, step);
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn horner_lanes_match_polynomial_eval_bitwise() {
        let mut rng = StdRng::seed_from_u64(14);
        for (n, degree) in [(1usize, 0usize), (7, 3), (21, 3), (33, 5)] {
            let coeffs: Vec<f64> = (0..=degree).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 16.0 - 8.0).collect();
            let mut got = vec![f64::NAN; n];
            horner_lanes(&mut got, &coeffs, &xs);
            let poly = crate::polyfit::Polynomial::new(coeffs.clone());
            for (g, &x) in got.iter().zip(&xs) {
                assert_eq!(g.to_bits(), poly.eval(x).to_bits(), "x={x}");
            }
        }
    }

    #[test]
    fn stencil_rows_match_sparse_stencils_bitwise() {
        use crate::interp::catmull_stencil;
        let mut rng = StdRng::seed_from_u64(15);
        let grid = [0.020, 0.030, 0.040, 0.050, 0.060];
        let nk = grid.len();
        let (rows, cols) = (21usize, 23usize);
        // query points beyond both ends, on knots and inside every interval
        let stencils: Vec<_> = (0..cols)
            .map(|j| catmull_stencil(&grid, 0.015 + 0.05 * j as f64 / (cols - 1) as f64).unwrap())
            .collect();
        let mut weights = vec![0.0; nk * cols];
        for (j, st) in stencils.iter().enumerate() {
            for k in 0..nk {
                weights[k * cols + j] = st.weight(k);
            }
        }
        // finite samples of every sign, including ±0
        let mut samples: Vec<f64> = (0..nk * rows)
            .map(|_| rng.gen::<f64>() * 6.0 - 3.0)
            .collect();
        samples[0] = -0.0;
        samples[rows + 1] = 0.0;
        let mut got = vec![f64::NAN; rows * cols];
        stencil_rows(&mut got, &samples, &weights, nk);
        let mut body = vec![f64::NAN; rows * cols];
        stencil_rows_body(&mut body, &samples, &weights, nk);
        for i in 0..rows {
            let ys: Vec<f64> = (0..nk).map(|k| samples[k * rows + i]).collect();
            for (j, st) in stencils.iter().enumerate() {
                let want = st.eval(&ys);
                assert_eq!(
                    got[i * cols + j].to_bits(),
                    want.to_bits(),
                    "row {i} col {j}"
                );
                assert_eq!(body[i * cols + j].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn phase_cost_rows_match_scalar_wrap_bitwise() {
        use crate::phase::wrap_to_pi;
        use crate::PI;
        let mut rng = StdRng::seed_from_u64(16);
        let row_len = 46;
        let rows = 9;
        // ordinary phases, then rows seeded with the wrap's edge cases so
        // the scalar fallback runs beside fast rows
        let mut p1: Vec<f64> = (0..rows * row_len)
            .map(|_| rng.gen::<f64>() * 4.0 - 2.0)
            .collect();
        let mut p2: Vec<f64> = (0..rows * row_len)
            .map(|_| rng.gen::<f64>() * 4.0 - 2.0)
            .collect();
        let edges = [
            PI,
            -PI,
            PI - 1e-3,
            -PI + 1e-3,
            3.5,
            -7.0,
            f64::NAN,
            f64::INFINITY,
            -0.0,
        ];
        for (r, &e) in edges.iter().enumerate().take(rows - 1) {
            p1[(r + 1) * row_len + r] = e;
            p2[(r + 1) * row_len + 2 * r] = -e;
        }
        for phi in [[0.3, -0.2], [PI - 1e-4, -PI + 1e-4], [-PI, PI]] {
            let mut got = vec![f64::NAN; rows * row_len + 3];
            phase_cost_rows(&mut got, &p1, &p2, phi, row_len);
            let mut body = vec![f64::NAN; rows * row_len + 3];
            phase_cost_rows_body(&mut body, &p1, &p2, phi, row_len);
            for i in 0..rows * row_len {
                let e1 = wrap_to_pi(p1[i] - phi[0]);
                let e2 = wrap_to_pi(p2[i] - phi[1]);
                let want = e1 * e1 + e2 * e2;
                let same = |x: f64| x.to_bits() == want.to_bits() || (x.is_nan() && want.is_nan());
                assert!(
                    same(got[i]) && same(body[i]),
                    "cell {i}: {} vs {want}",
                    got[i]
                );
            }
            assert!(
                got[rows * row_len..].iter().all(|c| c.is_nan()),
                "partial row untouched"
            );
        }
    }

    #[test]
    fn first_min_matches_in_order_scan() {
        let mut rng = StdRng::seed_from_u64(18);
        // few distinct values, so ties land inside and across chunks
        let values = [0.0, 0.25, 0.5, 1.0, f64::NAN, f64::INFINITY];
        for n in [0usize, 1, 7, 8, 9, 46, 576, 1968] {
            let cost: Vec<f64> = (0..n)
                .map(|_| values[rng.gen::<usize>() % values.len()])
                .collect();
            for below in [f64::INFINITY, 1.0, 0.25, 0.0] {
                let mut want = None;
                let mut best = below;
                for (i, &c) in cost.iter().enumerate() {
                    if c < best {
                        best = c;
                        want = Some(i);
                    }
                }
                assert_eq!(first_min(&cost, below), want, "n={n} below={below}");
                assert_eq!(first_min_body(&cost, below), want, "n={n} below={below}");
            }
        }
    }

    /// The per-ISA instantiations of the extraction and inversion kernels
    /// agree with their scalar bodies on machines that have the features.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn extraction_and_inversion_isa_instantiations_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 67;
        let x = edge_complexes(&mut rng, n);
        let off = complexes(&mut rng, n);
        let (sa, sb) = (Complex::new(0.6, -0.1), Complex::new(-0.4, 0.9));
        let base = complexes(&mut rng, n);
        let coeffs = [0.25, -1.5, 0.75, 0.125];
        let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 8.0).collect();
        let samples: Vec<f64> = (0..5 * 21).map(|_| rng.gen::<f64>() - 0.5).collect();
        let weights: Vec<f64> = (0..5 * 23)
            .map(|i| if i % 3 == 0 { 0.0 } else { rng.gen() })
            .collect();
        let p1: Vec<f64> = (0..4 * 21).map(|_| rng.gen::<f64>() * 9.0 - 4.5).collect();
        let p2: Vec<f64> = (0..4 * 21).map(|_| rng.gen::<f64>() * 9.0 - 4.5).collect();

        type Isa = (
            unsafe fn(&mut [Complex], &mut [Complex], &[Complex], &[Complex], Complex, Complex),
            unsafe fn(&mut [Complex], &[Complex]),
            unsafe fn(&mut [f64], &[f64], &[f64]),
            unsafe fn(&mut [f64], &[f64], &[f64], usize),
            unsafe fn(&mut [f64], &[f64], &[f64], [f64; 2], usize),
        );
        let mut isas: Vec<(&str, Isa)> = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            isas.push((
                "avx2",
                (
                    cmac2_sub_scaled_avx2,
                    add_row_avx2,
                    horner_lanes_avx2,
                    stencil_rows_avx2,
                    phase_cost_rows_avx2,
                ),
            ));
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            isas.push((
                "avx512",
                (
                    cmac2_sub_scaled_avx512,
                    add_row_avx512,
                    horner_lanes_avx512,
                    stencil_rows_avx512,
                    phase_cost_rows_avx512,
                ),
            ));
        }
        for (name, (cmac2, add, horner, stencil, cost)) in isas {
            // Safety: each instantiation's features were just detected.
            unsafe {
                for o in [&off, &vec![Complex::ZERO; n]] {
                    let (mut a, mut b) = (base.clone(), base.clone());
                    cmac2(&mut a, &mut b, &x, o, sa, sb);
                    let (mut wa, mut wb) = (base.clone(), base.clone());
                    cmac2_sub_scaled_body(&mut wa, &mut wb, &x, o, sa, sb);
                    assert_bits_or_nan(&a, &wa);
                    assert_bits_or_nan(&b, &wb);
                }
                let (mut a, mut w) = (base.clone(), base.clone());
                add(&mut a, &x);
                add_row_body(&mut w, &x);
                assert_bits_or_nan(&a, &w);

                let (mut a, mut w) = (vec![0.0; n], vec![0.0; n]);
                horner(&mut a, &coeffs, &xs);
                horner_lanes_body(&mut w, &coeffs, &xs);
                assert_eq!(f64_bits(&a), f64_bits(&w), "{name} horner_lanes");

                let (mut a, mut w) = (vec![0.0; 21 * 23], vec![0.0; 21 * 23]);
                stencil(&mut a, &samples, &weights, 5);
                stencil_rows_body(&mut w, &samples, &weights, 5);
                assert_eq!(f64_bits(&a), f64_bits(&w), "{name} stencil_rows");

                for phi in [[0.1, 0.2], [3.1, -3.1]] {
                    let (mut a, mut w) = (vec![0.0; 4 * 21], vec![0.0; 4 * 21]);
                    cost(&mut a, &p1, &p2, phi, 21);
                    phase_cost_rows_body(&mut w, &p1, &p2, phi, 21);
                    assert_eq!(f64_bits(&a), f64_bits(&w), "{name} phase_cost_rows");
                }
            }
        }
    }

    #[test]
    #[ignore = "manual micro-benchmark of the per-ISA instantiations"]
    fn timing_per_isa() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 640;
        let u1s: Vec<f64> = (0..n)
            .map(|_| rng.gen::<f64>().max(f64::MIN_POSITIVE))
            .collect();
        let u2s: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let mut out = vec![0.0; n];
        let iters = 20000;
        type FillFn<'a> = &'a mut dyn FnMut(&[f64], &[f64], &mut [f64]);
        let mut time = |f: FillFn| {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                f(&u1s, &u2s, &mut out);
            }
            t.elapsed().as_secs_f64() / iters as f64 * 1e6
        };
        println!("scalar body: {:.2} us", time(&mut box_muller_normals_body));
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                println!(
                    "avx2: {:.2} us",
                    time(&mut |a, b, o| unsafe { box_muller_normals_avx2(a, b, o) })
                );
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                println!(
                    "avx512: {:.2} us",
                    time(&mut |a, b, o| unsafe { box_muller_normals_avx512(a, b, o) })
                );
            }
        }
    }

    /// The per-ISA instantiations themselves (not just whatever backend
    /// dispatch picked) must agree with the scalar body on machines that
    /// have the features.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn isa_instantiations_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 1013;
        let u1s: Vec<f64> = (0..n)
            .map(|_| rng.gen::<f64>().max(f64::MIN_POSITIVE))
            .collect();
        let u2s: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let mut scalar = vec![0.0; n];
        box_muller_normals_body(&u1s, &u2s, &mut scalar);
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut v = vec![0.0; n];
            // Safety: AVX2 support was just detected.
            unsafe { box_muller_normals_avx2(&u1s, &u2s, &mut v) };
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            let mut v = vec![0.0; n];
            // Safety: AVX-512 F+DQ+VL support was just detected.
            unsafe { box_muller_normals_avx512(&u1s, &u2s, &mut v) };
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    /// Same per-ISA check for the Philox counter kernel: the RNG family
    /// must reproduce bit-for-bit on every vector unit it dispatches to.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn philox_isa_instantiations_match_scalar_bitwise() {
        let key = [0x9E37_79B9, 0x7F4A_7C15];
        let ctr_hi = [611, 2, 1];
        let n = 1013;
        let mut scalar = vec![0.0; n];
        philox_normals_body(key, ctr_hi, 0, &mut scalar);
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut v = vec![0.0; n];
            // Safety: AVX2 support was just detected.
            unsafe { philox_normals_avx2(key, ctr_hi, 0, &mut v) };
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            let mut v = vec![0.0; n];
            // Safety: AVX-512 F+DQ+VL support was just detected.
            unsafe { philox_normals_avx512(key, ctr_hi, 0, &mut v) };
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    type TagStatesFn = unsafe fn(&mut [u8], f64, f64, usize, [DutyWave; 2], bool) -> bool;
    type SpectralMeanFn = unsafe fn(&mut [Complex], &[Complex], &[Complex], [f64; 4]);
    type SpectralLineFn = unsafe fn(&mut [Complex], &[Complex], &[Complex], &[f64], LineTerms);

    /// The scalar bodies and every instantiation this CPU can run, for
    /// the classifier and the two spectral-line kernels.
    fn spectral_isas() -> Vec<(&'static str, TagStatesFn, SpectralMeanFn, SpectralLineFn)> {
        let mut isas: Vec<(&'static str, TagStatesFn, SpectralMeanFn, SpectralLineFn)> = vec![(
            "scalar",
            tag_states_body,
            spectral_mean_body,
            spectral_line_body,
        )];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push((
                    "avx2",
                    tag_states_avx2,
                    spectral_mean_avx2,
                    spectral_line_avx2,
                ));
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                isas.push((
                    "avx512",
                    tag_states_avx512,
                    spectral_mean_avx512,
                    spectral_line_avx512,
                ));
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                isas.push((
                    "neon",
                    tag_states_neon,
                    spectral_mean_neon,
                    spectral_line_neon,
                ));
            }
        }
        isas
    }

    /// A two-clock drive: the WiForce pair (25 % at `fs`, 75 % at `2fs`
    /// active-low) or the naive pair (50 % at `fs` and `2fs`).
    fn drive(fs: f64, wiforce: bool) -> ([DutyWave; 2], [f64; 2], bool) {
        let (p1, p2) = (1.0 / fs, 1.0 / (2.0 * fs));
        let wave = |period: f64, duty: f64, offset_s: f64| DutyWave {
            offset_s,
            inv_period: 1.0 / period,
            duty,
        };
        if wiforce {
            (
                [wave(p1, 0.25, 0.0), wave(p2, 0.75, 0.375 * p1)],
                [p1, p2],
                true,
            )
        } else {
            ([wave(p1, 0.5, 0.0), wave(p2, 0.5, 0.0)], [p1, p2], false)
        }
    }

    /// The exact state: `fmod`-based levels, no estimate.
    fn rem_euclid_state(t: f64, waves: [DutyWave; 2], periods: [f64; 2], invert2: bool) -> u8 {
        let high = |w: DutyWave, p: f64| (t - w.offset_s).rem_euclid(p) / p < w.duty;
        high(waves[0], periods[0]) as u8 | ((high(waves[1], periods[1]) != invert2) as u8) << 1
    }

    /// Runs one classification on every instantiation: each must return
    /// the scalar body's states and verdict, and a trusted walk must
    /// match `rem_euclid` at every instant. Returns the verdict.
    fn check_tag_states(
        t0: f64,
        dt: f64,
        s0: usize,
        len: usize,
        (waves, periods, invert2): ([DutyWave; 2], [f64; 2], bool),
    ) -> bool {
        let mut want = vec![0u8; len];
        let trusted = tag_states_body(&mut want, t0, dt, s0, waves, invert2);
        for (name, classify, _, _) in spectral_isas() {
            let mut got = vec![0xFFu8; len];
            // Safety: spectral_isas lists only detected instantiations.
            let ok = unsafe { classify(&mut got, t0, dt, s0, waves, invert2) };
            assert_eq!(
                (ok, &got),
                (trusted, &want),
                "{name} t0={t0:e} dt={dt:e} s0={s0}"
            );
        }
        if trusted {
            for (i, &st) in want.iter().enumerate() {
                let t = t0 + (s0 + i) as f64 * dt;
                assert_eq!(st, rem_euclid_state(t, waves, periods, invert2), "t={t:e}");
            }
        }
        assert_eq!(
            tag_states(&mut want.clone(), t0, dt, s0, waves, invert2),
            trusted,
            "dispatched entry"
        );
        trusted
    }

    #[test]
    fn tag_states_match_rem_euclid_at_edges_on_every_backend() {
        // walk each clock edge one ulp at a time (`dt` is the ulp at the
        // start), from 8 ulps before to 8 after, near the origin, deep
        // into a run and past the estimate's range
        let (mut trusted, mut refused) = (0, 0);
        for j in 0..12 {
            let fs = 500.0 + j as f64 * 311.7;
            for wiforce in [true, false] {
                let d = drive(fs, wiforce);
                let (waves, periods, _) = d;
                for (w, p) in waves.iter().zip(periods) {
                    let ks = [0.0, 1.0, 17.0, 1_000.0, 6_661.0, 99_991.0, 3.0e7];
                    for k in ks {
                        for frac in [0.0, w.duty, 1.0] {
                            let mut t0 = w.offset_s + (k + frac) * p;
                            for _ in 0..8 {
                                t0 = t0.next_down();
                            }
                            let dt = t0.next_up() - t0;
                            if check_tag_states(t0, dt, 0, 17, d) {
                                trusted += 1;
                            } else {
                                refused += 1;
                            }
                            // single instants straddling the edge margin
                            // (1e-9 of a period), each decided on its own
                            let edge = w.offset_s + (k + frac) * p;
                            for m in [-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0] {
                                if check_tag_states(edge + m * 1e-9 * p, 0.0, 0, 1, d) {
                                    trusted += 1;
                                } else {
                                    refused += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        // a walk across an edge is never decided by the estimate, while
        // an instant a few margins off an edge is when in range
        assert!(refused > 0 && trusted > 0);
    }

    #[test]
    fn tag_states_match_rem_euclid_on_snapshot_walks_on_every_backend() {
        let mut trusted = 0;
        for wiforce in [true, false] {
            let d = drive(1000.0, wiforce);
            for (t0, dt) in [
                (0.0, 57.6e-6),
                (0.123e-3, 57.6e-6 * (1.0 + 3e-6)),
                (12.345, 57.6e-6 * (1.0 - 40e-6)),
                (999.99, 57.6e-6),
                (-1e-3, 57.6e-6),
                (f64::NAN, 57.6e-6),
            ] {
                for (s0, len) in [(0, 625), (37, 700), (64, 61), (1 << 20, 64), (5, 3)] {
                    trusted += usize::from(check_tag_states(t0, dt, s0, len, d));
                }
            }
            // past 2⁵³ the lane index is not exact: the conversion path
            let huge = (1usize << 53) - 5;
            check_tag_states(0.25e-3, 1e-19, huge, 20, d);
        }
        assert!(trusted > 0, "some walks must be decided by the estimate");
    }

    #[test]
    fn spectral_line_kernels_match_the_per_subcarrier_expression_on_every_backend() {
        let mut rng = StdRng::seed_from_u64(21);
        for k_sub in [0usize, 1, 7, 8, 9, 64, 65] {
            let statics = complexes(&mut rng, k_sub);
            let rows = complexes(&mut rng, 4 * k_sub);
            let normals: Vec<f64> = (0..2 * k_sub + 2).map(|_| rng.gen::<f64>() - 0.5).collect();
            let cbar = [0.25, 0.125, 0.5, 0.125];
            let t = LineTerms {
                w: [
                    Complex::new(rng.gen(), rng.gen()),
                    Complex::new(rng.gen(), -rng.gen::<f64>()),
                    Complex::new(-rng.gen::<f64>(), rng.gen()),
                    Complex::new(rng.gen(), rng.gen()),
                ],
                sigma: 0.37,
                jc: Complex::new(1e-3, -2e-3),
                reference: Complex::cis(0.7),
            };
            // the spectral arm's per-line expression, one subcarrier at a
            // time, meanP rebuilt for every line
            let b = |state: usize, k: usize| rows[state * k_sub + k];
            let want: Vec<Complex> = (0..k_sub)
                .map(|k| {
                    let det =
                        b(0, k) * t.w[0] + b(1, k) * t.w[1] + b(2, k) * t.w[2] + b(3, k) * t.w[3];
                    let noise = Complex::new(normals[2 * k], normals[2 * k + 1]).scale(t.sigma);
                    let mean_p = statics[k]
                        + b(0, k).scale(cbar[0])
                        + b(1, k).scale(cbar[1])
                        + b(2, k).scale(cbar[2])
                        + b(3, k).scale(cbar[3]);
                    t.reference * (det + noise + Complex::I * mean_p * t.jc)
                })
                .collect();
            for (name, _, mean, line) in spectral_isas() {
                let mut i_mean = vec![Complex::ZERO; k_sub];
                let mut got = vec![Complex::ZERO; k_sub];
                // Safety: spectral_isas lists only detected instantiations.
                unsafe {
                    mean(&mut i_mean, &statics, &rows, cbar);
                    line(&mut got, &rows, &i_mean, &normals, t);
                }
                assert_eq!(got.len(), want.len(), "{name}");
                assert_bits_eq(&got, &want);
            }
            let mut i_mean = vec![Complex::ZERO; k_sub];
            let mut got = vec![Complex::ZERO; k_sub];
            spectral_mean(&mut i_mean, &statics, &rows, cbar);
            spectral_line(&mut got, &rows, &i_mean, &normals, t);
            assert_bits_eq(&got, &want);
        }
    }
}
