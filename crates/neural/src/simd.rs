//! Runtime-dispatched SIMD kernels for the matrix hot loops.
//!
//! Only operations that are **bitwise identical** across every dispatch
//! path are provided: SIMD lanes hold independent output elements, each
//! lane performs the same IEEE-754 single-precision *fused* multiply-add
//! sequence as the scalar loop (`f32::mul_add` in the scalar kernels,
//! hardware FMA in the vector kernels — a single rounding per term either
//! way), with no reassociation across the reduction dimension: every
//! output element accumulates its products in ascending-`k` order into a
//! single chain. This keeps every determinism and batched-equivalence
//! guarantee in the workspace intact while running the GEMMs at the FMA
//! units' throughput — twice that of split multiply-then-add chains.
//!
//! Fusing the multiply and add is a deliberate (tiny) model change
//! relative to unfused kernels — one rounding per term instead of two —
//! in the same spirit as the polynomial kernels in `fastmath`: fine for
//! this codebase, whose committed artifacts are re-generated by the bench
//! suite, because the reference and hot paths share these kernels and so
//! remain mutually bitwise identical.
//!
//! The GEMM kernels ([`gemm_row`], [`gemm_row4`], [`add_scaled`]) come in
//! three tiers, chosen once per process by CPU detection ([`gemm_tier`]):
//!
//! - **AVX-512F**: 16-lane ZMM tiles, column tails by masked load/store,
//!   the zero-coefficient skip as a lane mask (no data-dependent branch;
//!   the comment opening the AVX-512 kernels says why the mask and the
//!   scalar `a == 0.0` test skip exactly the same terms);
//! - **AVX + FMA**: 8-lane YMM tiles with a fused 8/4/scalar tail;
//! - **scalar**: `mul_add` loops, on non-x86_64 targets or CPUs without
//!   AVX and FMA.
//!
//! All three run the same per-element chain, so which one a host picks
//! never changes a result bit. The activation kernels ([`elu_inplace`],
//! [`sigmoid_inplace`], [`tanh_inplace`]) run sixteen lanes with masked
//! tails on the AVX-512 tier and otherwise eight AVX2 lanes where the CPU
//! has them; the Adam kernel has its own AVX path. Every one has a scalar
//! fallback it matches bit for bit.

use std::sync::OnceLock;

/// The GEMM kernel implementations, best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Avx512,
    AvxFma,
    Scalar,
}

impl Tier {
    const ALL: [Tier; 3] = [Tier::Avx512, Tier::AvxFma, Tier::Scalar];

    fn name(self) -> &'static str {
        match self {
            Tier::Avx512 => "avx512f",
            Tier::AvxFma => "avx+fma",
            Tier::Scalar => "scalar",
        }
    }

    /// Whether this CPU can run the tier's kernels.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Tier::AvxFma => {
                std::is_x86_feature_detected!("avx") && std::is_x86_feature_detected!("fma")
            }
            Tier::Scalar => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The best tier this CPU supports, detected on first use.
fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        Tier::ALL
            .into_iter()
            .find(|t| t.supported())
            .unwrap_or(Tier::Scalar)
    })
}

/// Name of the GEMM kernel tier this process dispatches to: `"avx512f"`,
/// `"avx+fma"` or `"scalar"`. Every tier gives bitwise-identical results;
/// the name only says how fast they come.
pub fn gemm_tier() -> &'static str {
    tier().name()
}

/// `dst[j] += alpha * src[j]` — `Matrix::axpy` and friends.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub(crate) fn add_scaled(dst: &mut [f32], src: &[f32], alpha: f32) {
    assert_eq!(dst.len(), src.len(), "add_scaled length mismatch");
    match tier() {
        // SAFETY: AVX-512F support was verified at runtime.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { add_scaled_avx512(dst, src, alpha) },
        // SAFETY: AVX and FMA support was verified at runtime.
        #[cfg(target_arch = "x86_64")]
        Tier::AvxFma => unsafe { add_scaled_avx(dst, src, alpha) },
        _ => add_scaled_scalar(dst, src, alpha),
    }
}

#[inline]
fn add_scaled_scalar(dst: &mut [f32], src: &[f32], alpha: f32) {
    for (o, &b) in dst.iter_mut().zip(src) {
        *o = alpha.mul_add(b, *o);
    }
}

/// One output row of a GEMM: `o_row[j] += Σ_k coeff(k) · b[k·ldb + j]`,
/// where `coeff(k) = a[k · a_stride]` and the sum runs `k = 0..k_count` in
/// ascending order (zero coefficients skipped, as in the scalar kernels).
///
/// `matmul` uses `a_stride == 1` (a row of the left operand); `matmul_tn`
/// uses `a_stride == cols` (a column). The SIMD tiers tile `j` and keep
/// the accumulators in registers across the whole `k` loop, which is what
/// makes them faster than per-`k` axpys — the store/reload of the output
/// row disappears. Accumulation order per element is unchanged.
///
/// # Panics
///
/// Panics if the coefficient or `b` slices are too short for the given
/// strides and widths.
#[inline]
pub(crate) fn gemm_row(
    a: &[f32],
    a_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o_row: &mut [f32],
) {
    if k_count == 0 {
        return;
    }
    assert!(
        a.len() > (k_count - 1) * a_stride,
        "coefficient slice too short"
    );
    assert!(
        b.len() >= (k_count - 1) * ldb + o_row.len(),
        "b slice too short"
    );
    match tier() {
        // SAFETY: AVX-512F verified at runtime; bounds asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { gemm_row_avx512(a, a_stride, k_count, b, ldb, o_row) },
        // SAFETY: AVX and FMA verified at runtime; bounds asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::AvxFma => unsafe { gemm_row_avx(a, a_stride, k_count, b, ldb, o_row) },
        _ => gemm_row_scalar(a, a_stride, k_count, b, ldb, o_row),
    }
}

#[inline]
fn gemm_row_scalar(
    a: &[f32],
    a_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o_row: &mut [f32],
) {
    let w = o_row.len();
    for k in 0..k_count {
        let aik = a[k * a_stride];
        if aik == 0.0 {
            continue;
        }
        let b_row = &b[k * ldb..k * ldb + w];
        add_scaled_scalar(o_row, b_row, aik);
    }
}

/// Four output rows of a GEMM in one sweep: row `r` of the block computes
/// `o[r·n + j] += Σ_k a[r·a_row_step + k·a_k_stride] · b[k·ldb + j]` where
/// `n = o.len() / 4`, each sum in ascending-`k` order with zero
/// coefficients skipped — every output element performs exactly the
/// multiply-then-add sequence of [`gemm_row`], so results are bitwise
/// identical to four separate calls; the blocking only interleaves
/// *independent* accumulator chains. That interleaving is the point: a
/// narrow output row (one or two vectors wide) gives [`gemm_row`] a single
/// FP-add chain per vector, so the k loop runs at add *latency*, not
/// throughput. Four rows share each `b` load and keep four times the
/// chains in flight, which is worth ~2-3x at this codebase's layer widths
/// (15/30-wide autoencoder rows).
///
/// `matmul` passes four consecutive rows (`a_row_step = cols`,
/// `a_k_stride = 1`); `matmul_tn` passes four consecutive columns
/// (`a_row_step = 1`, `a_k_stride = cols`).
///
/// # Panics
///
/// Panics if `o.len()` is not a multiple of four or the coefficient/`b`
/// slices are too short for the given strides and widths.
#[inline]
pub(crate) fn gemm_row4(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    assert_eq!(o.len() % 4, 0, "gemm_row4 output must hold four rows");
    let n = o.len() / 4;
    if k_count == 0 || n == 0 {
        return;
    }
    assert!(
        a.len() > 3 * a_row_step + (k_count - 1) * a_k_stride,
        "coefficient slice too short"
    );
    assert!(b.len() >= (k_count - 1) * ldb + n, "b slice too short");
    match tier() {
        // SAFETY: AVX-512F verified at runtime; bounds asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { gemm_row4_avx512(a, a_row_step, a_k_stride, k_count, b, ldb, o) },
        // SAFETY: AVX and FMA verified at runtime; bounds asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::AvxFma => unsafe { gemm_row4_avx(a, a_row_step, a_k_stride, k_count, b, ldb, o) },
        _ => gemm_row4_scalar(a, a_row_step, a_k_stride, k_count, b, ldb, o),
    }
}

fn gemm_row4_scalar(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    let n = o.len() / 4;
    for (r, o_row) in o.chunks_exact_mut(n).enumerate() {
        gemm_row_scalar(&a[r * a_row_step..], a_k_stride, k_count, b, ldb, o_row);
    }
}

#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    static AVX: OnceLock<bool> = OnceLock::new();
    *AVX.get_or_init(|| std::is_x86_feature_detected!("avx"))
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

/// In-place ELU over a slice: `x` for `x ≥ 0`, `α(e^x - 1)` otherwise,
/// with `e^x` the [`crate::fastmath::exp`] kernel. The AVX-512 and AVX2
/// paths run the identical operation sequence sixteen or eight lanes at a
/// time, so scalar and vector results agree bit for bit. The AVX-512 path
/// is taken on the GEMM kernels' AVX-512 tier and covers the tail with a
/// masked chunk; the AVX2 path finishes its tail with the scalar kernel.
#[inline]
pub(crate) fn elu_inplace(xs: &mut [f32], alpha: f32) {
    match tier() {
        // SAFETY: AVX-512F support was verified at runtime.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { elu_inplace_avx512(xs, alpha) },
        // SAFETY: AVX2 support was just verified at runtime.
        #[cfg(target_arch = "x86_64")]
        _ if avx2_available() => unsafe { elu_inplace_avx2(xs, alpha) },
        _ => elu_inplace_scalar(xs, alpha),
    }
}

fn elu_inplace_scalar(xs: &mut [f32], alpha: f32) {
    for x in xs {
        if *x < 0.0 {
            *x = alpha * (crate::fastmath::exp(*x) - 1.0);
        }
    }
}

/// In-place logistic sigmoid over a slice (see [`elu_inplace`] on the
/// scalar/vector bitwise agreement).
#[inline]
pub(crate) fn sigmoid_inplace(xs: &mut [f32]) {
    match tier() {
        // SAFETY: AVX-512F support was verified at runtime.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { sigmoid_inplace_avx512(xs) },
        // SAFETY: AVX2 support was just verified at runtime.
        #[cfg(target_arch = "x86_64")]
        _ if avx2_available() => unsafe { sigmoid_inplace_avx2(xs) },
        _ => sigmoid_inplace_scalar(xs),
    }
}

fn sigmoid_inplace_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = crate::fastmath::sigmoid(*x);
    }
}

/// In-place tanh over a slice (see [`elu_inplace`] on the scalar/vector
/// bitwise agreement).
#[inline]
pub(crate) fn tanh_inplace(xs: &mut [f32]) {
    match tier() {
        // SAFETY: AVX-512F support was verified at runtime.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { tanh_inplace_avx512(xs) },
        // SAFETY: AVX2 support was just verified at runtime.
        #[cfg(target_arch = "x86_64")]
        _ if avx2_available() => unsafe { tanh_inplace_avx2(xs) },
        _ => tanh_inplace_scalar(xs),
    }
}

fn tanh_inplace_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = crate::fastmath::tanh(*x);
    }
}

/// Eight-lane mirror of [`crate::fastmath::exp`]: the same clamp,
/// magic-constant round, two-part ln2 reduction, Horner polynomial, and
/// exponent-bit scaling, in the same order — each lane is bitwise
/// identical to the scalar kernel (every op involved is exactly rounded,
/// and `cvtps` on the already-integral `kf` is exact).
///
/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exp256(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let magic = _mm256_set1_ps(12_582_912.0);
    let x = _mm256_max_ps(
        _mm256_set1_ps(-87.0),
        _mm256_min_ps(_mm256_set1_ps(88.0), x),
    );
    let kf = _mm256_sub_ps(
        _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(crate::fastmath::LOG2_E)),
            magic,
        ),
        magic,
    );
    let r = _mm256_sub_ps(
        _mm256_sub_ps(
            x,
            _mm256_mul_ps(kf, _mm256_set1_ps(crate::fastmath::LN2_HI)),
        ),
        _mm256_mul_ps(kf, _mm256_set1_ps(crate::fastmath::LN2_LO)),
    );
    // p = 1 + r(1 + r(1/2 + r(1/6 + r(1/24 + r(1/120 + r·(1/720))))))
    let mut p = _mm256_mul_ps(r, _mm256_set1_ps(1.0 / 720.0));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0 / 120.0), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0 / 24.0), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0 / 6.0), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(0.5), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0), p));
    p = _mm256_add_ps(_mm256_set1_ps(1.0), p);
    let k = _mm256_cvtps_epi32(kf);
    let two_k = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        k,
        _mm256_set1_epi32(127),
    )));
    _mm256_mul_ps(two_k, p)
}

/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn elu_inplace_avx2(xs: &mut [f32], alpha: f32) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);
    let al = _mm256_set1_ps(alpha);
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        let neg = _mm256_mul_ps(al, _mm256_sub_ps(exp256(x), one));
        let keep = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), _mm256_blendv_ps(neg, x, keep));
        j += 8;
    }
    for x in &mut xs[j..] {
        if *x < 0.0 {
            *x = alpha * (crate::fastmath::exp(*x) - 1.0);
        }
    }
}

/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sigmoid_inplace_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let one = _mm256_set1_ps(1.0);
    let sign = _mm256_set1_ps(-0.0);
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        // 1 / (1 + exp(-x))
        let e = exp256(_mm256_xor_ps(x, sign));
        let y = _mm256_div_ps(one, _mm256_add_ps(one, e));
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), y);
        j += 8;
    }
    for x in &mut xs[j..] {
        *x = crate::fastmath::sigmoid(*x);
    }
}

/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_inplace_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let sign = _mm256_set1_ps(-0.0);
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        let ax = _mm256_andnot_ps(sign, x);
        let sx = _mm256_and_ps(sign, x);
        // Polynomial branch (|x| < 0.625): x + x·z·P(z), z = x².
        let z = _mm256_mul_ps(x, x);
        let mut p = _mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(-5.704_988_7e-3), z),
            _mm256_set1_ps(2.063_908_8e-2),
        );
        p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(-5.373_971_5e-2));
        p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(1.333_144_2e-1));
        p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(-3.333_328e-1));
        p = _mm256_mul_ps(p, z);
        let poly = _mm256_add_ps(_mm256_mul_ps(x, p), x);
        // Exp branch: sign(x) · (1 - 2/(exp(2|x|) + 1)).
        let t = exp256(_mm256_mul_ps(two, ax));
        let ye = _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(t, one)));
        let ye = _mm256_or_ps(ye, sx);
        // Saturation branch (|x| > 9): ±1.
        let ys = _mm256_or_ps(one, sx);
        let big = _mm256_cmp_ps::<_CMP_GT_OQ>(ax, _mm256_set1_ps(9.0));
        let small = _mm256_cmp_ps::<_CMP_LT_OQ>(ax, _mm256_set1_ps(0.625));
        let y = _mm256_blendv_ps(_mm256_blendv_ps(ye, ys, big), poly, small);
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), y);
        j += 8;
    }
    for x in &mut xs[j..] {
        *x = crate::fastmath::tanh(*x);
    }
}

/// Sixteen-lane mirror of [`exp256`] (and so of
/// [`crate::fastmath::exp`]): the same operations in the same order, each
/// exactly rounded, so every lane is bitwise identical to the scalar
/// kernel.
///
/// # Safety
///
/// Caller must ensure AVX-512F support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn exp512(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let magic = _mm512_set1_ps(12_582_912.0);
    let x = _mm512_max_ps(
        _mm512_set1_ps(-87.0),
        _mm512_min_ps(_mm512_set1_ps(88.0), x),
    );
    let kf = _mm512_sub_ps(
        _mm512_add_ps(
            _mm512_mul_ps(x, _mm512_set1_ps(crate::fastmath::LOG2_E)),
            magic,
        ),
        magic,
    );
    let r = _mm512_sub_ps(
        _mm512_sub_ps(
            x,
            _mm512_mul_ps(kf, _mm512_set1_ps(crate::fastmath::LN2_HI)),
        ),
        _mm512_mul_ps(kf, _mm512_set1_ps(crate::fastmath::LN2_LO)),
    );
    let mut p = _mm512_mul_ps(r, _mm512_set1_ps(1.0 / 720.0));
    p = _mm512_mul_ps(r, _mm512_add_ps(_mm512_set1_ps(1.0 / 120.0), p));
    p = _mm512_mul_ps(r, _mm512_add_ps(_mm512_set1_ps(1.0 / 24.0), p));
    p = _mm512_mul_ps(r, _mm512_add_ps(_mm512_set1_ps(1.0 / 6.0), p));
    p = _mm512_mul_ps(r, _mm512_add_ps(_mm512_set1_ps(0.5), p));
    p = _mm512_mul_ps(r, _mm512_add_ps(_mm512_set1_ps(1.0), p));
    p = _mm512_add_ps(_mm512_set1_ps(1.0), p);
    let k = _mm512_cvtps_epi32(kf);
    let two_k = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
        k,
        _mm512_set1_epi32(127),
    )));
    _mm512_mul_ps(two_k, p)
}

/// Replaces `xs` with `f` applied sixteen lanes at a time; the last chunk
/// goes through a masked load and store, so masked-off lanes are neither
/// read nor written and no element takes a scalar path.
///
/// # Safety
///
/// Caller must ensure AVX-512F support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn map_avx512(
    xs: &mut [f32],
    f: impl Fn(std::arch::x86_64::__m512) -> std::arch::x86_64::__m512,
) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let p = xs.as_mut_ptr();
    let mut j = 0;
    while j < n {
        let m = if j + 16 <= n {
            u16::MAX
        } else {
            tail_mask(n - j)
        };
        let y = f(_mm512_maskz_loadu_ps(m, p.add(j)));
        _mm512_mask_storeu_ps(p.add(j), m, y);
        j += 16;
    }
}

/// `x` with its sign bit flipped (`_mm512_xor_ps` needs AVX-512DQ).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn negate512(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(x),
        _mm512_set1_epi32(i32::MIN),
    ))
}

/// # Safety
///
/// Caller must ensure AVX-512F support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn elu_inplace_avx512(xs: &mut [f32], alpha: f32) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_ps();
    let one = _mm512_set1_ps(1.0);
    let al = _mm512_set1_ps(alpha);
    map_avx512(xs, |x| {
        let neg = _mm512_mul_ps(al, _mm512_sub_ps(exp512(x), one));
        // Replace exactly where the scalar `x < 0.0` holds (not NaN).
        let below = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, zero);
        _mm512_mask_blend_ps(below, x, neg)
    });
}

/// # Safety
///
/// Caller must ensure AVX-512F support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sigmoid_inplace_avx512(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let one = _mm512_set1_ps(1.0);
    map_avx512(xs, |x| {
        // 1 / (1 + exp(-x))
        let e = exp512(negate512(x));
        _mm512_div_ps(one, _mm512_add_ps(one, e))
    });
}

/// # Safety
///
/// Caller must ensure AVX-512F support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_inplace_avx512(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let one = _mm512_set1_ps(1.0);
    let two = _mm512_set1_ps(2.0);
    map_avx512(xs, |x| {
        let ax = _mm512_abs_ps(x);
        // The scalar kernel's `x > 0.0` sign test, NaN included.
        let positive = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_setzero_ps());
        // Polynomial branch (|x| < 0.625): x + x·z·P(z), z = x².
        let z = _mm512_mul_ps(x, x);
        let mut p = _mm512_add_ps(
            _mm512_mul_ps(_mm512_set1_ps(-5.704_988_7e-3), z),
            _mm512_set1_ps(2.063_908_8e-2),
        );
        p = _mm512_add_ps(_mm512_mul_ps(p, z), _mm512_set1_ps(-5.373_971_5e-2));
        p = _mm512_add_ps(_mm512_mul_ps(p, z), _mm512_set1_ps(1.333_144_2e-1));
        p = _mm512_add_ps(_mm512_mul_ps(p, z), _mm512_set1_ps(-3.333_328e-1));
        p = _mm512_mul_ps(p, z);
        let poly = _mm512_add_ps(_mm512_mul_ps(x, p), x);
        // Exp branch: 1 - 2/(exp(2|x|) + 1), negated unless x > 0.
        let t = exp512(_mm512_mul_ps(two, ax));
        let ye = _mm512_sub_ps(one, _mm512_div_ps(two, _mm512_add_ps(t, one)));
        let ye = _mm512_mask_blend_ps(positive, negate512(ye), ye);
        // Saturation branch (|x| > 9): ±1.
        let ys = _mm512_mask_blend_ps(positive, _mm512_set1_ps(-1.0), one);
        let big = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(ax, _mm512_set1_ps(9.0));
        let small = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(ax, _mm512_set1_ps(0.625));
        _mm512_mask_blend_ps(small, _mm512_mask_blend_ps(big, ye, ys), poly)
    });
}

/// AVX + FMA [`gemm_row`]: 64-wide then 32-wide YMM j-tiles, then one
/// fused k loop for the remaining 8-wide, 4-wide and scalar columns.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX and FMA and that the
/// slices cover the strides/widths (asserted by [`gemm_row`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_row_avx(
    a: &[f32],
    a_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o_row: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = o_row.len();
    let op = o_row.as_mut_ptr();
    let bp0 = b.as_ptr();
    let mut j = 0;
    // 64-wide then 32-wide j-tiles: the YMM accumulators live in registers
    // across the entire k loop, so the output row is loaded and stored
    // exactly once, and eight independent add chains hide the FP-add
    // latency of the in-order per-element accumulation.
    while j + 64 <= n {
        let mut acc0 = _mm256_loadu_ps(op.add(j));
        let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
        let mut acc2 = _mm256_loadu_ps(op.add(j + 16));
        let mut acc3 = _mm256_loadu_ps(op.add(j + 24));
        let mut acc4 = _mm256_loadu_ps(op.add(j + 32));
        let mut acc5 = _mm256_loadu_ps(op.add(j + 40));
        let mut acc6 = _mm256_loadu_ps(op.add(j + 48));
        let mut acc7 = _mm256_loadu_ps(op.add(j + 56));
        for k in 0..k_count {
            let aik = *a.get_unchecked(k * a_stride);
            if aik == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(aik);
            let bp = bp0.add(k * ldb + j);
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), acc1);
            acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(16)), acc2);
            acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(24)), acc3);
            acc4 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(32)), acc4);
            acc5 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(40)), acc5);
            acc6 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(48)), acc6);
            acc7 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(56)), acc7);
        }
        _mm256_storeu_ps(op.add(j), acc0);
        _mm256_storeu_ps(op.add(j + 8), acc1);
        _mm256_storeu_ps(op.add(j + 16), acc2);
        _mm256_storeu_ps(op.add(j + 24), acc3);
        _mm256_storeu_ps(op.add(j + 32), acc4);
        _mm256_storeu_ps(op.add(j + 40), acc5);
        _mm256_storeu_ps(op.add(j + 48), acc6);
        _mm256_storeu_ps(op.add(j + 56), acc7);
        j += 64;
    }
    while j + 32 <= n {
        let mut acc0 = _mm256_loadu_ps(op.add(j));
        let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
        let mut acc2 = _mm256_loadu_ps(op.add(j + 16));
        let mut acc3 = _mm256_loadu_ps(op.add(j + 24));
        for k in 0..k_count {
            let aik = *a.get_unchecked(k * a_stride);
            if aik == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(aik);
            let bp = bp0.add(k * ldb + j);
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), acc1);
            acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(16)), acc2);
            acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(24)), acc3);
        }
        _mm256_storeu_ps(op.add(j), acc0);
        _mm256_storeu_ps(op.add(j + 8), acc1);
        _mm256_storeu_ps(op.add(j + 16), acc2);
        _mm256_storeu_ps(op.add(j + 24), acc3);
        j += 32;
    }
    let rem = n - j;
    if rem == 0 {
        return;
    }
    // Fused remainder: everything narrower than one 32-tile shares a
    // SINGLE k loop — up to three 8-wide, one 4-wide, and three scalar
    // accumulators all stay live together. Walking these as separate
    // k loops (the obvious tiling) leaves a narrow row with one add
    // chain at a time, so deep reductions (e.g. the LSTM's 1 x 120 by
    // 120 x 31 input-gradient row) run at FP-add *latency*; fusing keeps
    // every remaining chain in flight. Per-element accumulation order —
    // ascending `k`, zero coefficients skipped, multiply-then-add — is
    // exactly that of the loops above, so results are bitwise unchanged.
    let n8 = rem / 8; // 0..=3 eight-wide tiles
    let has4 = rem % 8 >= 4;
    let ns = rem % 4; // 0..=3 scalar lanes
    let j4 = j + n8 * 8;
    let js = j4 + if has4 { 4 } else { 0 };
    let mut y0 = if n8 > 0 {
        _mm256_loadu_ps(op.add(j))
    } else {
        _mm256_setzero_ps()
    };
    let mut y1 = if n8 > 1 {
        _mm256_loadu_ps(op.add(j + 8))
    } else {
        _mm256_setzero_ps()
    };
    let mut y2 = if n8 > 2 {
        _mm256_loadu_ps(op.add(j + 16))
    } else {
        _mm256_setzero_ps()
    };
    let mut x0 = if has4 {
        _mm_loadu_ps(op.add(j4))
    } else {
        _mm_setzero_ps()
    };
    let mut s = [0.0f32; 3];
    for (i, si) in s.iter_mut().enumerate().take(ns) {
        *si = *op.add(js + i);
    }
    for k in 0..k_count {
        let aik = *a.get_unchecked(k * a_stride);
        if aik == 0.0 {
            continue;
        }
        let bp = bp0.add(k * ldb);
        if n8 > 0 {
            let av = _mm256_set1_ps(aik);
            y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(j)), y0);
            if n8 > 1 {
                y1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(j + 8)), y1);
            }
            if n8 > 2 {
                y2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(j + 16)), y2);
            }
        }
        if has4 {
            x0 = _mm_fmadd_ps(_mm_set1_ps(aik), _mm_loadu_ps(bp.add(j4)), x0);
        }
        for (i, si) in s.iter_mut().enumerate().take(ns) {
            *si = aik.mul_add(*bp.add(js + i), *si);
        }
    }
    if n8 > 0 {
        _mm256_storeu_ps(op.add(j), y0);
        if n8 > 1 {
            _mm256_storeu_ps(op.add(j + 8), y1);
        }
        if n8 > 2 {
            _mm256_storeu_ps(op.add(j + 16), y2);
        }
    }
    if has4 {
        _mm_storeu_ps(op.add(j4), x0);
    }
    for (i, si) in s.iter().enumerate().take(ns) {
        *op.add(js + i) = *si;
    }
}

/// AVX + FMA [`gemm_row4`]: 16-, 8- and 4-wide j-tiles of four rows each,
/// then a scalar tail.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX and FMA and that the
/// slices cover the strides/widths (asserted by [`gemm_row4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_row4_avx(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = o.len() / 4;
    let op = o.as_mut_ptr();
    let bp0 = b.as_ptr();
    let ap = a.as_ptr();
    let mut j = 0;
    // 16-wide j-tiles, four rows each: eight accumulators stay in
    // registers across the whole k loop, every `b` vector feeds four
    // independent add chains. `c<row><half>` naming.
    while j + 16 <= n {
        let mut c00 = _mm256_loadu_ps(op.add(j));
        let mut c01 = _mm256_loadu_ps(op.add(j + 8));
        let mut c10 = _mm256_loadu_ps(op.add(n + j));
        let mut c11 = _mm256_loadu_ps(op.add(n + j + 8));
        let mut c20 = _mm256_loadu_ps(op.add(2 * n + j));
        let mut c21 = _mm256_loadu_ps(op.add(2 * n + j + 8));
        let mut c30 = _mm256_loadu_ps(op.add(3 * n + j));
        let mut c31 = _mm256_loadu_ps(op.add(3 * n + j + 8));
        for k in 0..k_count {
            let bp = bp0.add(k * ldb + j);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            let ak = ap.add(k * a_k_stride);
            let a0 = *ak;
            if a0 != 0.0 {
                let av = _mm256_set1_ps(a0);
                c00 = _mm256_fmadd_ps(av, b0, c00);
                c01 = _mm256_fmadd_ps(av, b1, c01);
            }
            let a1 = *ak.add(a_row_step);
            if a1 != 0.0 {
                let av = _mm256_set1_ps(a1);
                c10 = _mm256_fmadd_ps(av, b0, c10);
                c11 = _mm256_fmadd_ps(av, b1, c11);
            }
            let a2 = *ak.add(2 * a_row_step);
            if a2 != 0.0 {
                let av = _mm256_set1_ps(a2);
                c20 = _mm256_fmadd_ps(av, b0, c20);
                c21 = _mm256_fmadd_ps(av, b1, c21);
            }
            let a3 = *ak.add(3 * a_row_step);
            if a3 != 0.0 {
                let av = _mm256_set1_ps(a3);
                c30 = _mm256_fmadd_ps(av, b0, c30);
                c31 = _mm256_fmadd_ps(av, b1, c31);
            }
        }
        _mm256_storeu_ps(op.add(j), c00);
        _mm256_storeu_ps(op.add(j + 8), c01);
        _mm256_storeu_ps(op.add(n + j), c10);
        _mm256_storeu_ps(op.add(n + j + 8), c11);
        _mm256_storeu_ps(op.add(2 * n + j), c20);
        _mm256_storeu_ps(op.add(2 * n + j + 8), c21);
        _mm256_storeu_ps(op.add(3 * n + j), c30);
        _mm256_storeu_ps(op.add(3 * n + j + 8), c31);
        j += 16;
    }
    while j + 8 <= n {
        let mut c0 = _mm256_loadu_ps(op.add(j));
        let mut c1 = _mm256_loadu_ps(op.add(n + j));
        let mut c2 = _mm256_loadu_ps(op.add(2 * n + j));
        let mut c3 = _mm256_loadu_ps(op.add(3 * n + j));
        for k in 0..k_count {
            let bv = _mm256_loadu_ps(bp0.add(k * ldb + j));
            let ak = ap.add(k * a_k_stride);
            let a0 = *ak;
            if a0 != 0.0 {
                c0 = _mm256_fmadd_ps(_mm256_set1_ps(a0), bv, c0);
            }
            let a1 = *ak.add(a_row_step);
            if a1 != 0.0 {
                c1 = _mm256_fmadd_ps(_mm256_set1_ps(a1), bv, c1);
            }
            let a2 = *ak.add(2 * a_row_step);
            if a2 != 0.0 {
                c2 = _mm256_fmadd_ps(_mm256_set1_ps(a2), bv, c2);
            }
            let a3 = *ak.add(3 * a_row_step);
            if a3 != 0.0 {
                c3 = _mm256_fmadd_ps(_mm256_set1_ps(a3), bv, c3);
            }
        }
        _mm256_storeu_ps(op.add(j), c0);
        _mm256_storeu_ps(op.add(n + j), c1);
        _mm256_storeu_ps(op.add(2 * n + j), c2);
        _mm256_storeu_ps(op.add(3 * n + j), c3);
        j += 8;
    }
    while j + 4 <= n {
        let mut c0 = _mm_loadu_ps(op.add(j));
        let mut c1 = _mm_loadu_ps(op.add(n + j));
        let mut c2 = _mm_loadu_ps(op.add(2 * n + j));
        let mut c3 = _mm_loadu_ps(op.add(3 * n + j));
        for k in 0..k_count {
            let bv = _mm_loadu_ps(bp0.add(k * ldb + j));
            let ak = ap.add(k * a_k_stride);
            let a0 = *ak;
            if a0 != 0.0 {
                c0 = _mm_fmadd_ps(_mm_set1_ps(a0), bv, c0);
            }
            let a1 = *ak.add(a_row_step);
            if a1 != 0.0 {
                c1 = _mm_fmadd_ps(_mm_set1_ps(a1), bv, c1);
            }
            let a2 = *ak.add(2 * a_row_step);
            if a2 != 0.0 {
                c2 = _mm_fmadd_ps(_mm_set1_ps(a2), bv, c2);
            }
            let a3 = *ak.add(3 * a_row_step);
            if a3 != 0.0 {
                c3 = _mm_fmadd_ps(_mm_set1_ps(a3), bv, c3);
            }
        }
        _mm_storeu_ps(op.add(j), c0);
        _mm_storeu_ps(op.add(n + j), c1);
        _mm_storeu_ps(op.add(2 * n + j), c2);
        _mm_storeu_ps(op.add(3 * n + j), c3);
        j += 4;
    }
    if j < n {
        // Scalar tail (at most three columns per row), same k-ascending
        // order per element as every path above.
        for r in 0..4 {
            for k in 0..k_count {
                let aik = *ap.add(r * a_row_step + k * a_k_stride);
                if aik == 0.0 {
                    continue;
                }
                for jj in j..n {
                    *op.add(r * n + jj) = aik.mul_add(*bp0.add(k * ldb + jj), *op.add(r * n + jj));
                }
            }
        }
    }
}

/// # Safety
///
/// The caller must ensure the CPU supports AVX and FMA and
/// `dst.len() == src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn add_scaled_avx(dst: &mut [f32], src: &[f32], alpha: f32) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let a = _mm256_set1_ps(alpha);
    let mut j = 0;
    // Eight lanes per step; each lane is one output element's own
    // mul-then-add, exactly as in the scalar loop.
    while j + 8 <= n {
        let b = _mm256_loadu_ps(src.as_ptr().add(j));
        let o = _mm256_loadu_ps(dst.as_ptr().add(j));
        let sum = _mm256_fmadd_ps(a, b, o);
        _mm256_storeu_ps(dst.as_mut_ptr().add(j), sum);
        j += 8;
    }
    add_scaled_scalar(&mut dst[j..], &src[j..], alpha);
}

// The AVX-512 tier. Each lane is one output element with its own
// ascending-`k` FMA chain, exactly as in the tiers above; two things
// differ in form only.
//
// - The zero-coefficient skip is a lane mask, not a branch:
//   `_mm512_mask3_fmadd_ps(a, b, acc, live)` keeps `acc` wherever `live`
//   is clear, and `live = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, 0)` is set
//   exactly when the scalar `a == 0.0` test is false: `±0.0` compare equal
//   (skipped), NaN compares unordered (not skipped, the NaN propagates).
//   A skipped term therefore leaves the accumulator's bits untouched —
//   including a `-0.0` seed and under an infinite `b` — as `continue` does.
// - Column tails are masked loads and stores, so a tile of `C` 16-lane
//   chunks covers any width in `16(C-1)+1 ..= 16C`; masked-off lanes are
//   neither read nor written.

/// Lane mask of a tile's chunk `c` of `C`: all 16 lanes, except that the
/// last chunk takes `tail`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn chunk_mask<const C: usize>(c: usize, tail: u16) -> u16 {
    if c + 1 == C {
        tail
    } else {
        u16::MAX
    }
}

/// Mask of the low `rem % 16` lanes, or all lanes when `rem` is a
/// multiple of 16.
#[cfg(target_arch = "x86_64")]
fn tail_mask(rem: usize) -> u16 {
    match rem % 16 {
        0 => u16::MAX,
        r => (1u16 << r) - 1,
    }
}

/// AVX-512 [`gemm_row`]: 128-wide tiles (eight ZMM accumulators), then one
/// masked tile of one to eight chunks for the rest.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F and that the slices
/// cover the strides/widths (asserted by [`gemm_row`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_row_avx512(
    a: &[f32],
    a_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o_row: &mut [f32],
) {
    let n = o_row.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), o_row.as_mut_ptr());
    let g = Rows {
        row_step: 0,
        k_stride: a_stride,
        k_count,
        ldb,
        ldo: n,
    };
    let mut j = 0;
    while j + 128 <= n {
        tile_avx512::<1, 8>(ap, g, bp.add(j), op.add(j), u16::MAX);
        j += 128;
    }
    let (bp, op, tail) = (bp.add(j), op.add(j), tail_mask(n - j));
    match (n - j).div_ceil(16) {
        0 => {}
        1 => tile_avx512::<1, 1>(ap, g, bp, op, tail),
        2 => tile_avx512::<1, 2>(ap, g, bp, op, tail),
        3 => tile_avx512::<1, 3>(ap, g, bp, op, tail),
        4 => tile_avx512::<1, 4>(ap, g, bp, op, tail),
        5 => tile_avx512::<1, 5>(ap, g, bp, op, tail),
        6 => tile_avx512::<1, 6>(ap, g, bp, op, tail),
        7 => tile_avx512::<1, 7>(ap, g, bp, op, tail),
        _ => tile_avx512::<1, 8>(ap, g, bp, op, tail),
    }
}

/// AVX-512 [`gemm_row4`]: 64-wide tiles of four rows (sixteen ZMM
/// accumulators), then one masked tile of one to four chunks.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F and that the slices
/// cover the strides/widths (asserted by [`gemm_row4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_row4_avx512(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    let n = o.len() / 4;
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), o.as_mut_ptr());
    let g = Rows {
        row_step: a_row_step,
        k_stride: a_k_stride,
        k_count,
        ldb,
        ldo: n,
    };
    let mut j = 0;
    while j + 64 <= n {
        tile_avx512::<4, 4>(ap, g, bp.add(j), op.add(j), u16::MAX);
        j += 64;
    }
    let (bp, op, tail) = (bp.add(j), op.add(j), tail_mask(n - j));
    match (n - j).div_ceil(16) {
        0 => {}
        1 => tile_avx512::<4, 1>(ap, g, bp, op, tail),
        2 => tile_avx512::<4, 2>(ap, g, bp, op, tail),
        3 => tile_avx512::<4, 3>(ap, g, bp, op, tail),
        _ => tile_avx512::<4, 4>(ap, g, bp, op, tail),
    }
}

/// Geometry of an AVX-512 GEMM tile: output row `r`, at `o + r·ldo`,
/// accumulates `a[r·row_step + k·k_stride] · b[k·ldb + ..]` over
/// `k < k_count`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Rows {
    row_step: usize,
    k_stride: usize,
    k_count: usize,
    ldb: usize,
    ldo: usize,
}

/// One tile of `R` output rows by `C` 16-lane chunks, the last chunk
/// masked by `tail`. The `R × C` accumulators stay in registers across
/// the whole k loop; each `b` chunk is loaded once per `k` and feeds `R`
/// independent chains, each row under its own skip mask.
///
/// # Safety
///
/// AVX-512F; per `g`, `a` readable for `r < R`, `k < k_count`, and `b`
/// and `o` readable (`o` writable) at the tile's unmasked lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512<const R: usize, const C: usize>(
    a: *const f32,
    g: Rows,
    b: *const f32,
    o: *mut f32,
    tail: u16,
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_ps();
    let mut acc = [[zero; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(chunk_mask::<C>(c, tail), o.add(r * g.ldo + 16 * c));
        }
    }
    for k in 0..g.k_count {
        let bk = b.add(k * g.ldb);
        let mut bv = [zero; C];
        for (c, v) in bv.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(chunk_mask::<C>(c, tail), bk.add(16 * c));
        }
        let ak = a.add(k * g.k_stride);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ak.add(r * g.row_step));
            let live = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(av, zero);
            for (v, &bc) in row.iter_mut().zip(&bv) {
                *v = _mm512_mask3_fmadd_ps(av, bc, *v, live);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            _mm512_mask_storeu_ps(o.add(r * g.ldo + 16 * c), chunk_mask::<C>(c, tail), *v);
        }
    }
}

/// AVX-512 [`add_scaled`]: 16 lanes per step, the tail masked.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F and
/// `dst.len() == src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn add_scaled_avx512(dst: &mut [f32], src: &[f32], alpha: f32) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    let av = _mm512_set1_ps(alpha);
    let mut j = 0;
    while j < n {
        let m = if j + 16 <= n {
            u16::MAX
        } else {
            tail_mask(n - j)
        };
        let sum = _mm512_fmadd_ps(
            av,
            _mm512_maskz_loadu_ps(m, sp.add(j)),
            _mm512_maskz_loadu_ps(m, dp.add(j)),
        );
        _mm512_mask_storeu_ps(dp.add(j), m, sum);
        j += 16;
    }
}

/// One fused Adam update over a parameter tensor:
/// `m ← β₁m + (1-β₁)g`, `v ← β₂v + (1-β₂)g·g`,
/// `p ← p - lr·(m/bias₁) / (√(v/bias₂) + ε)`.
///
/// The SIMD path is bitwise identical to the scalar loop: every operation
/// involved (mul, add, sub, div, sqrt) is correctly rounded in both scalar
/// and vector form, and lanes are independent elements.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn adam_update(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    assert!(
        p.len() == g.len() && p.len() == m.len() && p.len() == v.len(),
        "adam_update length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() {
            // SAFETY: AVX verified at runtime; lengths asserted above.
            unsafe { adam_update_avx(p, g, m, v, lr, b1, b2, eps, bias1, bias2) };
            return;
        }
    }
    adam_update_scalar(p, g, m, v, lr, b1, b2, eps, bias1, bias2);
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn adam_update_scalar(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    for ((pk, &gk), (mk, vk)) in p.iter_mut().zip(g).zip(m.iter_mut().zip(v.iter_mut())) {
        *mk = b1 * *mk + (1.0 - b1) * gk;
        *vk = b2 * *vk + (1.0 - b2) * gk * gk;
        let m_hat = *mk / bias1;
        let v_hat = *vk / bias2;
        *pk -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// # Safety
///
/// The caller must ensure the CPU supports AVX and that all slices have
/// equal length (asserted by [`adam_update`]).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx")]
unsafe fn adam_update_avx(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    use std::arch::x86_64::*;
    let n = p.len();
    let b1v = _mm256_set1_ps(b1);
    let b2v = _mm256_set1_ps(b2);
    let one_m_b1 = _mm256_set1_ps(1.0 - b1);
    let one_m_b2 = _mm256_set1_ps(1.0 - b2);
    let lrv = _mm256_set1_ps(lr);
    let epsv = _mm256_set1_ps(eps);
    let bias1v = _mm256_set1_ps(bias1);
    let bias2v = _mm256_set1_ps(bias2);
    let mut j = 0;
    while j + 8 <= n {
        let gk = _mm256_loadu_ps(g.as_ptr().add(j));
        let mk = _mm256_add_ps(
            _mm256_mul_ps(b1v, _mm256_loadu_ps(m.as_ptr().add(j))),
            _mm256_mul_ps(one_m_b1, gk),
        );
        // (1-b2)*gk*gk evaluated as ((1-b2)*gk)*gk, matching the scalar.
        let vk = _mm256_add_ps(
            _mm256_mul_ps(b2v, _mm256_loadu_ps(v.as_ptr().add(j))),
            _mm256_mul_ps(_mm256_mul_ps(one_m_b2, gk), gk),
        );
        _mm256_storeu_ps(m.as_mut_ptr().add(j), mk);
        _mm256_storeu_ps(v.as_mut_ptr().add(j), vk);
        let m_hat = _mm256_div_ps(mk, bias1v);
        let v_hat = _mm256_div_ps(vk, bias2v);
        let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
        let step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
        let pk = _mm256_sub_ps(_mm256_loadu_ps(p.as_ptr().add(j)), step);
        _mm256_storeu_ps(p.as_mut_ptr().add(j), pk);
        j += 8;
    }
    adam_update_scalar(
        &mut p[j..],
        &g[j..],
        &mut m[j..],
        &mut v[j..],
        lr,
        b1,
        b2,
        eps,
        bias1,
        bias2,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_scaled_matches_scalar_for_all_remainder_lengths() {
        // Lengths 0..40 cover every remainder class around the 8-lane width.
        for n in 0..40usize {
            let src: Vec<f32> = (0..n).map(|i| (i as f32 - 7.5) * 0.3).collect();
            let mut fast: Vec<f32> = (0..n).map(|i| (i as f32) * 0.11 - 1.0).collect();
            let mut slow = fast.clone();
            add_scaled(&mut fast, &src, -1.37);
            add_scaled_scalar(&mut slow, &src, -1.37);
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn gemm_row_matches_scalar_across_widths_strides_and_zeros() {
        // Widths cover the 32-tile, 8-tile, and scalar-tail paths; strides
        // cover the matmul (1) and matmul_tn (column) access patterns.
        for &w in &[1usize, 5, 8, 15, 32, 39, 64, 71] {
            for &stride in &[1usize, 3] {
                for k_count in [1usize, 2, 7] {
                    let a: Vec<f32> = (0..(k_count - 1) * stride + 1)
                        .map(|i| {
                            if i % 4 == 0 {
                                0.0
                            } else {
                                (i as f32) * 0.17 - 1.1
                            }
                        })
                        .collect();
                    let b: Vec<f32> = (0..(k_count - 1) * w + w)
                        .map(|i| (i as f32) * 0.07 - 2.3)
                        .collect();
                    let mut fast: Vec<f32> = (0..w).map(|i| i as f32 * 0.01).collect();
                    let mut slow = fast.clone();
                    gemm_row(&a, stride, k_count, &b, w, &mut fast);
                    gemm_row_scalar(&a, stride, k_count, &b, w, &mut slow);
                    for (x, y) in fast.iter().zip(&slow) {
                        assert_eq!(x.to_bits(), y.to_bits(), "w={w} stride={stride}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_row4_matches_four_gemm_row_calls_bitwise() {
        // Widths cover the 16-tile, 8-tile, 4-tile, and scalar-tail paths;
        // the (row_step, k_stride) pairs cover the matmul (rows) and
        // matmul_tn (columns) access patterns.
        for &w in &[1usize, 3, 5, 8, 12, 15, 19, 30, 32, 39, 64, 71] {
            for &(row_step, k_stride) in &[(7usize, 1usize), (1, 4)] {
                for k_count in [1usize, 2, 7] {
                    let a_len = 3 * row_step + (k_count - 1) * k_stride + 1;
                    let a: Vec<f32> = (0..a_len)
                        .map(|i| {
                            if i % 5 == 0 {
                                0.0
                            } else {
                                (i as f32) * 0.19 - 1.3
                            }
                        })
                        .collect();
                    let b: Vec<f32> = (0..(k_count - 1) * w + w)
                        .map(|i| (i as f32) * 0.05 - 1.7)
                        .collect();
                    let mut fast: Vec<f32> = (0..4 * w).map(|i| i as f32 * 0.02).collect();
                    let mut slow = fast.clone();
                    gemm_row4(&a, row_step, k_stride, k_count, &b, w, &mut fast);
                    for (r, o_row) in slow.chunks_exact_mut(w).enumerate() {
                        gemm_row_scalar(&a[r * row_step..], k_stride, k_count, &b, w, o_row);
                    }
                    for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "w={w} row_step={row_step} k_stride={k_stride} k={k_count} i={i}"
                        );
                    }
                }
            }
        }
    }

    /// The tiers this host can run; the others are reported as skipped.
    fn host_tiers(test: &str) -> Vec<Tier> {
        let (run, skip): (Vec<Tier>, Vec<Tier>) =
            Tier::ALL.into_iter().partition(|t| t.supported());
        for t in skip {
            eprintln!(
                "{test}: tier {} not supported on this host, skipped",
                t.name()
            );
        }
        run
    }

    // Direct per-tier calls, bypassing dispatch, so every tier the host
    // supports is tested whichever one `tier()` would pick.

    fn add_scaled_on(t: Tier, dst: &mut [f32], src: &[f32], alpha: f32) {
        assert!(t.supported() && dst.len() == src.len());
        match t {
            // SAFETY: tier support and equal lengths asserted above.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { add_scaled_avx512(dst, src, alpha) },
            // SAFETY: tier support and equal lengths asserted above.
            #[cfg(target_arch = "x86_64")]
            Tier::AvxFma => unsafe { add_scaled_avx(dst, src, alpha) },
            _ => add_scaled_scalar(dst, src, alpha),
        }
    }

    fn gemm_row_on(t: Tier, a: &[f32], a_stride: usize, k: usize, b: &[f32], o: &mut [f32]) {
        let ldb = o.len();
        assert!(t.supported() && k > 0 && a.len() > (k - 1) * a_stride && b.len() >= k * ldb);
        match t {
            // SAFETY: tier support and slice bounds asserted above.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { gemm_row_avx512(a, a_stride, k, b, ldb, o) },
            // SAFETY: tier support and slice bounds asserted above.
            #[cfg(target_arch = "x86_64")]
            Tier::AvxFma => unsafe { gemm_row_avx(a, a_stride, k, b, ldb, o) },
            _ => gemm_row_scalar(a, a_stride, k, b, ldb, o),
        }
    }

    fn gemm_row4_on(t: Tier, a: &[f32], steps: (usize, usize), k: usize, b: &[f32], o: &mut [f32]) {
        let (row_step, k_stride) = steps;
        let ldb = o.len() / 4;
        assert!(t.supported() && k > 0 && o.len().is_multiple_of(4));
        assert!(a.len() > 3 * row_step + (k - 1) * k_stride && b.len() >= k * ldb);
        match t {
            // SAFETY: tier support and slice bounds asserted above.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { gemm_row4_avx512(a, row_step, k_stride, k, b, ldb, o) },
            // SAFETY: tier support and slice bounds asserted above.
            #[cfg(target_arch = "x86_64")]
            Tier::AvxFma => unsafe { gemm_row4_avx(a, row_step, k_stride, k, b, ldb, o) },
            _ => gemm_row4_scalar(a, row_step, k_stride, k, b, ldb, o),
        }
    }

    /// Every width up to 130 — each tail length of every tier, and the
    /// model's 15/30/109/120/128-wide rows — plus two full AVX-512 tiles
    /// and a tail.
    fn tier_widths() -> impl Iterator<Item = usize> {
        (1..=130).chain([257])
    }

    const TIER_K_COUNTS: [usize; 5] = [1, 2, 7, 35, 128];

    /// Deterministic data in [-2, 2) from an index hash, with `+0.0` and
    /// `-0.0` where `i % zeros` hits 0 and 1 (`zeros == 0`: none).
    fn data(len: usize, salt: u32, zeros: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match (zeros, i % zeros.max(1)) {
                (z, 0) if z > 0 => 0.0,
                (z, 1) if z > 0 => -0.0,
                _ => {
                    let h = (i as u32 ^ salt).wrapping_mul(0x9E37_79B9).rotate_left(13);
                    (h >> 8) as f32 / (1u32 << 22) as f32 - 2.0
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} i={i}: {x} vs {y}");
        }
    }

    #[test]
    fn add_scaled_tiers_match_scalar_bitwise() {
        for t in host_tiers("add_scaled_tiers_match_scalar_bitwise") {
            for n in tier_widths() {
                let src = data(n, 1, 0);
                for alpha in [-1.37, 0.0, -0.0] {
                    let mut want = data(n, 2, 5);
                    let mut got = want.clone();
                    add_scaled_scalar(&mut want, &src, alpha);
                    add_scaled_on(t, &mut got, &src, alpha);
                    assert_bits_eq(&got, &want, &format!("{} n={n} alpha={alpha}", t.name()));
                }
            }
        }
    }

    #[test]
    fn gemm_row_tiers_match_scalar_bitwise() {
        // Stride 1 is a row of the left operand (`matmul`); stride 3 a
        // column (`matmul_tn`).
        for t in host_tiers("gemm_row_tiers_match_scalar_bitwise") {
            for w in tier_widths() {
                for stride in [1usize, 3] {
                    for k in TIER_K_COUNTS {
                        let a = data((k - 1) * stride + 1, 3, 5);
                        let b = data(k * w, 4, 0);
                        let mut want = data(w, 5, 9);
                        let mut got = want.clone();
                        gemm_row_scalar(&a, stride, k, &b, w, &mut want);
                        gemm_row_on(t, &a, stride, k, &b, &mut got);
                        let what = format!("{} w={w} stride={stride} k={k}", t.name());
                        assert_bits_eq(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_row4_tiers_match_scalar_bitwise() {
        // (row_step, k_stride): four rows of the left operand (`matmul`)
        // or four of its columns (`matmul_tn`).
        for t in host_tiers("gemm_row4_tiers_match_scalar_bitwise") {
            for w in tier_widths() {
                for steps in [(7usize, 1usize), (1, 4)] {
                    for k in TIER_K_COUNTS {
                        let a = data(3 * steps.0 + (k - 1) * steps.1 + 1, 6, 7);
                        let b = data(k * w, 7, 0);
                        let mut want = data(4 * w, 8, 9);
                        let mut got = want.clone();
                        for (r, o_row) in want.chunks_exact_mut(w).enumerate() {
                            gemm_row_scalar(&a[r * steps.0..], steps.1, k, &b, w, o_row);
                        }
                        gemm_row4_on(t, &a, steps, k, &b, &mut got);
                        let what = format!("{} w={w} steps={steps:?} k={k}", t.name());
                        assert_bits_eq(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_tiers_keep_the_skip_rule_on_special_values() {
        // Every fourth k has a `+0.0` and every fourth a `-0.0` coefficient
        // (in all four rows), and its `b` row holds `±inf`: a term that
        // were not skipped would turn the output into NaN. The output seeds
        // are `-0.0`, which any executed term with a `+0.0` product would
        // flip to `+0.0`. With `nan`, row 2 (the row `gemm_row` runs)
        // meets a NaN coefficient mid-way, which is not skipped and must
        // propagate.
        let test = "gemm_tiers_keep_the_skip_rule_on_special_values";
        for t in host_tiers(test) {
            for w in [1usize, 15, 16, 17, 30, 64, 109, 120, 128, 130] {
                for k in TIER_K_COUNTS {
                    for nan in [false, true] {
                        let coeff = |kk: usize, r: usize| match kk % 4 {
                            0 => 0.0,
                            1 => -0.0,
                            _ if nan && r == 2 && kk == k / 8 * 4 + 2 => f32::NAN,
                            _ => (kk as f32 - 3.5) * 0.25 + r as f32,
                        };
                        let b: Vec<f32> = (0..k * w)
                            .map(|i| match (i / w % 4, i % 2) {
                                (0 | 1, 0) => f32::INFINITY,
                                (0 | 1, _) => f32::NEG_INFINITY,
                                _ => (i % 13) as f32 * 0.5 - 3.0,
                            })
                            .collect();
                        let what = format!("{} w={w} k={k} nan={nan}", t.name());

                        // gemm_row on row 2's coefficients, contiguous.
                        let a: Vec<f32> = (0..k).map(|kk| coeff(kk, 2)).collect();
                        let mut want = vec![-0.0f32; w];
                        let mut got = want.clone();
                        gemm_row_scalar(&a, 1, k, &b, w, &mut want);
                        gemm_row_on(t, &a, 1, k, &b, &mut got);
                        assert_bits_eq(&got, &want, &format!("gemm_row {what}"));

                        // gemm_row4, rows laid out as `matmul` passes them.
                        let a4: Vec<f32> = (0..4 * k).map(|i| coeff(i % k, i / k)).collect();
                        let mut want = vec![-0.0f32; 4 * w];
                        let mut got = want.clone();
                        for (r, o_row) in want.chunks_exact_mut(w).enumerate() {
                            gemm_row_scalar(&a4[r * k..], 1, k, &b, w, o_row);
                        }
                        gemm_row4_on(t, &a4, (k, 1), k, &b, &mut got);
                        assert_bits_eq(&got, &want, &format!("gemm_row4 {what}"));
                        if k < 4 {
                            // Only skipped terms: the `-0.0` seeds survive.
                            assert!(got.iter().all(|x| x.to_bits() == (-0.0f32).to_bits()));
                        }
                        if nan && k > 4 {
                            assert!(got[2 * w..3 * w].iter().all(|x| x.is_nan()), "{what}");
                            assert!(got[..w].iter().all(|x| !x.is_nan()), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "add_scaled length mismatch")]
    fn mismatched_lengths_rejected() {
        add_scaled(&mut [0.0], &[1.0, 2.0], 1.0);
    }

    /// The activation kernels: the AVX-512 tier's, AVX2's, and the scalar
    /// `fastmath` loops.
    #[derive(Clone, Copy, Debug)]
    enum ActKernel {
        Avx512,
        Avx2,
        Scalar,
    }

    /// The activation kernels this host can run; the others are reported
    /// as skipped.
    fn host_activation_kernels(test: &str) -> Vec<ActKernel> {
        #[cfg(target_arch = "x86_64")]
        let supported = [Tier::Avx512.supported(), avx2_available(), true];
        #[cfg(not(target_arch = "x86_64"))]
        let supported = [false, false, true];
        let all = [ActKernel::Avx512, ActKernel::Avx2, ActKernel::Scalar];
        let mut run = Vec::new();
        for (k, ok) in all.into_iter().zip(supported) {
            if ok {
                run.push(k);
            } else {
                eprintln!("{test}: activation kernel {k:?} not supported on this host, skipped");
            }
        }
        run
    }

    fn elu_on(k: ActKernel, xs: &mut [f32], alpha: f32) {
        match k {
            // SAFETY: listed by `host_activation_kernels` only if supported.
            #[cfg(target_arch = "x86_64")]
            ActKernel::Avx512 => unsafe { elu_inplace_avx512(xs, alpha) },
            // SAFETY: listed by `host_activation_kernels` only if supported.
            #[cfg(target_arch = "x86_64")]
            ActKernel::Avx2 => unsafe { elu_inplace_avx2(xs, alpha) },
            _ => elu_inplace_scalar(xs, alpha),
        }
    }

    fn sigmoid_on(k: ActKernel, xs: &mut [f32]) {
        match k {
            // SAFETY: listed by `host_activation_kernels` only if supported.
            #[cfg(target_arch = "x86_64")]
            ActKernel::Avx512 => unsafe { sigmoid_inplace_avx512(xs) },
            // SAFETY: listed by `host_activation_kernels` only if supported.
            #[cfg(target_arch = "x86_64")]
            ActKernel::Avx2 => unsafe { sigmoid_inplace_avx2(xs) },
            _ => sigmoid_inplace_scalar(xs),
        }
    }

    fn tanh_on(k: ActKernel, xs: &mut [f32]) {
        match k {
            // SAFETY: listed by `host_activation_kernels` only if supported.
            #[cfg(target_arch = "x86_64")]
            ActKernel::Avx512 => unsafe { tanh_inplace_avx512(xs) },
            // SAFETY: listed by `host_activation_kernels` only if supported.
            #[cfg(target_arch = "x86_64")]
            ActKernel::Avx2 => unsafe { tanh_inplace_avx2(xs) },
            _ => tanh_inplace_scalar(xs),
        }
    }

    #[test]
    fn activation_kernels_match_scalar_bitwise_for_all_remainder_lengths() {
        // Every kernel the host runs, against the element-wise `fastmath`
        // functions, on every slice length from 0 to 40 (each tail length
        // of the 8- and 16-lane bodies). The pool puts every branch edge —
        // ±0, ±0.625 (tanh polynomial/exp split), ±9 (tanh saturation),
        // the exp clamps -87 and 88, and huge |x| — into every lane
        // position, between ordinary values in [-12, 12).
        let mut pool: Vec<f32> = vec![
            0.0,
            -0.0,
            0.625,
            -0.625,
            0.625f32.next_down(),
            -(0.625f32.next_down()),
            9.0,
            -9.0,
            9.0f32.next_up(),
            -(9.0f32.next_up()),
            -87.0,
            -87.5,
            88.0,
            88.5,
            1.0e9,
            -1.0e9,
            f32::MAX,
            f32::MIN,
            1.0e-30,
            -1.0e-30,
        ];
        pool.extend(data(60, 7, 0).iter().map(|x| 6.0 * x));
        for k in host_activation_kernels("activation_kernels_match_scalar_bitwise") {
            for n in 0..=40usize {
                for shift in 0..pool.len() {
                    let base: Vec<f32> = (0..n).map(|i| pool[(i + shift) % pool.len()]).collect();
                    for alpha in [1.0, 0.7] {
                        let mut elu = base.clone();
                        elu_on(k, &mut elu, alpha);
                        let want: Vec<f32> = base
                            .iter()
                            .map(|&x| {
                                if x < 0.0 {
                                    alpha * (crate::fastmath::exp(x) - 1.0)
                                } else {
                                    x
                                }
                            })
                            .collect();
                        assert_bits_eq(&elu, &want, &format!("{k:?} elu({alpha}) n={n}"));
                    }
                    let mut sig = base.clone();
                    sigmoid_on(k, &mut sig);
                    let want: Vec<f32> =
                        base.iter().map(|&x| crate::fastmath::sigmoid(x)).collect();
                    assert_bits_eq(&sig, &want, &format!("{k:?} sigmoid n={n}"));
                    let mut tanh = base.clone();
                    tanh_on(k, &mut tanh);
                    let want: Vec<f32> = base.iter().map(|&x| crate::fastmath::tanh(x)).collect();
                    assert_bits_eq(&tanh, &want, &format!("{k:?} tanh n={n}"));
                }
            }
        }
    }

    #[test]
    fn adam_update_matches_scalar_bitwise() {
        for n in [1usize, 7, 8, 9, 31, 64] {
            let g: Vec<f32> = (0..n).map(|i| (i as f32 - 3.0) * 0.21).collect();
            let mut p1: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
            let mut m1: Vec<f32> = (0..n).map(|i| i as f32 * -0.03).collect();
            let mut v1: Vec<f32> = (0..n).map(|i| i as f32 * 0.02).collect();
            let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
            adam_update(
                &mut p1, &g, &mut m1, &mut v1, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.002,
            );
            adam_update_scalar(
                &mut p2, &g, &mut m2, &mut v2, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.002,
            );
            for (a, b) in p1
                .iter()
                .zip(&p2)
                .chain(m1.iter().zip(&m2))
                .chain(v1.iter().zip(&v2))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }
}
