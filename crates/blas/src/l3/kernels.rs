//! Register microkernels and run-level kernel selection for GEMM.
//!
//! The GotoBLAS macro loop in [`crate::l3`] funnels every flop through one
//! `MR x NR` register tile; this module supplies that tile in two
//! accumulation semantics, for both pipeline precisions:
//!
//! * **scalar** — the portable 8x4 mul-then-add kernel. It is the
//!   bit-exactness oracle: its results are identical on every platform and
//!   to every earlier release of this crate.
//! * **simd** — explicitly vectorized FMA kernels behind runtime feature
//!   detection. For `f64`: AVX2+FMA 8x6 on `x86_64`, NEON 8x4 on `aarch64`.
//!   For `f32`: AVX2+FMA 16x6 on `x86_64` (8 lanes per YMM doubles the
//!   per-register width, and doubling MR to 16 keeps the same
//!   two-loads-six-broadcasts-twelve-FMAs schedule as the f64 tile at
//!   twice the flops), NEON 8x4 on `aarch64`. FMA contracts
//!   `a*b + acc` into one rounding, so simd results differ from scalar
//!   results in the last bits — *within* a kernel every result is still
//!   deterministic and independent of thread count.
//!
//! Because the two semantics round differently, the kernel is a **per-run
//! choice**, resolved once per process from the `RHPL_KERNEL` environment
//! variable (`scalar` | `simd` | `auto`, default `auto`) or the `rhpl
//! --kernel` flag, and then frozen: mixing kernels inside one factorization
//! would break the bitwise schedule-equivalence and replay guarantees the
//! test suite leans on. `auto` picks simd when the CPU supports it and
//! falls back to scalar otherwise (as does an explicit `simd` request on
//! unsupported hardware, keeping `RHPL_KERNEL=simd` portable in CI). An
//! *unparseable* value is a configuration error, not a fallback: the CLI
//! validates `RHPL_KERNEL` pre-flight, and a library-only entry fails fast
//! with the same message rather than silently running a different kernel
//! than the one requested.
//!
//! The per-precision shapes and entry points are reached through
//! [`crate::Element::micro_shape`] / [`crate::Element::micro`]; the
//! selection machinery here stays precision-agnostic (one `RHPL_KERNEL`
//! choice governs both element types in a mixed-precision process).

use crate::Element;
use std::sync::OnceLock;

/// Accumulation semantics of the active microkernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable mul-then-add 8x4 tile; bit-identical everywhere.
    Scalar,
    /// Runtime-detected FMA tile (AVX2+FMA or NEON; shape per precision).
    Simd,
}

/// A user-facing kernel request, before hardware resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelSel {
    /// Use simd when the hardware supports it, scalar otherwise.
    #[default]
    Auto,
    /// Force the portable scalar kernel.
    Scalar,
    /// Request the simd kernel (resolves to scalar on unsupported CPUs).
    Simd,
}

impl KernelSel {
    /// The request as spelled on the command line (`auto`/`scalar`/`simd`).
    pub fn name(self) -> &'static str {
        match self {
            KernelSel::Auto => "auto",
            KernelSel::Scalar => "scalar",
            KernelSel::Simd => "simd",
        }
    }
}

impl std::str::FromStr for KernelSel {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "auto" => Ok(KernelSel::Auto),
            "scalar" => Ok(KernelSel::Scalar),
            "simd" => Ok(KernelSel::Simd),
            _ => Err(()),
        }
    }
}

/// A resolved microkernel: its semantics plus the f64 register-tile shape
/// (the historical default precision; per-precision shapes come from
/// [`Kernel::mr_for`] / [`Kernel::nr_for`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel {
    kind: KernelKind,
    mr: usize,
    nr: usize,
}

/// Largest `MR * NR` over all kernels and precisions — the stack
/// accumulator size (the f32 AVX2 tile is 16x6).
pub(crate) const MAX_TILE: usize = 96;

/// `(mr, nr)` of the f64 tile for each accumulation semantics.
pub(crate) fn shape_f64(kind: KernelKind) -> (usize, usize) {
    match kind {
        KernelKind::Scalar => (8, 4),
        KernelKind::Simd => {
            if cfg!(target_arch = "x86_64") {
                (8, 6)
            } else {
                (8, 4)
            }
        }
    }
}

/// `(mr, nr)` of the f32 tile for each accumulation semantics.
pub(crate) fn shape_f32(kind: KernelKind) -> (usize, usize) {
    match kind {
        KernelKind::Scalar => (8, 4),
        KernelKind::Simd => {
            if cfg!(target_arch = "x86_64") {
                (16, 6)
            } else {
                (8, 4)
            }
        }
    }
}

impl Kernel {
    /// The portable scalar kernel (always available).
    pub fn scalar() -> Kernel {
        let (mr, nr) = shape_f64(KernelKind::Scalar);
        Kernel {
            kind: KernelKind::Scalar,
            mr,
            nr,
        }
    }

    /// The vectorized kernel for this CPU, if one exists.
    pub fn simd() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                let (mr, nr) = shape_f64(KernelKind::Simd);
                return Some(Kernel {
                    kind: KernelKind::Simd,
                    mr,
                    nr,
                });
            }
            None
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON (incl. 2x f64 / 4x f32 FMA) is baseline on aarch64.
            let (mr, nr) = shape_f64(KernelKind::Simd);
            Some(Kernel {
                kind: KernelKind::Simd,
                mr,
                nr,
            })
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            None
        }
    }

    /// Resolves a request against the hardware.
    pub fn resolve(sel: KernelSel) -> Kernel {
        match sel {
            KernelSel::Scalar => Kernel::scalar(),
            KernelSel::Auto | KernelSel::Simd => Kernel::simd().unwrap_or_else(Kernel::scalar),
        }
    }

    /// Accumulation semantics.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// f64 register-tile rows; packed-A strips are this tall (zero-padded).
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// f64 register-tile columns; packed-B strips are this wide
    /// (zero-padded).
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Register-tile rows for precision `E`.
    pub fn mr_for<E: Element>(&self) -> usize {
        E::micro_shape(self.kind).0
    }

    /// Register-tile columns for precision `E`.
    pub fn nr_for<E: Element>(&self) -> usize {
        E::micro_shape(self.kind).1
    }

    /// Short name for logs, JSON and the CLI.
    pub fn name(&self) -> &'static str {
        match self.kind {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }

    /// Human description including the tile shape and ISA.
    pub fn describe(&self) -> String {
        match self.kind {
            KernelKind::Scalar => format!("scalar {}x{} (portable mul+add)", self.mr, self.nr),
            KernelKind::Simd => {
                let isa = if cfg!(target_arch = "x86_64") {
                    "avx2+fma"
                } else {
                    "neon"
                };
                let (mr32, nr32) = shape_f32(self.kind);
                format!(
                    "simd {}x{} f64 / {}x{} f32 ({isa})",
                    self.mr, self.nr, mr32, nr32
                )
            }
        }
    }

    /// Runs the register tile: `acc[j*mr + i] = sum_p a[p*mr + i] *
    /// b[p*nr + j]` over `kc` depth steps, overwriting `acc` (callers pass
    /// a zeroed slice of exactly `mr * nr` elements for this precision's
    /// tile shape).
    #[inline]
    pub(crate) fn micro<E: Element>(&self, kc: usize, astrip: &[E], bstrip: &[E], acc: &mut [E]) {
        let (mr, nr) = E::micro_shape(self.kind);
        debug_assert!(astrip.len() >= kc * mr);
        debug_assert!(bstrip.len() >= kc * nr);
        debug_assert_eq!(acc.len(), mr * nr);
        E::micro(self.kind, kc, astrip, bstrip, acc)
    }
}

/// f64 microkernel entry for the [`Element`] dispatch.
#[inline]
pub(crate) fn micro_f64(
    kind: KernelKind,
    kc: usize,
    astrip: &[f64],
    bstrip: &[f64],
    acc: &mut [f64],
) {
    match kind {
        KernelKind::Scalar => micro_scalar::<f64, 8, 4>(kc, astrip, bstrip, acc),
        KernelKind::Simd => micro_simd_f64(kc, astrip, bstrip, acc),
    }
}

/// f32 microkernel entry for the [`Element`] dispatch.
#[inline]
pub(crate) fn micro_f32(
    kind: KernelKind,
    kc: usize,
    astrip: &[f32],
    bstrip: &[f32],
    acc: &mut [f32],
) {
    match kind {
        KernelKind::Scalar => micro_scalar::<f32, 8, 4>(kc, astrip, bstrip, acc),
        KernelKind::Simd => micro_simd_f32(kc, astrip, bstrip, acc),
    }
}

/// The portable `MR x NR` register tile, kept bit-identical to the original
/// serial implementation: plain mul-then-add in (p, j, i) order.
#[inline(always)]
fn micro_scalar<E: Element, const MR: usize, const NR: usize>(
    kc: usize,
    astrip: &[E],
    bstrip: &[E],
    acc: &mut [E],
) {
    for p in 0..kc {
        let av: &[E; MR] = astrip[p * MR..p * MR + MR]
            .try_into()
            .expect("slice is exactly MR long by construction");
        let bv: &[E; NR] = bstrip[p * NR..p * NR + NR]
            .try_into()
            .expect("slice is exactly NR long by construction");
        for j in 0..NR {
            let bj = bv[j];
            for i in 0..MR {
                acc[j * MR + i] += av[i] * bj;
            }
        }
    }
}

/// Dispatches to the vectorized f64 tile for this architecture. Only
/// reachable through a [`Kernel`] whose construction verified the ISA.
#[inline]
fn micro_simd_f64(kc: usize, astrip: &[f64], bstrip: &[f64], acc: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `Kernel::simd()` is the only constructor of a Simd kernel
        // on x86_64 and it requires `is_x86_feature_detected!` to confirm
        // the avx2 and fma target features before handing one out, so the
        // `#[target_feature(enable = "avx2,fma")]` contract holds here.
        unsafe { x86::micro_8x6_avx2fma(kc, astrip, bstrip, acc) }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: the neon target feature is baseline on every aarch64
        // target rustc supports, so the `#[target_feature(enable = "neon")]`
        // contract of the kernel is unconditionally met.
        unsafe { aarch64::micro_8x4_neon(kc, astrip, bstrip, acc) }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        // `Kernel::simd()` returns None here, so this is unreachable; fall
        // back to scalar semantics rather than aborting.
        micro_scalar::<f64, 8, 4>(kc, astrip, bstrip, acc)
    }
}

/// Dispatches to the vectorized f32 tile for this architecture. Only
/// reachable through a [`Kernel`] whose construction verified the ISA.
#[inline]
fn micro_simd_f32(kc: usize, astrip: &[f32], bstrip: &[f32], acc: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: as in `micro_simd_f64` — a Simd kernel only exists after
        // runtime detection of avx2+fma.
        unsafe { x86::micro_16x6_avx2fma_f32(kc, astrip, bstrip, acc) }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: neon is baseline on aarch64.
        unsafe { aarch64::micro_8x4_neon_f32(kc, astrip, bstrip, acc) }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        micro_scalar::<f32, 8, 4>(kc, astrip, bstrip, acc)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256, __m256d, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps,
        _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd,
        _mm256_storeu_ps,
    };

    /// AVX2+FMA `8x6` f64 register tile: twelve 4-lane accumulators (rows
    /// split into two YMM halves, one pair per column) fed by broadcast B
    /// values, leaving three YMM registers for the A loads and the
    /// broadcast.
    ///
    /// # Safety
    /// The caller must have verified at runtime that the CPU supports the
    /// `avx2` and `fma` target features.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro_8x6_avx2fma(
        kc: usize,
        astrip: &[f64],
        bstrip: &[f64],
        acc: &mut [f64],
    ) {
        const MR: usize = 8;
        const NR: usize = 6;
        assert!(astrip.len() >= kc * MR);
        assert!(bstrip.len() >= kc * NR);
        assert_eq!(acc.len(), MR * NR);
        let mut c: [__m256d; 2 * NR] = [_mm256_setzero_pd(); 2 * NR];
        for p in 0..kc {
            let arow = &astrip[p * MR..p * MR + MR];
            // SAFETY: avx2+fma — `arow` has 8 readable f64 lanes.
            let a0 = unsafe { _mm256_loadu_pd(arow.as_ptr()) };
            // SAFETY: avx2+fma — lanes 4..8 of the same MR-tall strip.
            let a1 = unsafe { _mm256_loadu_pd(arow[4..].as_ptr()) };
            let brow = &bstrip[p * NR..p * NR + NR];
            for j in 0..NR {
                let bj = _mm256_set1_pd(brow[j]);
                c[2 * j] = _mm256_fmadd_pd(a0, bj, c[2 * j]);
                c[2 * j + 1] = _mm256_fmadd_pd(a1, bj, c[2 * j + 1]);
            }
        }
        for j in 0..NR {
            // SAFETY: avx2+fma — `acc[j*MR..]` has >= 4 writable lanes.
            unsafe { _mm256_storeu_pd(acc[j * MR..].as_mut_ptr(), c[2 * j]) };
            // SAFETY: avx2+fma — second half of column j, inside MR*NR.
            unsafe { _mm256_storeu_pd(acc[j * MR + 4..].as_mut_ptr(), c[2 * j + 1]) };
        }
    }

    /// AVX2+FMA `16x6` f32 register tile: twelve 8-lane accumulators (rows
    /// split into two YMM halves, one pair per column) — the same
    /// two-loads, six-broadcasts, twelve-FMAs port schedule per depth step
    /// as the f64 `8x6` tile, with every register twice as wide. An `8x12`
    /// shape issues the same twelve FMAs but needs twelve B broadcasts per
    /// step, saturating the load ports and halving throughput in practice.
    ///
    /// # Safety
    /// The caller must have verified at runtime that the CPU supports the
    /// `avx2` and `fma` target features.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro_16x6_avx2fma_f32(
        kc: usize,
        astrip: &[f32],
        bstrip: &[f32],
        acc: &mut [f32],
    ) {
        const MR: usize = 16;
        const NR: usize = 6;
        assert!(astrip.len() >= kc * MR);
        assert!(bstrip.len() >= kc * NR);
        assert_eq!(acc.len(), MR * NR);
        let mut c: [__m256; 2 * NR] = [_mm256_setzero_ps(); 2 * NR];
        for p in 0..kc {
            let arow = &astrip[p * MR..p * MR + MR];
            // SAFETY: avx2+fma — `arow` has 16 readable f32 lanes.
            let a0 = unsafe { _mm256_loadu_ps(arow.as_ptr()) };
            // SAFETY: avx2+fma — lanes 8..16 of the same MR-tall strip.
            let a1 = unsafe { _mm256_loadu_ps(arow[8..].as_ptr()) };
            let brow = &bstrip[p * NR..p * NR + NR];
            for j in 0..NR {
                let bj = _mm256_set1_ps(brow[j]);
                c[2 * j] = _mm256_fmadd_ps(a0, bj, c[2 * j]);
                c[2 * j + 1] = _mm256_fmadd_ps(a1, bj, c[2 * j + 1]);
            }
        }
        for j in 0..NR {
            // SAFETY: avx2+fma — `acc[j*MR..]` has 8 writable lanes inside
            // the MR*NR accumulator (length asserted above).
            unsafe { _mm256_storeu_ps(acc[j * MR..].as_mut_ptr(), c[2 * j]) };
            // SAFETY: avx2+fma — second half of column j, inside MR*NR.
            unsafe { _mm256_storeu_ps(acc[j * MR + 8..].as_mut_ptr(), c[2 * j + 1]) };
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use core::arch::aarch64::{
        float32x4_t, float64x2_t, vdupq_n_f32, vdupq_n_f64, vfmaq_f32, vfmaq_f64, vld1q_f32,
        vld1q_f64, vst1q_f32, vst1q_f64,
    };

    /// NEON `8x4` f64 register tile: sixteen 2-lane accumulators (rows
    /// split into four Q-register halves, one quartet per column).
    ///
    /// # Safety
    /// The caller must be running on a target with the `neon` target
    /// feature (baseline on every supported aarch64 target).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn micro_8x4_neon(
        kc: usize,
        astrip: &[f64],
        bstrip: &[f64],
        acc: &mut [f64],
    ) {
        const MR: usize = 8;
        const NR: usize = 4;
        assert!(astrip.len() >= kc * MR);
        assert!(bstrip.len() >= kc * NR);
        assert_eq!(acc.len(), MR * NR);
        let mut c: [float64x2_t; 4 * NR] = [vdupq_n_f64(0.0); 4 * NR];
        for p in 0..kc {
            let arow = &astrip[p * MR..p * MR + MR];
            let mut a = [vdupq_n_f64(0.0); 4];
            for (h, slot) in a.iter_mut().enumerate() {
                // SAFETY: neon — lanes 2h..2h+2 of the 8-tall packed strip.
                *slot = unsafe { vld1q_f64(arow[2 * h..].as_ptr()) };
            }
            let brow = &bstrip[p * NR..p * NR + NR];
            for j in 0..NR {
                let bj = vdupq_n_f64(brow[j]);
                for h in 0..4 {
                    c[4 * j + h] = vfmaq_f64(c[4 * j + h], a[h], bj);
                }
            }
        }
        for j in 0..NR {
            for h in 0..4 {
                // SAFETY: neon — `acc[j*MR + 2h..]` has 2 writable lanes
                // inside the MR*NR accumulator (length asserted above).
                unsafe { vst1q_f64(acc[j * MR + 2 * h..].as_mut_ptr(), c[4 * j + h]) };
            }
        }
    }

    /// NEON `8x4` f32 register tile: eight 4-lane accumulators (rows split
    /// into two Q-register halves, one pair per column) — the same loop
    /// structure as the f64 tile at twice the lane width.
    ///
    /// # Safety
    /// The caller must be running on a target with the `neon` target
    /// feature (baseline on every supported aarch64 target).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn micro_8x4_neon_f32(
        kc: usize,
        astrip: &[f32],
        bstrip: &[f32],
        acc: &mut [f32],
    ) {
        const MR: usize = 8;
        const NR: usize = 4;
        assert!(astrip.len() >= kc * MR);
        assert!(bstrip.len() >= kc * NR);
        assert_eq!(acc.len(), MR * NR);
        let mut c: [float32x4_t; 2 * NR] = [vdupq_n_f32(0.0); 2 * NR];
        for p in 0..kc {
            let arow = &astrip[p * MR..p * MR + MR];
            // SAFETY: neon — lanes 0..4 of the 8-tall packed strip.
            let a0 = unsafe { vld1q_f32(arow.as_ptr()) };
            // SAFETY: neon — lanes 4..8 of the same strip.
            let a1 = unsafe { vld1q_f32(arow[4..].as_ptr()) };
            let brow = &bstrip[p * NR..p * NR + NR];
            for j in 0..NR {
                let bj = vdupq_n_f32(brow[j]);
                c[2 * j] = vfmaq_f32(c[2 * j], a0, bj);
                c[2 * j + 1] = vfmaq_f32(c[2 * j + 1], a1, bj);
            }
        }
        for j in 0..NR {
            // SAFETY: neon — `acc[j*MR..]` has 4 writable lanes inside the
            // MR*NR accumulator (length asserted above).
            unsafe { vst1q_f32(acc[j * MR..].as_mut_ptr(), c[2 * j]) };
            // SAFETY: neon — second half of column j, inside MR*NR.
            unsafe { vst1q_f32(acc[j * MR + 4..].as_mut_ptr(), c[2 * j + 1]) };
        }
    }
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// The process-wide kernel, resolved on first use from `RHPL_KERNEL`
/// (`scalar` | `simd` | `auto`; unset means `auto`). An unrecognized value
/// is a configuration error: the process fails fast with the offending
/// value rather than silently benchmarking a kernel nobody asked for (the
/// CLI validates `RHPL_KERNEL` pre-flight and turns the same message into
/// a clean exit).
pub fn active() -> Kernel {
    *ACTIVE.get_or_init(|| Kernel::resolve(sel_from_env()))
}

/// Overrides the process-wide kernel (e.g. from `rhpl --kernel`). Must run
/// before the first [`active`] call to take effect — the kernel freezes at
/// first use so one run never mixes accumulation semantics. Returns the
/// kernel actually in effect.
pub fn select(sel: KernelSel) -> Kernel {
    *ACTIVE.get_or_init(|| Kernel::resolve(sel))
}

fn sel_from_env() -> KernelSel {
    match std::env::var("RHPL_KERNEL") {
        Ok(v) => match v.parse() {
            Ok(sel) => sel,
            // xtask-allow: no-panic — config fail-fast (the CLI validates pre-flight; a library entry must not silently fall back to a different kernel)
            Err(()) => panic!("invalid RHPL_KERNEL={v:?}: expected one of auto, scalar, simd"),
        },
        Err(_) => KernelSel::Auto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sel_parses_known_names_only() {
        assert_eq!("scalar".parse(), Ok(KernelSel::Scalar));
        assert_eq!("simd".parse(), Ok(KernelSel::Simd));
        assert_eq!("auto".parse(), Ok(KernelSel::Auto));
        assert_eq!("AVX".parse::<KernelSel>(), Err(()));
        assert_eq!("".parse::<KernelSel>(), Err(()));
    }

    #[test]
    fn scalar_resolution_never_depends_on_hardware() {
        let k = Kernel::resolve(KernelSel::Scalar);
        assert_eq!(k.kind(), KernelKind::Scalar);
        assert_eq!((k.mr(), k.nr()), (8, 4));
        assert_eq!((k.mr_for::<f32>(), k.nr_for::<f32>()), (8, 4));
        assert_eq!(k.name(), "scalar");
    }

    #[test]
    fn simd_request_falls_back_cleanly() {
        // On hardware without a simd kernel the request resolves to scalar;
        // with one, shapes must fit the shared accumulator.
        let k = Kernel::resolve(KernelSel::Simd);
        assert!(k.mr() * k.nr() <= MAX_TILE);
        assert!(k.mr_for::<f32>() * k.nr_for::<f32>() <= MAX_TILE);
        match Kernel::simd() {
            Some(s) => assert_eq!(k, s),
            None => assert_eq!(k, Kernel::scalar()),
        }
    }

    #[test]
    fn micro_tiles_agree_with_reference_sum() {
        // Both kernels must compute the exact dot products on small integer
        // data (no rounding at these magnitudes, so scalar == simd here).
        for kern in [Kernel::scalar()]
            .into_iter()
            .chain(Kernel::simd())
            .collect::<Vec<_>>()
        {
            let (mr, nr, kc) = (kern.mr(), kern.nr(), 7usize);
            let a: Vec<f64> = (0..kc * mr).map(|x| ((x % 11) as f64) - 5.0).collect();
            let b: Vec<f64> = (0..kc * nr).map(|x| ((x % 7) as f64) - 3.0).collect();
            let mut acc = vec![0.0f64; mr * nr];
            kern.micro(kc, &a, &b, &mut acc);
            for j in 0..nr {
                for i in 0..mr {
                    let want: f64 = (0..kc).map(|p| a[p * mr + i] * b[p * nr + j]).sum();
                    assert_eq!(acc[j * mr + i], want, "kernel {} ({i},{j})", kern.name());
                }
            }
        }
    }

    #[test]
    fn f32_micro_tiles_agree_with_reference_sum() {
        for kern in [Kernel::scalar()]
            .into_iter()
            .chain(Kernel::simd())
            .collect::<Vec<_>>()
        {
            let (mr, nr) = (kern.mr_for::<f32>(), kern.nr_for::<f32>());
            let kc = 7usize;
            let a: Vec<f32> = (0..kc * mr).map(|x| ((x % 11) as f32) - 5.0).collect();
            let b: Vec<f32> = (0..kc * nr).map(|x| ((x % 7) as f32) - 3.0).collect();
            let mut acc = vec![0.0f32; mr * nr];
            kern.micro(kc, &a, &b, &mut acc);
            for j in 0..nr {
                for i in 0..mr {
                    let want: f32 = (0..kc).map(|p| a[p * mr + i] * b[p * nr + j]).sum();
                    assert_eq!(acc[j * mr + i], want, "kernel {} ({i},{j})", kern.name());
                }
            }
        }
    }
}
