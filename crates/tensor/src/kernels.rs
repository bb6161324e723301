//! Packed, register-tiled GEMM micro-kernels and the vectorized serving tier.
//!
//! Every dense matrix product in the crate takes one path. An entry point
//! ([`gemm_ab`], [`gemm_atb`], [`gemm_abt`], or [`PackedAbt::gemm`] for a
//! right operand packed ahead of time) names its layout; the calling
//! thread's tier picks the micro-kernel, and the layout picks the packers.
//! The two micro-kernel shapes are an [`MR`]×[`NR`] register tile
//! accumulated over the full reduction dimension before a single store (the
//! **packed** tier, bitwise-pinned to the scalar reference) and a wider
//! [`SIMD_MR`]×[`SIMD_NR`] lane-shaped tile using fused multiply-add (the
//! **simd** tier, epsilon-equivalent). The three layouts (`A·B`, `Aᵀ·B`,
//! `A·Bᵀ`) differ only in how operands are *packed* into contiguous panels,
//! never in how they are *accumulated*:
//!
//! * The B operand is packed once per call into `[reduction][tile-width]`
//!   panels (zero-padded at the right edge) so the inner loop reads one
//!   contiguous cache line per step — or once ahead of time, for an `A·Bᵀ`
//!   operand that many calls share (`PackedAbt`: the serving item table).
//! * The A operand is packed per row-strip into `[reduction][tile-height]`
//!   strips (transposed where needed) so all tile rows load contiguously.
//! * Each accumulator starts at `+0.0` and adds the products `a[i][p]·b[p][j]`
//!   for `p = 0, 1, …, R−1` **strictly in order**, then is added into the
//!   output exactly once.
//!
//! # Kernel tiers and their equivalence contracts
//!
//! | tier     | inner loop                    | contract vs scalar reference |
//! |----------|-------------------------------|------------------------------|
//! | `packed` | `MR×NR` tile, `a*b` then `+`  | bitwise-equal                |
//! | `simd`   | `SIMD_MR×SIMD_NR` tile, FMA   | epsilon-bounded              |
//!
//! The scalar reference loops ([`reference_gemm_ab`], [`reference_gemm_atb`],
//! [`reference_gemm_abt`]) are the oracle, not a tier: the tests and the
//! kernel bench compare both tiers against them.
//!
//! The packed tier never uses FMA contraction, so every output element sees
//! the same addition chain as the reference, bitwise, regardless of blocking
//! (`tests/kernel_equivalence.rs` asserts this across edge shapes). This
//! preserves the data-parallel trainer's bitwise thread-invariance
//! guarantee: replica math is a pure function of the batch.
//!
//! The simd tier trades that pin for throughput: accumulators are kept in
//! `[f32; SIMD_NR]` lane arrays the compiler autovectorizes (the crate builds
//! with `target-cpu=native`, see `.cargo/config.toml`), and each lane update
//! is a [`f32::mul_add`] that lowers to one hardware FMA instruction. FMA
//! rounds once instead of twice, so simd results differ from the reference
//! chain by a bounded epsilon — but they are still *deterministic*: IEEE-754
//! defines FMA exactly, and the source fixes the accumulation order, so any
//! two FMA-capable hosts produce identical bits. Everything stays safe Rust
//! — the `no-unsafe-ratchet` lint keeps the crate at zero `unsafe` — with
//! explicit `std::arch` intrinsics documented as future work if
//! autovectorization ever stops clearing the bench gates.
//!
//! Tier selection is a thread-local ([`with_tier`]/[`active_tier`]) that
//! **defaults to [`KernelTier::Packed`]**, so training and its golden
//! trajectory never change; only serving entry points (`FrozenModel`, the
//! engine workers, the net replicas) opt into the simd tier. The tier is
//! deliberately *not* keyed on `inference_mode`: the trainer's evaluation
//! loop also runs under `inference_mode` and must stay bitwise.
//!
//! When [`embsr_obs::profile`] is enabled, every entry point records
//! shape-bucketed timings under a tier-tagged site (`gemm_ab[packed]`,
//! `gemm_ab[simd]`, …, `gemm_abt_prepacked[simd]`) so busiest-first reports
//! attribute time per kernel tier. The hook only reads a clock around the
//! unchanged body — one relaxed atomic load when profiling is off, and never
//! a change to the accumulation order either way.
//!
// The module also has outer docs, so rustdoc resolves these links from the
// parent module; each names its target by full path.
//! [`MR`]: crate::kernels::MR
//! [`NR`]: crate::kernels::NR
//! [`SIMD_MR`]: crate::kernels::SIMD_MR
//! [`SIMD_NR`]: crate::kernels::SIMD_NR
//! [`gemm_ab`]: crate::kernels::gemm_ab
//! [`gemm_atb`]: crate::kernels::gemm_atb
//! [`gemm_abt`]: crate::kernels::gemm_abt
//! [`PackedAbt::gemm`]: crate::kernels::PackedAbt::gemm
//! [`reference_gemm_ab`]: crate::kernels::reference_gemm_ab
//! [`reference_gemm_atb`]: crate::kernels::reference_gemm_atb
//! [`reference_gemm_abt`]: crate::kernels::reference_gemm_abt
//! [`with_tier`]: crate::kernels::with_tier
//! [`active_tier`]: crate::kernels::active_tier
//! [`KernelTier::Packed`]: crate::kernels::KernelTier::Packed

use std::cell::Cell;

use crate::pool;

/// Register-tile height: rows of C accumulated per micro-kernel invocation.
pub const MR: usize = 4;

/// Register-tile width: columns of C accumulated per micro-kernel invocation.
/// Eight `f32` lanes fill one 256-bit vector register.
pub const NR: usize = 8;

/// Simd-tier register-tile height.
pub const SIMD_MR: usize = 4;

/// Simd-tier register-tile width: 32 `f32` lanes span two 512-bit (or four
/// 256-bit) vector registers per C row, wide enough to hide FMA latency.
pub const SIMD_NR: usize = 32;

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

/// Which micro-kernel the GEMM entry points ([`gemm_ab`]/[`gemm_atb`]/
/// [`gemm_abt`]) run on the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelTier {
    /// Packed register-tiled kernels, bitwise-equal to the scalar reference
    /// ([`reference_gemm_ab`] and its siblings). The default — all training
    /// runs here.
    Packed,
    /// Lane-shaped FMA kernels, epsilon-equivalent to the reference.
    /// Serving-only.
    Simd,
}

impl KernelTier {
    /// Stable lower-case name, used in profile sites, manifests and benches.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Packed => "packed",
            KernelTier::Simd => "simd",
        }
    }

    /// Parses a tier name as produced by [`KernelTier::name`].
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s {
            "packed" => Some(KernelTier::Packed),
            "simd" => Some(KernelTier::Simd),
            _ => None,
        }
    }
}

thread_local! {
    static TIER: Cell<KernelTier> = const { Cell::new(KernelTier::Packed) };
}

/// RAII restorer so the tier survives panics and nests correctly.
struct RestoreTier(KernelTier);

impl Drop for RestoreTier {
    fn drop(&mut self) {
        let _ = TIER.try_with(|t| t.set(self.0));
    }
}

/// Runs `f` with the GEMM entry points routed to `tier` on the calling
/// thread. Nested calls are fine; the previous tier is restored (even on
/// panic) when the scope exits.
pub fn with_tier<R>(tier: KernelTier, f: impl FnOnce() -> R) -> R {
    let prev = TIER.with(|t| t.replace(tier));
    let _restore = RestoreTier(prev);
    f()
}

/// The tier the calling thread currently dispatches to
/// ([`KernelTier::Packed`] unless inside [`with_tier`]).
pub fn active_tier() -> KernelTier {
    TIER.try_with(Cell::get).unwrap_or(KernelTier::Packed)
}

/// Effective `f32` SIMD lane width the crate was compiled for, recorded in
/// run manifests so results are attributable to the vector ISA in use.
pub fn simd_lanes() -> usize {
    if cfg!(target_feature = "avx512f") {
        16
    } else if cfg!(target_feature = "avx") {
        8
    } else if cfg!(any(target_feature = "sse2", target_feature = "neon")) {
        4
    } else {
        1
    }
}

/// True when [`f32::mul_add`] lowers to a single hardware instruction on
/// this build. Without it the simd tier falls back to `a*b + c` (two
/// roundings) rather than paying for a ~15× slower soft-float fused multiply.
pub fn has_hardware_fma() -> bool {
    cfg!(any(target_feature = "fma", target_feature = "neon"))
}

/// One lane update of the simd tier. The branch is a compile-time constant,
/// so this folds to either a hardware FMA or a plain multiply-add.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(any(target_feature = "fma", target_feature = "neon")) {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

// ---------------------------------------------------------------------------
// Micro-kernels
// ---------------------------------------------------------------------------

/// The packed-tier innermost tile: `MR` rows × `NR` columns of C held in
/// registers while the entire reduction dimension streams through. `apack` is
/// `[k][MR]`, `bpack` is `[k][NR]`; both are fully packed so every load is
/// contiguous. With `MR`/`NR` constant the two inner loops unroll completely
/// and the `jj` loop vectorizes; the `p` loop stays strictly sequential per
/// accumulator, and products are written `a * b` followed by `+` — no FMA
/// contraction — so the chain matches the scalar reference bitwise.
#[inline(always)]
fn microkernel(apack: &[f32], bpack: &[f32], k: usize, acc: &mut [[f32; NR]; MR]) {
    debug_assert!(apack.len() >= k * MR);
    debug_assert!(bpack.len() >= k * NR);
    for p in 0..k {
        let ab = &apack[p * MR..p * MR + MR];
        let bb = &bpack[p * NR..p * NR + NR];
        for ii in 0..MR {
            let av = ab[ii];
            let row = &mut acc[ii];
            for jj in 0..NR {
                row[jj] += av * bb[jj];
            }
        }
    }
}

/// The simd-tier innermost tile: same structure as [`microkernel`] but with
/// `SIMD_NR`-wide lane rows updated through [`fmadd`]. The reduction order is
/// still fixed by the source, so the result is deterministic on any given
/// build; only the single-rounding FMA separates it from the reference chain
/// (epsilon-bounded, asserted in tests).
///
/// `inline(never)`: every layout must run the *same* machine code. Inlined
/// into each layout's compute pass, the copies optimize separately and some
/// spill the accumulator tile mid-reduction — measured as a ~1.5×
/// throughput spread between layouts with identical logical work. One
/// out-of-line copy costs a call per tile (one per ~16K FMAs) and pins the
/// register allocation for all callers.
#[inline(never)]
fn microkernel_simd(apack: &[f32], bpack: &[f32], k: usize, acc: &mut [[f32; SIMD_NR]; SIMD_MR]) {
    debug_assert!(apack.len() >= k * SIMD_MR);
    debug_assert!(bpack.len() >= k * SIMD_NR);
    // Accumulate into a local tile and iterate with `chunks_exact` instead of
    // indexed slicing: with no panic edge inside the loop and no observable
    // `&mut` memory, the accumulator stays in vector registers for the whole
    // reduction and is stored exactly once. The indexed form forced a store
    // after *every* FMA (the unwind path keeps `acc` memory current), which
    // halved throughput.
    let mut local = *acc;
    for (ab, bb) in apack
        .chunks_exact(SIMD_MR)
        .zip(bpack.chunks_exact(SIMD_NR))
        .take(k)
    {
        for (ii, row) in local.iter_mut().enumerate() {
            let av = ab[ii];
            for (c, &bv) in row.iter_mut().zip(bb) {
                *c = fmadd(av, bv, *c);
            }
        }
    }
    *acc = local;
}

// ---------------------------------------------------------------------------
// Packing helpers (shared by both tiers; only the tile stride differs)
// ---------------------------------------------------------------------------

/// The operand layout of a product `C[m,n] += Â[m,r] · B̂[r,n]`. It picks
/// the packers — how each operand is read into panels — and nothing else:
/// every layout runs the same compute pass.
#[derive(Clone, Copy)]
enum Layout {
    /// `A` stored `[m, r]`, `B` stored `[r, n]`.
    Ab,
    /// `A` stored `[r, m]` (read transposed), `B` stored `[r, n]`.
    Atb,
    /// `A` stored `[m, r]`, `B` stored `[n, r]` (read transposed).
    Abt,
}

impl Layout {
    /// Profile sites of this layout's entry point at the packed and simd
    /// tiers.
    fn sites(self) -> [&'static str; 2] {
        match self {
            Layout::Ab => ["gemm_ab[packed]", "gemm_ab[simd]"],
            Layout::Atb => ["gemm_atb[packed]", "gemm_atb[simd]"],
            Layout::Abt => ["gemm_abt[packed]", "gemm_abt[simd]"],
        }
    }
}

/// Packs `w` columns starting at `j0` of row-major `b[r × n]` into a
/// `[r][tn]` panel. Lanes `w..tn` are left untouched — panels come from
/// `pool::take_zeroed`, so the right edge is already zero.
fn pack_b_rowmajor(dst: &mut [f32], b: &[f32], r: usize, n: usize, j0: usize, w: usize, tn: usize) {
    for p in 0..r {
        dst[p * tn..p * tn + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
    }
}

/// Packs `w` *rows* `j0..j0+w` of `b[kb × r]` transposed into a `[r][tn]`
/// panel (the `A·Bᵀ` layout's B). Iterates destination-contiguous (`p`
/// outer, so writes stream and their bounds checks fold into the chunk
/// length): packing is pure data movement, but with the micro-kernel shared
/// across layouts it was the strided scatter-writes here that separated
/// `A·Bᵀ` from `Aᵀ·B` throughput.
fn pack_b_transposed(dst: &mut [f32], b: &[f32], r: usize, j0: usize, w: usize, tn: usize) {
    for (p, chunk) in dst.chunks_exact_mut(tn).take(r).enumerate() {
        for (jj, c) in chunk[..w].iter_mut().enumerate() {
            *c = b[(j0 + jj) * r + p];
        }
    }
}

/// Packs rows `i0..i0+mr` of row-major `a[m × r]` into a `[r][tm]` strip,
/// zero-filling lanes `mr..tm` (the strip buffer is reused across strips).
/// Destination-contiguous like [`pack_b_transposed`], for the same reason.
fn pack_a_rowmajor(dst: &mut [f32], a: &[f32], r: usize, i0: usize, mr: usize, tm: usize) {
    for (p, chunk) in dst.chunks_exact_mut(tm).take(r).enumerate() {
        for (ii, c) in chunk[..mr].iter_mut().enumerate() {
            *c = a[(i0 + ii) * r + p];
        }
        for c in chunk[mr..].iter_mut() {
            *c = 0.0;
        }
    }
}

/// Packs columns `i0..i0+mr` of `a[r × m]` (the `Aᵀ·B` layout's transposed
/// A) into a `[r][tm]` strip, zero-filling lanes `mr..tm`.
fn pack_a_colmajor(
    dst: &mut [f32],
    a: &[f32],
    r: usize,
    m: usize,
    i0: usize,
    mr: usize,
    tm: usize,
) {
    for p in 0..r {
        dst[p * tm..p * tm + mr].copy_from_slice(&a[p * m + i0..p * m + i0 + mr]);
        for ii in mr..tm {
            dst[p * tm + ii] = 0.0;
        }
    }
}

/// The B-panel packing step of [`tiled_gemm`]: fills `bpack` with
/// `n.div_ceil(TN)` panels of `[r][TN]`, panel `p` covering output columns
/// `p·TN ..` via `pack_b_panel(dst, j0, w)`. `bpack` must arrive zeroed so
/// the right edge of the last panel stays zero.
#[inline(always)]
fn pack_b_panels<const TN: usize>(
    bpack: &mut [f32],
    r: usize,
    n: usize,
    mut pack_b_panel: impl FnMut(&mut [f32], usize, usize),
) {
    let panels = n.div_ceil(TN);
    debug_assert_eq!(bpack.len(), panels * r * TN);
    for panel in 0..panels {
        let j0 = panel * TN;
        let w = TN.min(n - j0);
        pack_b_panel(&mut bpack[panel * r * TN..(panel + 1) * r * TN], j0, w);
    }
}

/// The compute pass of [`tiled_gemm`] over B panels laid out by
/// [`pack_b_panels`]: `out[M,N] += Σ_p Â[i,p]·B̂[p,j]` with reduction length
/// `r`. `pack_a_strip` materializes each `Â` row-strip from whatever layout
/// the caller has, and `TM`/`TN` select the tile shape. Row/column blocking
/// lives here and is free to change; the reduction is never split, so the
/// accumulation chain is whatever the micro-kernel does — bitwise-pinned
/// for [`microkernel`], epsilon-bounded for [`microkernel_simd`].
#[inline(always)]
fn gemm_on_panels<const TM: usize, const TN: usize>(
    out: &mut [f32],
    m: usize,
    r: usize,
    n: usize,
    bpack: &[f32],
    pack_a_strip: &dyn Fn(&mut [f32], usize, usize),
    kernel: impl Fn(&[f32], &[f32], usize, &mut [[f32; TN]; TM]),
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || r == 0 {
        return;
    }
    let panels = n.div_ceil(TN);
    let mut apack = pool::take_zeroed(r * TM);
    let mut i0 = 0;
    while i0 < m {
        let mr = TM.min(m - i0);
        pack_a_strip(&mut apack, i0, mr);
        for panel in 0..panels {
            let j0 = panel * TN;
            let w = TN.min(n - j0);
            let bp = &bpack[panel * r * TN..(panel + 1) * r * TN];
            let mut acc = [[0.0f32; TN]; TM];
            kernel(&apack, bp, r, &mut acc);
            for ii in 0..mr {
                let crow = &mut out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + w];
                for (c, &v) in crow.iter_mut().zip(acc[ii].iter()) {
                    *c += v;
                }
            }
        }
        i0 += TM;
    }
    pool::give(apack);
}

/// Runs every layout at both tiers: `layout` picks the B-panel packer
/// (`Abt` transposes B) and the A-strip packer (`Atb` transposes A), B is
/// packed into pooled panels ([`pack_b_panels`]), and one compute pass runs
/// over them ([`gemm_on_panels`]). [`PackedAbt`] runs the same two steps
/// with the packing done once ahead of time.
///
/// The packers go to the compute pass as `&dyn` closures. Inlined into one
/// body that branches on the layout, the packing and store loops ran
/// measurably slower: simd `A·B` at d=32–64 lost about a quarter of its
/// throughput on a 2-core AVX-512 VM.
#[allow(clippy::too_many_arguments)] // layout, A, B, C, three dims and the tile kernel
fn tiled_gemm<const TM: usize, const TN: usize>(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    r: usize,
    n: usize,
    kernel: impl Fn(&[f32], &[f32], usize, &mut [[f32; TN]; TM]),
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || r == 0 {
        return;
    }
    let pack_b_panel: &dyn Fn(&mut [f32], usize, usize) = match layout {
        Layout::Abt => &|dst, j0, w| pack_b_transposed(dst, b, r, j0, w, TN),
        Layout::Ab | Layout::Atb => &|dst, j0, w| pack_b_rowmajor(dst, b, r, n, j0, w, TN),
    };
    let pack_a_strip: &dyn Fn(&mut [f32], usize, usize) = match layout {
        Layout::Atb => &|dst, i0, mr| pack_a_colmajor(dst, a, r, m, i0, mr, TM),
        Layout::Ab | Layout::Abt => &|dst, i0, mr| pack_a_rowmajor(dst, a, r, i0, mr, TM),
    };
    let mut bpack = pool::take_zeroed(n.div_ceil(TN) * r * TN);
    pack_b_panels::<TN>(&mut bpack, r, n, pack_b_panel);
    gemm_on_panels::<TM, TN>(out, m, r, n, &bpack, pack_a_strip, kernel);
    pool::give(bpack);
}

/// Runs `f`, a product of `m` output rows, reduction length `r` and `n`
/// output columns, and records its time under `site` when
/// [`embsr_obs::profile`] is enabled. Timing only: `f` runs unchanged, so the
/// equivalence suites hold with profiling on or off.
#[inline(always)]
fn profiled(site: &'static str, m: usize, r: usize, n: usize, f: impl FnOnce()) {
    let watch = embsr_obs::profile::enabled().then(embsr_obs::Stopwatch::start);
    f();
    if let Some(w) = watch {
        embsr_obs::profile::record(site, m, r, n, w.elapsed_us(), (2 * m * r * n) as u64);
    }
}

/// `C[m,n] += Â[m,r] · B̂[r,n]` for `layout` on the [`active_tier`] kernel.
fn gemm(layout: Layout, a: &[f32], b: &[f32], out: &mut [f32], m: usize, r: usize, n: usize) {
    let [packed_site, simd_site] = layout.sites();
    match active_tier() {
        KernelTier::Packed => profiled(packed_site, m, r, n, || {
            tiled_gemm::<MR, NR>(layout, a, b, out, m, r, n, microkernel)
        }),
        KernelTier::Simd => profiled(simd_site, m, r, n, || {
            tiled_gemm::<SIMD_MR, SIMD_NR>(layout, a, b, out, m, r, n, microkernel_simd)
        }),
    }
}

// ---------------------------------------------------------------------------
// Entry points (what the graph ops call)
// ---------------------------------------------------------------------------

/// `C[m,n] += A[m,k] · B[k,n]` via the [`active_tier`] kernel.
pub fn gemm_ab(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm(Layout::Ab, a, b, out, m, k, n);
}

/// `C[m,n] += Aᵀ · B[k,n]` (`a` stored `[k, m]`) via the [`active_tier`]
/// kernel.
pub fn gemm_atb(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm(Layout::Atb, a, b, out, m, k, n);
}

/// `C[m,kb] += A[m,n] · Bᵀ` (`b` stored `[kb, n]`, reduction over `n`) via
/// the [`active_tier`] kernel. Transpose-packing B runs the same `NR`-lane
/// tile as the other layouts.
pub fn gemm_abt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, kb: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(b.len(), kb * n);
    gemm(Layout::Abt, a, b, out, m, n, kb);
}

// ---------------------------------------------------------------------------
// Prepacked right operand
// ---------------------------------------------------------------------------

/// The right operand of `C += A·Bᵀ`, packed once for one kernel tier.
///
/// [`gemm_abt`] transpose-packs `B` into panels on every call. When `B` is
/// fixed across many calls — a serving item table between weight swaps —
/// packing it once leaves each call only its own work: the A strips and the
/// micro-kernel. [`PackedAbt::gemm`] feeds the stored panels to the same
/// compute pass, in the same order, as [`gemm_abt`] at the stored tier, so
/// every output is **bitwise-equal** to the on-the-fly call at that tier
/// (`tests/kernel_equivalence.rs`).
///
/// The panels live in a plain heap buffer, outside the thread-local pool:
/// they are held for the operand's lifetime, not recycled per call. They
/// take `⌈rows/w⌉·w·depth` floats for the tier's tile width `w` ([`NR`] or
/// [`SIMD_NR`]), i.e. `rows·depth` when the width divides `rows`.
pub struct PackedAbt {
    tier: KernelTier,
    rows: usize,
    depth: usize,
    data: Vec<f32>,
}

impl PackedAbt {
    /// Packs the `[rows, depth]` operand `B` for `tier`. `B` is never read
    /// whole: `fill_row(j, dst)` writes row `j` into `dst` (`depth` floats)
    /// when its panel is packed, so a caller can pack a table derived from
    /// another — the row-normalized item table — without materializing it.
    pub fn from_rows(
        rows: usize,
        depth: usize,
        tier: KernelTier,
        mut fill_row: impl FnMut(usize, &mut [f32]),
    ) -> PackedAbt {
        let data = match tier {
            KernelTier::Packed => pack_rows_transposed::<NR>(rows, depth, &mut fill_row),
            KernelTier::Simd => pack_rows_transposed::<SIMD_NR>(rows, depth, &mut fill_row),
        };
        PackedAbt {
            tier,
            rows,
            depth,
            data,
        }
    }

    /// The tier the operand was packed for.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Rows of `B`: the output width of [`PackedAbt::gemm`].
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of `B`: the reduction length.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// `C[m,rows] += A[m,depth] · Bᵀ` on the stored operand, bitwise-equal
    /// to [`gemm_abt`] on the unpacked `B` at [`PackedAbt::tier`] — whatever
    /// tier the calling thread is on. Profiled under `gemm_abt_prepacked[…]`.
    pub fn gemm(&self, a: &[f32], out: &mut [f32], m: usize) {
        let (r, n) = (self.depth, self.rows);
        debug_assert_eq!(a.len(), m * r);
        debug_assert_eq!(out.len(), m * n);
        let panels = &self.data;
        match self.tier {
            KernelTier::Packed => profiled("gemm_abt_prepacked[packed]", m, r, n, || {
                let pack_a_strip = |dst: &mut [f32], i0, mr| pack_a_rowmajor(dst, a, r, i0, mr, MR);
                gemm_on_panels::<MR, NR>(out, m, r, n, panels, &pack_a_strip, microkernel)
            }),
            KernelTier::Simd => profiled("gemm_abt_prepacked[simd]", m, r, n, || {
                let pack_a_strip =
                    |dst: &mut [f32], i0, mr| pack_a_rowmajor(dst, a, r, i0, mr, SIMD_MR);
                gemm_on_panels::<SIMD_MR, SIMD_NR>(
                    out,
                    m,
                    r,
                    n,
                    panels,
                    &pack_a_strip,
                    microkernel_simd,
                )
            }),
        }
    }
}

/// [`pack_b_panels`] for the `A·Bᵀ` layout with `B` supplied row by row:
/// each panel's rows are written into a `[TN][depth]` scratch, then
/// transpose-packed exactly as [`gemm_abt`] packs them.
fn pack_rows_transposed<const TN: usize>(
    rows: usize,
    depth: usize,
    fill_row: &mut dyn FnMut(usize, &mut [f32]),
) -> Vec<f32> {
    let mut data = vec![0.0; rows.div_ceil(TN) * depth * TN];
    if depth == 0 {
        return data;
    }
    let mut scratch = vec![0.0; TN * depth];
    pack_b_panels::<TN>(&mut data, depth, rows, |dst, j0, w| {
        for (jj, row) in scratch.chunks_exact_mut(depth).take(w).enumerate() {
            fill_row(j0 + jj, row);
        }
        pack_b_transposed(dst, &scratch, depth, 0, w, TN);
    });
    data
}

// ---------------------------------------------------------------------------
// Scalar reference (the test oracle)
// ---------------------------------------------------------------------------

/// Straightforward scalar reference for [`gemm_ab`]: per output element, one
/// `+0.0`-seeded accumulator over `p` in ascending order, added into `out`
/// once. The packed tier must match this bitwise.
pub fn reference_gemm_ab(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] += acc;
        }
    }
}

/// Scalar reference for [`gemm_atb`] (`a` stored `[k, m]`).
pub fn reference_gemm_atb(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[p * m + i] * b[p * n + j];
            }
            out[i * n + j] += acc;
        }
    }
}

/// Scalar reference for [`gemm_abt`] (`b` stored `[kb, n]`, reduction over `n`).
pub fn reference_gemm_abt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, kb: usize) {
    for i in 0..m {
        for j in 0..kb {
            let mut acc = 0.0f32;
            for p in 0..n {
                acc += a[i * n + p] * b[j * n + p];
            }
            out[i * kb + j] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn rand_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect()
    }

    const EDGE_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 11),
        (13, 32, 17),
        (33, 16, 65),
    ];

    #[test]
    fn gemm_ab_matches_reference_bitwise() {
        let mut rng = Rng::seed_from_u64(42);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 11), (13, 32, 17)] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let mut packed = vec![0.0; m * n];
            let mut reference = vec![0.0; m * n];
            gemm_ab(&a, &b, &mut packed, m, k, n);
            reference_gemm_ab(&a, &b, &mut reference, m, k, n);
            let pb: Vec<u32> = packed.iter().map(|x| x.to_bits()).collect();
            let rb: Vec<u32> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(pb, rb, "gemm_ab diverged at ({m},{k},{n})");
        }
    }

    fn assert_rel_close(actual: &[f32], expected: &[f32], shape: (usize, usize, usize)) {
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            let tol = 1e-4_f32.max(e.abs() * 1e-5);
            assert!(
                (a - e).abs() <= tol,
                "simd diverged at {shape:?} element {i}: {a} vs {e}"
            );
        }
    }

    #[test]
    fn simd_tier_matches_reference_within_epsilon() {
        let mut rng = Rng::seed_from_u64(9);
        for &(m, k, n) in EDGE_SHAPES {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);

            let mut simd = vec![0.0; m * n];
            let mut reference = vec![0.0; m * n];
            with_tier(KernelTier::Simd, || gemm_ab(&a, &b, &mut simd, m, k, n));
            reference_gemm_ab(&a, &b, &mut reference, m, k, n);
            assert_rel_close(&simd, &reference, (m, k, n));

            // Aᵀ·B: a stored [k, m]
            let at = rand_vec(&mut rng, k * m);
            let mut simd = vec![0.0; m * n];
            let mut reference = vec![0.0; m * n];
            with_tier(KernelTier::Simd, || gemm_atb(&at, &b, &mut simd, k, m, n));
            reference_gemm_atb(&at, &b, &mut reference, k, m, n);
            assert_rel_close(&simd, &reference, (m, k, n));

            // A·Bᵀ: b stored [n_out, k_red]; reuse (m, k) as (m, red), n as kb
            let bt = rand_vec(&mut rng, n * k);
            let mut simd = vec![0.0; m * n];
            let mut reference = vec![0.0; m * n];
            with_tier(KernelTier::Simd, || gemm_abt(&a, &bt, &mut simd, m, k, n));
            reference_gemm_abt(&a, &bt, &mut reference, m, k, n);
            assert_rel_close(&simd, &reference, (m, k, n));
        }
    }

    #[test]
    fn simd_tier_is_deterministic_across_calls() {
        let mut rng = Rng::seed_from_u64(3);
        let (m, k, n) = (13, 32, 17);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let simd_ab =
            |out: &mut [f32]| with_tier(KernelTier::Simd, || gemm_ab(&a, &b, out, m, k, n));
        let mut first = vec![0.0; m * n];
        simd_ab(&mut first);
        for _ in 0..3 {
            let mut again = vec![0.0; m * n];
            simd_ab(&mut again);
            let fb: Vec<u32> = first.iter().map(|x| x.to_bits()).collect();
            let ab: Vec<u32> = again.iter().map(|x| x.to_bits()).collect();
            assert_eq!(fb, ab, "simd tier must be run-to-run deterministic");
        }
    }

    #[test]
    fn tier_dispatch_routes_and_restores() {
        assert_eq!(active_tier(), KernelTier::Packed, "training default");
        with_tier(KernelTier::Simd, || {
            assert_eq!(active_tier(), KernelTier::Simd);
            with_tier(KernelTier::Packed, || {
                assert_eq!(active_tier(), KernelTier::Packed);
            });
            assert_eq!(active_tier(), KernelTier::Simd, "nesting must restore");
        });
        assert_eq!(active_tier(), KernelTier::Packed);

        let result = std::panic::catch_unwind(|| {
            with_tier(KernelTier::Simd, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(active_tier(), KernelTier::Packed, "panic must restore");
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in [KernelTier::Packed, KernelTier::Simd] {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
        }
        // the scalar reference is the test oracle, not a runtime tier
        assert_eq!(KernelTier::parse("scalar"), None);
        assert_eq!(KernelTier::parse("avx999"), None);
        assert!(simd_lanes() >= 1);
    }
}
