//! Property tests for the GEMM kernels: across shapes straddling both
//! tiers' register-tile boundaries, all three layouts must be **bitwise**
//! equal to the straightforward scalar reference at the packed tier — the
//! determinism contract everything else (golden trajectories, thread
//! invariance) rests on — and within epsilon of it at the simd tier. A right
//! operand packed once ahead of time ([`PackedAbt`]) must reproduce the
//! on-the-fly `A·Bᵀ` call bitwise at its tier.

use embsr_tensor::kernels::{
    gemm_ab, gemm_abt, gemm_atb, reference_gemm_ab, reference_gemm_abt, reference_gemm_atb,
    with_tier, KernelTier, PackedAbt, MR, NR, SIMD_MR, SIMD_NR,
};
use embsr_tensor::{Rng, Tensor};

const SEEDS: [u64; 3] = [11, 42, 1337];

/// Dimension values straddling the micro-kernel tile edges of both tiers
/// in the row (MR, SIMD_MR) and column (NR, SIMD_NR) direction.
fn probe_sizes() -> Vec<usize> {
    let mut s = vec![
        1,
        MR - 1,
        MR,
        MR + 1,
        2 * MR + 3,
        NR - 1,
        NR,
        NR + 1,
        2 * NR + 3,
        SIMD_NR - 1,
        SIMD_NR,
        SIMD_NR + 1,
    ];
    s.sort_unstable();
    s.dedup();
    s
}

fn sample(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
}

fn assert_bitwise(packed: &[f32], reference: &[f32], ctx: &str) {
    assert_eq!(packed.len(), reference.len(), "{ctx}: length mismatch");
    for (i, (p, r)) in packed.iter().zip(reference).enumerate() {
        assert_eq!(
            p.to_bits(),
            r.to_bits(),
            "{ctx}: element {i} differs: packed {p} vs reference {r}"
        );
    }
}

#[test]
fn gemm_ab_bitwise_equals_reference_across_tile_boundaries() {
    let sizes = probe_sizes();
    for &seed in &SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for &m in &sizes {
            for &k in &sizes {
                for &n in &sizes {
                    let a = sample(&mut rng, m * k);
                    let b = sample(&mut rng, k * n);
                    // Non-zero initial C also exercises the += contract.
                    let init = sample(&mut rng, m * n);
                    let mut packed = init.clone();
                    let mut reference = init;
                    gemm_ab(&a, &b, &mut packed, m, k, n);
                    reference_gemm_ab(&a, &b, &mut reference, m, k, n);
                    assert_bitwise(&packed, &reference, &format!("ab seed={seed} {m}x{k}x{n}"));
                }
            }
        }
    }
}

#[test]
fn gemm_atb_bitwise_equals_reference_across_tile_boundaries() {
    let sizes = probe_sizes();
    for &seed in &SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for &m in &sizes {
            for &k in &sizes {
                for &n in &sizes {
                    let a = sample(&mut rng, k * m); // stored [k, m]
                    let b = sample(&mut rng, k * n);
                    let init = sample(&mut rng, m * n);
                    let mut packed = init.clone();
                    let mut reference = init;
                    gemm_atb(&a, &b, &mut packed, k, m, n);
                    reference_gemm_atb(&a, &b, &mut reference, k, m, n);
                    assert_bitwise(
                        &packed,
                        &reference,
                        &format!("atb seed={seed} {k}x{m}x{n}"),
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_abt_bitwise_equals_reference_across_tile_boundaries() {
    let sizes = probe_sizes();
    for &seed in &SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for &m in &sizes {
            for &n in &sizes {
                for &kb in &sizes {
                    let a = sample(&mut rng, m * n);
                    let b = sample(&mut rng, kb * n); // stored [kb, n]
                    let init = sample(&mut rng, m * kb);
                    let mut packed = init.clone();
                    let mut reference = init;
                    gemm_abt(&a, &b, &mut packed, m, n, kb);
                    reference_gemm_abt(&a, &b, &mut reference, m, n, kb);
                    assert_bitwise(
                        &packed,
                        &reference,
                        &format!("abt seed={seed} {m}x{n}x{kb}"),
                    );
                }
            }
        }
    }
}

/// A GEMM entry point or its scalar reference, in the entry point's own
/// argument order.
type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Runs `gemm` at the simd tier and `reference` on the same operands, both
/// accumulating into `init`, and asserts the simd tier's contract: every
/// element within `max(1e-4, 1e-5·|ref|)` of the reference (FMA rounds once
/// per update where the reference rounds twice).
fn assert_simd_within_epsilon(
    (gemm, reference): (Gemm, Gemm),
    lhs: &[f32],
    rhs: &[f32],
    [d0, d1, d2]: [usize; 3],
    init: &[f32],
    ctx: &str,
) {
    let mut simd = init.to_vec();
    let mut want = init.to_vec();
    with_tier(KernelTier::Simd, || gemm(lhs, rhs, &mut simd, d0, d1, d2));
    reference(lhs, rhs, &mut want, d0, d1, d2);
    for (i, (s, r)) in simd.iter().zip(&want).enumerate() {
        let tol = 1e-4_f32.max(r.abs() * 1e-5);
        assert!(
            (s - r).abs() <= tol,
            "{ctx}: element {i} differs: simd {s} vs reference {r}"
        );
    }
}

#[test]
fn simd_gemm_within_epsilon_of_reference_across_tile_boundaries() {
    let sizes = probe_sizes();
    for &seed in &SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for &m in &sizes {
            for &r in &sizes {
                for &n in &sizes {
                    let a = sample(&mut rng, m * r);
                    let at = sample(&mut rng, r * m); // Aᵀ·B's A, stored [r, m]
                    let b = sample(&mut rng, r * n);
                    let bt = sample(&mut rng, n * r); // A·Bᵀ's B, stored [n, r]
                    let init = sample(&mut rng, m * n);
                    let ctx = |name| format!("simd {name} seed={seed} {m}x{r}x{n}");
                    let ab = (gemm_ab as Gemm, reference_gemm_ab as Gemm);
                    assert_simd_within_epsilon(ab, &a, &b, [m, r, n], &init, &ctx("ab"));
                    let atb = (gemm_atb as Gemm, reference_gemm_atb as Gemm);
                    assert_simd_within_epsilon(atb, &at, &b, [r, m, n], &init, &ctx("atb"));
                    let abt = (gemm_abt as Gemm, reference_gemm_abt as Gemm);
                    assert_simd_within_epsilon(abt, &a, &bt, [m, r, n], &init, &ctx("abt"));
                }
            }
        }
    }
}

#[test]
fn packed_kernel_handles_zero_rows_in_reduction() {
    // Degenerate reduction length: C must stay exactly as initialized.
    let a: Vec<f32> = Vec::new();
    let b: Vec<f32> = Vec::new();
    let mut out = vec![3.5f32; 4];
    gemm_ab(&a, &b, &mut out, 2, 0, 2);
    assert_eq!(out, vec![3.5; 4]);
}

/// Output widths straddling both tiers' column tiles, including a
/// serving-shaped item table.
fn prepacked_widths() -> Vec<usize> {
    let mut s = vec![
        1,
        NR - 1,
        NR + 1,
        2 * NR + 3,
        SIMD_NR - 1,
        SIMD_NR + 1,
        3 * SIMD_NR + 5,
        1000,
    ];
    s.sort_unstable();
    s.dedup();
    s
}

#[test]
fn prepacked_abt_bitwise_equals_on_the_fly_abt_at_each_tier() {
    // Batch sizes straddle both row tiles; reductions include the
    // serving repr widths (d = 16, 48).
    let batches = [1, MR - 1, MR + 1, SIMD_MR + 3, 9];
    let depths = [1, 3, 16, 48];
    for (tier, other) in [
        (KernelTier::Packed, KernelTier::Simd),
        (KernelTier::Simd, KernelTier::Packed),
    ] {
        for &seed in &SEEDS {
            let mut rng = Rng::seed_from_u64(seed);
            for &kb in &prepacked_widths() {
                for &n in &depths {
                    let b = sample(&mut rng, kb * n); // stored [kb, n]
                    let packed = PackedAbt::from_rows(kb, n, tier, |j, dst| {
                        dst.copy_from_slice(&b[j * n..(j + 1) * n])
                    });
                    assert_eq!(
                        (packed.tier(), packed.rows(), packed.depth()),
                        (tier, kb, n)
                    );
                    for &m in &batches {
                        let a = sample(&mut rng, m * n);
                        let init = sample(&mut rng, m * kb);
                        let mut prepacked = init.clone();
                        let mut on_the_fly = init;
                        // The packed operand runs its own tier whatever
                        // the calling thread's is.
                        with_tier(other, || packed.gemm(&a, &mut prepacked, m));
                        with_tier(tier, || gemm_abt(&a, &b, &mut on_the_fly, m, n, kb));
                        assert_bitwise(
                            &prepacked,
                            &on_the_fly,
                            &format!("prepacked {} seed={seed} {m}x{n}x{kb}", tier.name()),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn matmul_nt_packed_equals_matmul_nt_bitwise() {
    let mut rng = Rng::seed_from_u64(42);
    let (m, k, n) = (5, 48, 8192 + 7);
    let a = Tensor::from_vec(sample(&mut rng, m * k), &[m, k]);
    let b = Tensor::from_vec(sample(&mut rng, n * k), &[n, k]);
    for tier in [KernelTier::Packed, KernelTier::Simd] {
        let bd = b.to_vec();
        let packed = PackedAbt::from_rows(n, k, tier, |j, dst| {
            dst.copy_from_slice(&bd[j * k..(j + 1) * k])
        });
        let got = a.matmul_nt_packed(&packed);
        let want = with_tier(tier, || a.matmul_nt(&b));
        assert_eq!(got.shape().dims(), &[m, n]);
        assert_bitwise(
            &got.to_vec(),
            &want.to_vec(),
            &format!("matmul_nt {}", tier.name()),
        );
    }
}
