//! Finite-difference gradient checks through whole layers.
//!
//! The unit tests inside each module verify shapes and qualitative behavior;
//! these tests verify the *calculus*: the analytic gradient of a scalar loss
//! through each composite layer matches central differences.

use embsr_nn::{
    Ffn, Forward, FusionGate, FusionMode, GgnnCell, Gru, Highway, OpAwareSelfAttention,
    StarAttention, StarGate,
};
use embsr_tensor::testing::check_gradient;
use embsr_tensor::{Rng, Tensor};

fn input(vals: &[f32], dims: &[usize]) -> Tensor {
    Tensor::from_vec(vals.to_vec(), dims).requires_grad()
}

#[test]
fn gru_full_sequence_gradcheck() {
    let gru = Gru::new(3, 3, &mut Rng::seed_from_u64(0));
    let x = input(&[0.1, -0.2, 0.3, 0.4, 0.0, -0.5], &[2, 3]);
    check_gradient(&x, |t| gru.last_state(t).square().sum(), 1e-3, 5e-2);
}

#[test]
fn ggnn_cell_gradcheck_wrt_aggregate() {
    let cell = GgnnCell::new(2, &mut Rng::seed_from_u64(1));
    let agg = input(&[0.3, -0.1, 0.2, 0.4], &[1, 4]);
    let prev = Tensor::from_vec(vec![0.5, -0.5], &[1, 2]);
    check_gradient(&agg, |a| cell.update(a, &prev).square().sum(), 1e-3, 5e-2);
}

#[test]
fn star_layers_gradcheck() {
    let mut rng = Rng::seed_from_u64(2);
    let gate = StarGate::new(2, &mut rng);
    let attn = StarAttention::new(2, &mut rng);
    let sats = input(&[0.2, 0.6, -0.4, 0.1], &[2, 2]);
    let star = Tensor::from_vec(vec![0.3, -0.2], &[2]);
    check_gradient(
        &sats,
        |s| {
            let gated = gate.propagate(s, &star);
            attn.attend(&gated, &star).square().sum()
        },
        1e-3,
        5e-2,
    );
}

#[test]
fn highway_gradcheck() {
    let hw = Highway::new(3, &mut Rng::seed_from_u64(3));
    let before = input(&[0.1, 0.5, -0.3], &[1, 3]);
    let after = Tensor::from_vec(vec![-0.2, 0.4, 0.7], &[1, 3]);
    check_gradient(&before, |b| hw.blend(b, &after).square().sum(), 1e-3, 5e-2);
}

#[test]
fn op_aware_attention_gradcheck() {
    let att = OpAwareSelfAttention::new(3, 2, 4, true, &mut Rng::seed_from_u64(4));
    let x = input(&[0.1, -0.2, 0.3, 0.0, 0.4, -0.1], &[2, 3]);
    check_gradient(&x, |t| att.attend(t, &[0, 1]).square().sum(), 1e-3, 8e-2);
}

#[test]
fn op_aware_attention_last_row_gradcheck() {
    for dyadic in [true, false] {
        let att = OpAwareSelfAttention::new(3, 2, 4, dyadic, &mut Rng::seed_from_u64(4));
        let x = input(&[0.1, -0.2, 0.3, 0.0, 0.4, -0.1, 0.2, 0.5, -0.3], &[3, 3]);
        check_gradient(
            &x,
            |t| att.attend_last(t, &[0, 1, 1]).square().sum(),
            1e-3,
            8e-2,
        );
    }
}

#[test]
fn ffn_gradcheck() {
    let ffn = Ffn::new(4, 0.0, &mut Rng::seed_from_u64(5));
    let x = input(&[0.2, -0.6, 0.9, 0.1], &[1, 4]);
    let mut rng = Rng::seed_from_u64(6);
    check_gradient(
        &x,
        |t| {
            let w = Tensor::from_vec(vec![1.0, 0.5, -0.5, 2.0], &[1, 4]);
            ffn.apply(t).mul(&w).sum()
        },
        1e-3,
        8e-2,
    );
    let _ = &mut rng;
}

#[test]
fn fusion_gate_gradcheck() {
    let fg = FusionGate::new(3, FusionMode::Gated, &mut Rng::seed_from_u64(7));
    let z = input(&[0.3, -0.4, 0.2], &[3]);
    let x_t = Tensor::from_vec(vec![0.1, 0.6, -0.2], &[3]);
    check_gradient(&z, |t| fg.fuse(t, &x_t).square().sum(), 1e-3, 5e-2);
}
