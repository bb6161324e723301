//! Building blocks shared by the GNN-family baselines (SR-GNN, GC-SAN,
//! SGNN-HN, MKM-SR): the normalized session digraph, the gated GNN encoder
//! and the soft-attention readout.

use std::collections::HashMap;

use embsr_nn::{Forward, GgnnCell, Linear, Module};
use embsr_sessions::{ItemId, Session};
use embsr_tensor::{uniform_init, Rng, Tensor};

/// SR-GNN's session digraph: distinct items as nodes with **normalized**
/// in/out adjacency (each row of `A_out` divides by the node's out-degree,
/// matching the original's connection matrix).
pub struct SessionDigraph {
    /// Distinct items in first-appearance order.
    pub nodes: Vec<ItemId>,
    /// Node index of each macro step.
    pub step_node: Vec<usize>,
    /// Normalized incoming adjacency `[c, c]` (constant, no grad).
    pub a_in: Tensor,
    /// Normalized outgoing adjacency `[c, c]` (constant, no grad).
    pub a_out: Tensor,
}

impl SessionDigraph {
    /// Builds the digraph from a session's macro-item sequence.
    pub fn from_session(session: &Session) -> Self {
        let macro_items = session.macro_items();
        let mut node_of: HashMap<ItemId, usize> = HashMap::new();
        let mut nodes = Vec::new();
        let mut step_node = Vec::with_capacity(macro_items.len());
        for &it in &macro_items {
            let idx = *node_of.entry(it).or_insert_with(|| {
                nodes.push(it);
                nodes.len() - 1
            });
            step_node.push(idx);
        }
        let c = nodes.len();
        let mut out_counts = vec![0.0f32; c * c];
        for w in step_node.windows(2) {
            out_counts[w[0] * c + w[1]] += 1.0;
        }
        // row-normalize for A_out, column-normalize transpose for A_in
        let mut a_out = vec![0.0f32; c * c];
        let mut a_in = vec![0.0f32; c * c];
        for i in 0..c {
            let row_sum: f32 = out_counts[i * c..(i + 1) * c].iter().sum();
            if row_sum > 0.0 {
                for j in 0..c {
                    a_out[i * c + j] = out_counts[i * c + j] / row_sum;
                }
            }
        }
        for j in 0..c {
            let col_sum: f32 = (0..c).map(|i| out_counts[i * c + j]).sum();
            if col_sum > 0.0 {
                for i in 0..c {
                    // incoming edges of j, normalized by in-degree
                    a_in[j * c + i] = out_counts[i * c + j] / col_sum;
                }
            }
        }
        SessionDigraph {
            nodes,
            step_node,
            a_in: Tensor::from_vec(a_in, &[c, c]),
            a_out: Tensor::from_vec(a_out, &[c, c]),
        }
    }

    /// Number of distinct items.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Gated GNN encoder over a [`SessionDigraph`] (SR-GNN's propagation).
pub struct GnnEncoder {
    proj_in: Linear,
    proj_out: Linear,
    cell: GgnnCell,
    layers: usize,
}

impl GnnEncoder {
    /// Creates an encoder with `layers` propagation steps.
    pub fn new(dim: usize, layers: usize, rng: &mut Rng) -> Self {
        GnnEncoder {
            proj_in: Linear::new(dim, dim, rng),
            proj_out: Linear::new(dim, dim, rng),
            cell: GgnnCell::new(dim, rng),
            layers,
        }
    }

    /// Encodes initial node embeddings `[c, d]` into contextualized ones.
    pub fn encode(&self, graph: &SessionDigraph, mut h: Tensor) -> Tensor {
        for _ in 0..self.layers {
            let m_in = graph.a_in.matmul(&self.proj_in.apply(&h));
            let m_out = graph.a_out.matmul(&self.proj_out.apply(&h));
            let a = m_in.concat_cols(&m_out);
            h = self.cell.update(&a, &h);
        }
        h
    }
}

impl Module for GnnEncoder {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.proj_in.parameters();
        p.extend(self.proj_out.parameters());
        p.extend(self.cell.parameters());
        p
    }
}

/// SR-GNN's soft-attention readout:
/// `α_i = q·σ(W₁ v_last + W₂ v_i)`, `s_g = Σ α_i v_i`,
/// `s = W₃ [v_last ; s_g]`.
pub struct AttentionReadout {
    w1: Linear,
    w2: Linear,
    q: Tensor,
    w3: Linear,
    dim: usize,
}

impl AttentionReadout {
    /// Creates the readout for `d`-dimensional embeddings.
    pub fn new(dim: usize, rng: &mut Rng) -> Self {
        AttentionReadout {
            w1: Linear::new_no_bias(dim, dim, rng),
            w2: Linear::new(dim, dim, rng),
            q: uniform_init(&[dim, 1], rng),
            w3: Linear::new_no_bias(2 * dim, dim, rng),
            dim,
        }
    }

    /// Computes the session representation from per-step embeddings
    /// `[n, d]` and the last step's embedding `[d]`.
    pub fn readout(&self, steps: &Tensor, last: &Tensor) -> Tensor {
        let n = steps.rows();
        let last_rows = Tensor::ones(&[n, 1]).matmul(&last.reshape(&[1, self.dim]));
        let act = self.w1.apply(&last_rows).add(&self.w2.apply(steps)).sigmoid();
        let alpha = act.matmul(&self.q); // [n, 1]
        let alpha_full = alpha.matmul(&Tensor::ones(&[1, self.dim]));
        let s_g = alpha_full.mul(steps).mean_rows().mul_scalar(n as f32); // Σ α_i v_i
        self.w3.apply(&last.concat_cols(&s_g))
    }
}

impl Module for AttentionReadout {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.w1.parameters();
        p.extend(self.w2.parameters());
        p.push(self.q.clone());
        p.extend(self.w3.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_sessions::MicroBehavior;
    use embsr_tensor::testing::assert_close;

    fn session(items: &[u32]) -> Session {
        Session {
            id: 0,
            events: items.iter().map(|&i| MicroBehavior::new(i, 0)).collect(),
        }
    }

    #[test]
    fn digraph_rows_are_normalized() {
        let g = SessionDigraph::from_session(&session(&[1, 2, 3, 2, 4]));
        let c = g.num_nodes();
        assert_eq!(c, 4);
        let a_out = g.a_out.to_vec();
        for i in 0..c {
            let row: f32 = a_out[i * c..(i + 1) * c].iter().sum();
            assert!(row == 0.0 || (row - 1.0).abs() < 1e-5, "row {i} sums to {row}");
        }
    }

    #[test]
    fn digraph_parallel_edges_share_weight() {
        // 1->2 occurs twice, 1->3 once: A_out[node1] = [.., 2/3, 1/3]
        let g = SessionDigraph::from_session(&session(&[1, 2, 1, 2, 1, 3]));
        let n1 = 0; // item 1 is first
        let n2 = g.nodes.iter().position(|&x| x == 2).unwrap();
        let n3 = g.nodes.iter().position(|&x| x == 3).unwrap();
        let c = g.num_nodes();
        let a = g.a_out.to_vec();
        assert_close(&[a[n1 * c + n2]], &[2.0 / 3.0], 1e-5);
        assert_close(&[a[n1 * c + n3]], &[1.0 / 3.0], 1e-5);
    }

    #[test]
    fn encoder_keeps_shape_and_gradients() {
        let mut rng = Rng::seed_from_u64(0);
        let enc = GnnEncoder::new(4, 2, &mut rng);
        let g = SessionDigraph::from_session(&session(&[1, 2, 3]));
        let h0 = uniform_init(&[3, 4], &mut rng);
        let h = enc.encode(&g, h0.clone());
        assert_eq!(h.shape().dims(), &[3, 4]);
        h.sum().backward();
        assert!(h0.grad().is_some());
        for p in enc.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn readout_produces_session_vector() {
        let mut rng = Rng::seed_from_u64(1);
        let r = AttentionReadout::new(4, &mut rng);
        let steps = uniform_init(&[5, 4], &mut rng).detach();
        let last = steps.row(4);
        let s = r.readout(&steps, &last);
        assert_eq!(s.shape().dims(), &[4]);
    }
}
