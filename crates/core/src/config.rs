//! EMBSR configuration and the variant switchboard.

use embsr_nn::FusionMode;

/// Which encoder produces the per-item representations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backbone {
    /// Star multigraph GNN (the paper's model).
    StarGnn,
    /// Plain GRU over `[item ; op]` embeddings (the `RNN-Self` variant).
    Rnn,
    /// No encoder: raw item embeddings (the `EMBSR-NG` ablation).
    None,
}

/// Full configuration of the EMBSR family.
///
/// The boolean switches correspond one-to-one to the ablations and variants
/// of the paper's Sec. V-C/D/E/F; see the constructors below.
#[derive(Clone, Debug)]
pub struct EmbsrConfig {
    /// Item vocabulary size `|V|`.
    pub num_items: usize,
    /// Operation vocabulary size `|O|` (a virtual "next" operation is added
    /// internally for the star token of eq. 13).
    pub num_ops: usize,
    /// Embedding dimensionality `d` (paper: 100; CPU experiments use less).
    pub dim: usize,
    /// Number of stacked GNN layers.
    pub gnn_layers: usize,
    /// Maximum micro-behavior sequence length seen by the attention
    /// (sessions are truncated upstream; +1 star slot is added internally).
    pub max_len: usize,
    /// Normalized-score weight `w_k` (paper: 12).
    pub w_k: f32,
    /// Dropout rate.
    pub dropout: f32,
    /// Item-representation encoder.
    pub backbone: Backbone,
    /// Encode micro-operation sub-sequences with a GRU and feed them into
    /// the GNN messages (Sec. IV-B-3). Off in SGNN-Self / SGNN-Dyadic.
    pub use_op_gru: bool,
    /// Use the operation-aware self-attention layer at all. Off in EMBSR-NS.
    pub use_attention: bool,
    /// Use the dyadic relation table inside the attention. Off degrades to
    /// standard self-attention (SGNN-Self / SGNN-Seq-Self / SGNN-Abs-Self).
    pub use_dyadic: bool,
    /// Add the absolute operation embedding to the attention inputs
    /// (`x_i = e_v + e_o`, eq. 12). Off in the SGNN-Self variants that carry
    /// no micro-behavior information.
    pub use_abs_op: bool,
    /// How global preference and recent interest are fused (eq. 18).
    pub fusion: FusionMode,
    /// Learn a scalar importance weight per operation and scale every
    /// operation embedding by it — the paper's *future work* ("whether it
    /// would be beneficial to weight, or filter, micro-behavior operations
    /// according to their importance"), implemented as an optional
    /// extension.
    pub use_op_weighting: bool,
    /// Display name (paper table row).
    pub name: String,
    /// Parameter-init / dropout seed.
    pub seed: u64,
}

impl EmbsrConfig {
    fn base(num_items: usize, num_ops: usize, dim: usize, name: &str) -> Self {
        EmbsrConfig {
            num_items,
            num_ops,
            dim,
            gnn_layers: 1,
            max_len: 64,
            w_k: 12.0,
            dropout: 0.1,
            backbone: Backbone::StarGnn,
            use_op_gru: true,
            use_attention: true,
            use_dyadic: true,
            use_abs_op: true,
            fusion: FusionMode::Gated,
            use_op_weighting: false,
            name: name.to_string(),
            seed: 7,
        }
    }

    /// The full EMBSR model.
    pub fn full(num_items: usize, num_ops: usize, dim: usize) -> Self {
        Self::base(num_items, num_ops, dim, "EMBSR")
    }

    /// `EMBSR-NS`: no operation-aware self-attention; only the sequential
    /// pattern is encoded.
    pub fn ablation_ns(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            use_attention: false,
            ..Self::base(num_items, num_ops, dim, "EMBSR-NS")
        }
    }

    /// `EMBSR-NG`: no GNN layer (including the micro-operation GRU); only
    /// the dyadic relational pattern is encoded.
    pub fn ablation_ng(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            backbone: Backbone::None,
            use_op_gru: false,
            ..Self::base(num_items, num_ops, dim, "EMBSR-NG")
        }
    }

    /// `EMBSR-NF`: concat + MLP instead of the fusion gate.
    pub fn ablation_nf(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            fusion: FusionMode::ConcatMlp,
            ..Self::base(num_items, num_ops, dim, "EMBSR-NF")
        }
    }

    /// `SGNN-Self`: star GNN + standard self-attention, no micro-behavior
    /// information at all.
    pub fn sgnn_self(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            use_op_gru: false,
            use_dyadic: false,
            use_abs_op: false,
            ..Self::base(num_items, num_ops, dim, "SGNN-Self")
        }
    }

    /// `SGNN-Seq-Self`: SGNN-Self plus the GRU-encoded sequential pattern.
    pub fn sgnn_seq_self(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            use_dyadic: false,
            use_abs_op: false,
            ..Self::base(num_items, num_ops, dim, "SGNN-Seq-Self")
        }
    }

    /// `RNN-Self`: replace the GNN with a GRU over `[item ; op]` embeddings.
    pub fn rnn_self(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            backbone: Backbone::Rnn,
            use_op_gru: false,
            use_dyadic: false,
            use_abs_op: false,
            ..Self::base(num_items, num_ops, dim, "RNN-Self")
        }
    }

    /// `SGNN-Abs-Self`: standard self-attention with absolute operation
    /// embeddings (no dyadic table, no op GRU).
    pub fn sgnn_abs_self(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            use_op_gru: false,
            use_dyadic: false,
            ..Self::base(num_items, num_ops, dim, "SGNN-Abs-Self")
        }
    }

    /// `SGNN-Dyadic` (a.k.a. `EMBSR-Dyadic` in the supplement): dyadic
    /// encoding on the star GNN, without the micro-operation GRU.
    pub fn sgnn_dyadic(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            use_op_gru: false,
            ..Self::base(num_items, num_ops, dim, "SGNN-Dyadic")
        }
    }

    /// EMBSR with learned per-operation importance weights (the paper's
    /// future-work extension).
    pub fn full_op_weighted(num_items: usize, num_ops: usize, dim: usize) -> Self {
        EmbsrConfig {
            use_op_weighting: true,
            ..Self::base(num_items, num_ops, dim, "EMBSR+OpW")
        }
    }

    /// Fixed fusion weight β (Fig. 6 sweep).
    pub fn fixed_beta(num_items: usize, num_ops: usize, dim: usize, beta: f32) -> Self {
        EmbsrConfig {
            fusion: FusionMode::Fixed(beta),
            ..Self::base(num_items, num_ops, dim, &format!("EMBSR(β={beta})"))
        }
    }

    /// The internal operation vocabulary: `|O|` real operations plus the
    /// virtual "next" operation used for the star token (eq. 13 supposes the
    /// star carries the *next* item's operation, which is unknown at
    /// inference, so it gets its own learned id).
    pub fn ops_with_virtual(&self) -> usize {
        self.num_ops + 1
    }

    /// The id of the virtual "next" operation.
    pub fn virtual_next_op(&self) -> usize {
        self.num_ops
    }

    /// Sanity checks.
    pub fn validate(&self) {
        assert!(self.num_items > 0 && self.num_ops > 0 && self.dim > 0);
        assert!(self.gnn_layers >= 1 || self.backbone != Backbone::StarGnn);
        assert!(self.max_len >= 2);
        assert!(self.w_k > 0.0, "w_k must be positive");
        if let FusionMode::Fixed(b) = self.fusion {
            assert!((0.0..=1.0).contains(&b), "β out of range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_switchboard_matches_paper_definitions() {
        let f = EmbsrConfig::full(10, 4, 8);
        assert!(f.use_op_gru && f.use_attention && f.use_dyadic);
        assert_eq!(f.backbone, Backbone::StarGnn);

        assert!(!EmbsrConfig::ablation_ns(10, 4, 8).use_attention);
        assert_eq!(EmbsrConfig::ablation_ng(10, 4, 8).backbone, Backbone::None);
        assert_eq!(
            EmbsrConfig::ablation_nf(10, 4, 8).fusion,
            FusionMode::ConcatMlp
        );

        let ss = EmbsrConfig::sgnn_self(10, 4, 8);
        assert!(!ss.use_op_gru && !ss.use_dyadic && !ss.use_abs_op);

        let seq = EmbsrConfig::sgnn_seq_self(10, 4, 8);
        assert!(seq.use_op_gru && !seq.use_dyadic);

        assert_eq!(EmbsrConfig::rnn_self(10, 4, 8).backbone, Backbone::Rnn);

        let abs = EmbsrConfig::sgnn_abs_self(10, 4, 8);
        assert!(abs.use_abs_op && !abs.use_dyadic && !abs.use_op_gru);

        let dy = EmbsrConfig::sgnn_dyadic(10, 4, 8);
        assert!(dy.use_dyadic && !dy.use_op_gru);
    }

    #[test]
    #[should_panic(expected = "w_k must be positive")]
    fn zero_scale_rejected() {
        EmbsrConfig {
            w_k: 0.0,
            ..EmbsrConfig::full(10, 4, 8)
        }
        .validate();
    }

    #[test]
    fn virtual_op_extends_vocab() {
        let c = EmbsrConfig::full(10, 6, 8);
        assert_eq!(c.ops_with_virtual(), 7);
        assert_eq!(c.virtual_next_op(), 6);
    }

    #[test]
    #[should_panic(expected = "β out of range")]
    fn invalid_beta_rejected() {
        EmbsrConfig::fixed_beta(10, 4, 8, 1.5).validate();
    }

    #[test]
    fn all_variants_validate() {
        for c in [
            EmbsrConfig::full(5, 3, 4),
            EmbsrConfig::ablation_ns(5, 3, 4),
            EmbsrConfig::ablation_ng(5, 3, 4),
            EmbsrConfig::ablation_nf(5, 3, 4),
            EmbsrConfig::sgnn_self(5, 3, 4),
            EmbsrConfig::sgnn_seq_self(5, 3, 4),
            EmbsrConfig::rnn_self(5, 3, 4),
            EmbsrConfig::sgnn_abs_self(5, 3, 4),
            EmbsrConfig::sgnn_dyadic(5, 3, 4),
            EmbsrConfig::fixed_beta(5, 3, 4, 0.4),
        ] {
            c.validate();
        }
    }
}
