//! The EMBSR model (paper Sec. IV) and its forward pass.

use embsr_nn::{
    Dropout, Embedding, Ffn, Forward, FusionGate, GgnnCell, Gru, Highway, Linear, Module,
    ModuleCtx, NormalizedScorer, OpAwareSelfAttention, StarAttention, StarGate,
};
use embsr_sessions::{Session, SessionGraph};
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

use crate::config::{Backbone, EmbsrConfig};

/// The EMBSR model family. Construct via [`EmbsrConfig`] (see the variant
/// constructors) and train with [`embsr_train::Trainer`].
pub struct Embsr {
    cfg: EmbsrConfig,
    /// Item table `M^V`.
    items: Embedding,
    /// Operation table `M^O` (with the virtual "next" op appended).
    ops: Embedding,
    /// GRU over micro-operation sub-sequences (eq. 3).
    op_gru: Gru,
    /// Incoming / outgoing message functions `f_m^+`, `f_m^-` (eq. 6).
    msg_in: Linear,
    msg_out: Linear,
    /// Gated graph update (eq. 8).
    ggnn: GgnnCell,
    /// Star propagation (eq. 9–10).
    star_gate: StarGate,
    star_attn: StarAttention,
    /// Highway blend (eq. 11).
    highway: Highway,
    /// Operation-aware self-attention (eq. 12–16).
    attention: OpAwareSelfAttention,
    /// Position-wise FFN block (eq. 17).
    ffn: Ffn,
    /// Fusion gate (eq. 18).
    fusion: FusionGate,
    /// Scaled-cosine scorer (eq. 19).
    scorer: NormalizedScorer,
    /// RNN backbone for the `RNN-Self` variant.
    rnn: Gru,
    dropout: Dropout,
    /// Per-operation importance logits (σ(·)·2 gives the weight), used only
    /// when `use_op_weighting` is on. Initialized at 0 ⇒ weight 1.
    op_importance: Tensor,
}

impl Embsr {
    /// Builds the model with deterministic initialization from `cfg.seed`.
    pub fn new(cfg: EmbsrConfig) -> Self {
        cfg.validate();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let d = cfg.dim;
        let ops_v = cfg.ops_with_virtual();
        embsr_obs::debug!(
            target: "embsr_core",
            "building EMBSR: |V|={} |O|={} dim={} dyadic={} seed={}",
            cfg.num_items,
            cfg.num_ops,
            d,
            cfg.use_dyadic,
            cfg.seed
        );
        Embsr {
            items: Embedding::new(cfg.num_items, d, &mut rng),
            ops: Embedding::new(ops_v, d, &mut rng),
            op_gru: Gru::new(d, d, &mut rng),
            msg_in: Linear::new(2 * d, d, &mut rng),
            msg_out: Linear::new(2 * d, d, &mut rng),
            ggnn: GgnnCell::new(d, &mut rng),
            star_gate: StarGate::new(d, &mut rng),
            star_attn: StarAttention::new(d, &mut rng),
            highway: Highway::new(d, &mut rng),
            attention: OpAwareSelfAttention::new(d, ops_v, cfg.max_len + 1, cfg.use_dyadic, &mut rng),
            ffn: Ffn::new(d, cfg.dropout, &mut rng),
            fusion: FusionGate::new(d, cfg.fusion, &mut rng),
            scorer: NormalizedScorer::new(cfg.w_k),
            rnn: Gru::new(2 * d, d, &mut rng),
            dropout: Dropout::new(cfg.dropout),
            op_importance: Tensor::zeros(&[ops_v, 1]).requires_grad(),
            cfg,
        }
    }

    /// Looks up operation embeddings, scaled by the learned per-operation
    /// importance when the extension is enabled:
    /// `e'_o = 2σ(w_o) · e_o` (weight 1 at init, 0 ⇒ filtered out).
    fn op_embeddings(&self, ops: &[usize]) -> Tensor {
        let embs = self.ops.lookup(ops);
        if !self.cfg.use_op_weighting {
            return embs;
        }
        let w = self
            .op_importance
            .gather_rows(ops)
            .sigmoid()
            .mul_scalar(2.0); // [k, 1]
        embs.mul(&w.matmul(&Tensor::ones(&[1, self.cfg.dim])))
    }

    /// The learned importance weight of each operation (for inspection and
    /// the ablation bench). Length `|O| + 1` (the virtual next-op last).
    pub fn operation_importance(&self) -> Vec<f32> {
        self.op_importance
            .to_vec()
            .iter()
            .map(|&x| 2.0 / (1.0 + (-x).exp()))
            .collect()
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &EmbsrConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Sequential-pattern encoder (Sec. IV-B)
    // ------------------------------------------------------------------

    /// Encodes each macro step's operation sub-sequence with the GRU
    /// (eq. 3–4). Returns `h̃ ∈ [n, d]`, or zeros when the op GRU is ablated.
    fn op_sequence_encodings(&self, graph: &SessionGraph) -> Tensor {
        let n = graph.num_steps();
        let d = self.cfg.dim;
        if !self.cfg.use_op_gru {
            return Tensor::zeros(&[n, d]);
        }
        // One embedding lookup per step; the GRU batches the sub-sequences
        // itself (lockstep under inference, per-step taped loop otherwise).
        let embs: Vec<Tensor> = graph
            .steps
            .iter()
            .map(|step| {
                let idx: Vec<usize> = step.ops.iter().map(|&o| o as usize).collect();
                self.op_embeddings(&idx) // [k, d]
            })
            .collect();
        let refs: Vec<&Tensor> = embs.iter().collect();
        self.op_gru.last_states(&refs) // [n, d]
    }

    /// Builds the constant scatter matrix `[c, E]` mapping edge messages to
    /// their aggregating node (eq. 7); returns `None` when the edge list is
    /// empty.
    fn scatter_matrix(num_nodes: usize, owners: &[usize]) -> Option<Tensor> {
        if owners.is_empty() {
            return None;
        }
        let e = owners.len();
        let mut a = vec![0.0f32; num_nodes * e];
        for (col, &node) in owners.iter().enumerate() {
            a[node * e + col] = 1.0;
        }
        Some(Tensor::from_vec(a, &[num_nodes, e]))
    }

    /// One direction of message passing: gathers `[e_{u_j} ; h̃_j]` per edge,
    /// applies the message function, and scatter-sums per node (eq. 5–7).
    fn aggregate_direction(
        &self,
        node_embs: &Tensor,
        h_tilde: &Tensor,
        edges: &[Vec<embsr_sessions::EdgeEndpoint>],
        msg: &Linear,
    ) -> Tensor {
        let c = node_embs.rows();
        let d = self.cfg.dim;
        let mut owners = Vec::new();
        let mut src_nodes = Vec::new();
        let mut src_steps = Vec::new();
        for (i, es) in edges.iter().enumerate() {
            for e in es {
                owners.push(i);
                src_nodes.push(e.node);
                src_steps.push(e.step);
            }
        }
        match Self::scatter_matrix(c, &owners) {
            None => Tensor::zeros(&[c, d]),
            Some(scatter) => {
                let neigh = node_embs.gather_rows(&src_nodes); // [E, d]
                let seqs = h_tilde.gather_rows(&src_steps); // [E, d]
                let messages = msg.apply(&neigh.concat_cols(&seqs)); // [E, d]
                scatter.matmul(&messages) // [c, d]
            }
        }
    }

    /// Runs the star-GNN stack and returns `(h_f, e_us)`: the final satellite
    /// representations `[c, d]` and the star embedding `[d]`.
    fn encode_graph(&self, graph: &SessionGraph) -> (Tensor, Tensor) {
        let node_idx: Vec<usize> = graph.nodes.iter().map(|&i| i as usize).collect();
        let h0 = self.items.lookup(&node_idx); // [c, d] (eq. 1)
        let mut star = h0.mean_rows(); // [d] (eq. 2)

        if self.cfg.backbone != Backbone::StarGnn {
            return (h0, star);
        }

        let h_tilde = self.op_sequence_encodings(graph);
        let mut h = h0.clone();
        for _ in 0..self.cfg.gnn_layers {
            let agg_in = self.aggregate_direction(&h, &h_tilde, &graph.in_edges, &self.msg_in);
            let agg_out = self.aggregate_direction(&h, &h_tilde, &graph.out_edges, &self.msg_out);
            let a = agg_in.concat_cols(&agg_out); // [c, 2d] (eq. 7)
            let updated = self.ggnn.update(&a, &h); // (eq. 8)
            h = self.star_gate.propagate(&updated, &star); // (eq. 9)
            star = self.star_attn.attend(&h, &star); // (eq. 10)
        }
        let h_f = self.highway.blend(&h0, &h); // (eq. 11)
        (h_f, star)
    }

    // ------------------------------------------------------------------
    // Attention inputs (eq. 12–13)
    // ------------------------------------------------------------------

    /// Builds the micro-level input sequence `X_t` (`[t, d]`) and the per-row
    /// operation ids; item representations come from the satellite rows.
    fn attention_inputs(&self, session: &Session, graph: &SessionGraph, h_f: &Tensor) -> (Tensor, Vec<usize>) {
        // map each micro event to its macro step (and thus its node)
        let mut event_nodes = Vec::with_capacity(session.len());
        let mut event_ops = Vec::with_capacity(session.len());
        let mut step = 0usize;
        let mut remaining = graph.steps[0].ops.len();
        for e in &session.events {
            if remaining == 0 {
                step += 1;
                remaining = graph.steps[step].ops.len();
            }
            event_nodes.push(graph.step_node[step]);
            event_ops.push(e.op as usize);
            remaining -= 1;
        }
        let item_part = h_f.gather_rows(&event_nodes); // [t, d]
        let xs = if self.cfg.use_abs_op {
            item_part.add(&self.op_embeddings(&event_ops))
        } else {
            item_part
        };
        (xs, event_ops)
    }

    /// RNN-Self backbone: GRU over `[e_v ; e_o]` per micro event; returns
    /// the hidden states `[t, d]`.
    fn encode_rnn(&self, session: &Session) -> Tensor {
        let items: Vec<usize> = session.events.iter().map(|e| e.item as usize).collect();
        let ops: Vec<usize> = session.events.iter().map(|e| e.op as usize).collect();
        let ev = self.items.lookup(&items); // [t, d]
        let eo = self.ops.lookup(&ops); // [t, d]
        self.rnn.apply(&ev.concat_cols(&eo)) // [t, d]
    }

    /// Everything before scoring: encodes the (internally truncated) session
    /// into the fused representation `m ∈ [d]` of eq. 18.
    ///
    /// [`SessionModel::logits`] scores one representation at a time;
    /// batched and served scoring stack many and score them through the
    /// [`SessionModel::head`], whose item side is prepared once.
    fn session_repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        assert!(!session.is_empty(), "representation of an empty session");
        let sess = embsr_train::truncate_session(session, self.cfg.max_len);
        let d = self.cfg.dim;

        // --- encode items -------------------------------------------------
        let (xs, event_ops, global) = match self.cfg.backbone {
            Backbone::StarGnn | Backbone::None => {
                let graph = SessionGraph::from_session(&sess);
                let (h_f, star) = self.encode_graph(&graph);
                let (xs, ops) = self.attention_inputs(&sess, &graph, &h_f);
                (xs, ops, star)
            }
            Backbone::Rnn => {
                let hidden = self.encode_rnn(&sess); // [t, d]
                let ops: Vec<usize> = sess.events.iter().map(|e| e.op as usize).collect();
                let global = hidden.mean_rows();
                (hidden, ops, global)
            }
        };
        let t = xs.rows();
        let x_t = xs.row(t - 1); // recent interest (eq. 18 input)

        // --- relational-pattern encoder (eq. 12–17) ------------------------
        let z_s = if self.cfg.use_attention {
            // star token x_s = e_us + e_{o_{t+1}} (eq. 13); the next
            // operation is unknown, so a dedicated learned id stands in.
            let x_s = if self.cfg.use_abs_op {
                global.add(&self.ops.lookup_one(self.cfg.virtual_next_op()))
            } else {
                global.clone()
            };
            let mut ctx = ModuleCtx::new(training, rng);
            let full = Tensor::concat_rows(&[xs.clone(), x_s.reshape(&[1, d])]);
            let full = self.dropout.forward(&full, &mut ctx);
            let mut att_ops = event_ops.clone();
            att_ops.push(self.cfg.virtual_next_op());
            let z = self.attention.attend(&full, &att_ops); // [t+1, d]
            let z_star = z.slice_rows(t, t + 1); // [1, d]
            self.ffn.forward(&z_star, &mut ctx).reshape(&[d])
        } else {
            global
        };

        // --- fusion (eq. 18) ----------------------------------------------
        self.fusion.fuse(&z_s, &x_t)
    }
}

impl SessionModel for Embsr {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn num_items(&self) -> usize {
        self.cfg.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        // Only the modules the configured forward pass can reach are handed
        // to the optimizer; anything else would be a detached parameter that
        // silently never trains (and that the graph validator flags). The
        // conditions below mirror `logits` exactly: checkpoints stay
        // positionally consistent because save and load share the config.
        let star = self.cfg.backbone == Backbone::StarGnn;
        let op_gru_active = star && self.cfg.use_op_gru;
        let abs_op_active = self.cfg.use_abs_op && self.cfg.backbone != Backbone::Rnn;
        let ops_active = self.cfg.backbone == Backbone::Rnn
            || op_gru_active
            || abs_op_active
            || (self.cfg.use_attention && self.cfg.use_abs_op);

        let mut modules: Vec<&dyn Module> = vec![&self.items];
        if ops_active {
            modules.push(&self.ops);
        }
        if op_gru_active {
            modules.push(&self.op_gru);
        }
        if star {
            modules.push(&self.msg_in);
            modules.push(&self.msg_out);
            modules.push(&self.ggnn);
            modules.push(&self.star_gate);
            modules.push(&self.star_attn);
            modules.push(&self.highway);
        }
        if self.cfg.use_attention {
            modules.push(&self.attention);
            modules.push(&self.ffn);
        }
        let mut p: Vec<Tensor> = modules.iter().flat_map(|m| m.parameters()).collect();
        p.extend(self.fusion.parameters());
        if self.cfg.backbone == Backbone::Rnn {
            p.extend(self.rnn.parameters());
        }
        if self.cfg.use_op_weighting && (op_gru_active || abs_op_active) {
            p.push(self.op_importance.clone());
        }
        p
    }

    fn logits(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        let m = self.session_repr(session, training, rng);
        self.scorer.logits(&m, &self.items.weight) // (eq. 19)
    }

    fn repr_infer(&self, session: &Session) -> Option<Tensor> {
        let mut rng = Rng::seed_from_u64(0); // dropout is off: never drawn from
        Some(self.session_repr(session, false, &mut rng))
    }

    fn head(&self) -> Option<Head> {
        Some(Head {
            scorer: Scorer::Cosine {
                w_k: self.scorer.w_k,
            }, // (eq. 19)
            items: self.items.weight.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_sessions::MicroBehavior;
    use embsr_tensor::{Adam, AdamConfig, Optimizer};

    fn session(pairs: &[(u32, u16)]) -> Session {
        Session {
            id: 0,
            events: pairs
                .iter()
                .map(|&(i, o)| MicroBehavior { item: i, op: o })
                .collect(),
        }
    }

    fn all_variants(v: usize, o: usize, d: usize) -> Vec<Embsr> {
        vec![
            Embsr::new(EmbsrConfig::full(v, o, d)),
            Embsr::new(EmbsrConfig::ablation_ns(v, o, d)),
            Embsr::new(EmbsrConfig::ablation_ng(v, o, d)),
            Embsr::new(EmbsrConfig::ablation_nf(v, o, d)),
            Embsr::new(EmbsrConfig::sgnn_self(v, o, d)),
            Embsr::new(EmbsrConfig::sgnn_seq_self(v, o, d)),
            Embsr::new(EmbsrConfig::rnn_self(v, o, d)),
            Embsr::new(EmbsrConfig::sgnn_abs_self(v, o, d)),
            Embsr::new(EmbsrConfig::sgnn_dyadic(v, o, d)),
            Embsr::new(EmbsrConfig::fixed_beta(v, o, d, 0.4)),
        ]
    }

    #[test]
    fn every_variant_produces_full_vocabulary_logits() {
        let s = session(&[(1, 0), (1, 1), (2, 0), (3, 2), (2, 1)]);
        let mut rng = Rng::seed_from_u64(0);
        for model in all_variants(6, 4, 8) {
            let y = model.logits(&s, false, &mut rng);
            assert_eq!(y.len(), 6, "{}", model.name());
            assert!(
                y.to_vec().iter().all(|v| v.is_finite()),
                "{} produced non-finite logits",
                model.name()
            );
        }
    }

    #[test]
    fn logits_bounded_by_wk() {
        let model = Embsr::new(EmbsrConfig::full(5, 3, 8));
        let s = session(&[(0, 0), (1, 1), (2, 2)]);
        let y = model.logits(&s, false, &mut Rng::seed_from_u64(1)).to_vec();
        assert!(y.iter().all(|v| v.abs() <= 12.0 + 1e-3));
    }

    #[test]
    fn operations_change_predictions_of_full_model() {
        // same items, different micro-operations => different scores
        let model = Embsr::new(EmbsrConfig::full(6, 4, 8));
        let mut rng = Rng::seed_from_u64(2);
        let a = model
            .logits(&session(&[(1, 0), (2, 0), (3, 0)]), false, &mut rng)
            .to_vec();
        let b = model
            .logits(&session(&[(1, 0), (2, 2), (3, 1)]), false, &mut rng)
            .to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn operations_do_not_change_sgnn_self() {
        let model = Embsr::new(EmbsrConfig::sgnn_self(6, 4, 8));
        let mut rng = Rng::seed_from_u64(3);
        let a = model
            .logits(&session(&[(1, 0), (2, 0), (3, 0)]), false, &mut rng)
            .to_vec();
        let b = model
            .logits(&session(&[(1, 0), (2, 2), (3, 1)]), false, &mut rng)
            .to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_reaches_core_tables() {
        let model = Embsr::new(EmbsrConfig::full(6, 4, 8));
        let s = session(&[(1, 0), (2, 1), (1, 2), (3, 0)]);
        let mut rng = Rng::seed_from_u64(4);
        model
            .logits(&s, true, &mut rng)
            .cross_entropy_single(4)
            .backward();
        assert!(model.items.weight.grad().is_some(), "item table");
        assert!(model.ops.weight.grad().is_some(), "op table");
    }

    #[test]
    fn single_macro_item_session_is_handled() {
        // evaluation can present a prefix with one macro item
        let model = Embsr::new(EmbsrConfig::full(4, 3, 8));
        let s = session(&[(2, 0), (2, 1)]);
        let y = model.logits(&s, false, &mut Rng::seed_from_u64(5));
        assert_eq!(y.len(), 4);
        assert!(y.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_reduces_loss_on_toy_pattern() {
        // op 2 on item 1 => next is item 2; op 1 on item 1 => next is item 3
        let model = Embsr::new(EmbsrConfig::full(5, 4, 8));
        let mut opt = Adam::new(
            model.parameters(),
            AdamConfig {
                lr: 0.02,
                ..Default::default()
            },
        );
        let data = [
            (session(&[(0, 0), (1, 0), (1, 2)]), 2usize),
            (session(&[(0, 0), (1, 0), (1, 1)]), 3usize),
        ];
        let mut rng = Rng::seed_from_u64(6);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            opt.zero_grad();
            let mut loss = Tensor::scalar(0.0);
            for (s, target) in &data {
                loss = loss.add(&model.logits(s, true, &mut rng).cross_entropy_single(*target));
            }
            last = loss.item();
            first.get_or_insert(last);
            loss.backward();
            opt.step();
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.5,
            "EMBSR failed to fit micro-behavior toy task: {first} -> {last}"
        );
    }

    #[test]
    fn truncation_is_applied_internally() {
        let mut cfg = EmbsrConfig::full(4, 3, 8);
        cfg.max_len = 4;
        let model = Embsr::new(cfg);
        let long: Vec<(u32, u16)> = (0..20).map(|i| ((i % 4) as u32, 0u16)).collect();
        let y = model.logits(&session(&long), false, &mut Rng::seed_from_u64(7));
        assert_eq!(y.len(), 4);
    }

    #[test]
    fn op_weighting_extension_trains_and_reports_weights() {
        let model = Embsr::new(EmbsrConfig::full_op_weighted(6, 4, 8));
        // weights start at exactly 1 (logit 0)
        let w0 = model.operation_importance();
        assert_eq!(w0.len(), 5);
        assert!(w0.iter().all(|&w| (w - 1.0).abs() < 1e-6));

        let s = session(&[(1, 0), (2, 1), (3, 2)]);
        let mut rng = Rng::seed_from_u64(8);
        model
            .logits(&s, true, &mut rng)
            .cross_entropy_single(4)
            .backward();
        assert!(
            model.op_importance.grad().is_some(),
            "importance weights must receive gradients"
        );
        // the extension adds exactly one parameter tensor
        let base = Embsr::new(EmbsrConfig::full(6, 4, 8));
        assert_eq!(model.parameters().len(), base.parameters().len() + 1);
    }

    #[test]
    fn op_weighting_off_keeps_importance_frozen() {
        let model = Embsr::new(EmbsrConfig::full(6, 4, 8));
        let s = session(&[(1, 0), (2, 1)]);
        let mut rng = Rng::seed_from_u64(9);
        model
            .logits(&s, true, &mut rng)
            .cross_entropy_single(3)
            .backward();
        assert!(model.op_importance.grad().is_none());
    }

    #[test]
    fn parameter_count_is_substantial() {
        let model = Embsr::new(EmbsrConfig::full(100, 10, 16));
        let n: usize = model.parameters().iter().map(Tensor::len).sum();
        assert!(n > 100 * 16, "suspiciously few parameters: {n}");
    }

    #[test]
    fn every_variant_has_zero_detached_parameters() {
        // parameters() must hand the optimizer exactly the tensors the
        // configured forward pass can reach; the graph validator verifies
        // this against the real loss graph for every paper variant.
        let s = session(&[(1, 0), (1, 1), (2, 0), (3, 2), (2, 1)]);
        let mut models = all_variants(6, 4, 8);
        models.push(Embsr::new(EmbsrConfig::full_op_weighted(6, 4, 8)));
        for model in models {
            let mut rng = Rng::seed_from_u64(10);
            let loss = model.logits(&s, true, &mut rng).cross_entropy_single(4);
            let report = embsr_tensor::verify::validate_training_graph(
                &loss,
                &model.parameters(),
                &[],
            );
            let detached = report.with_rule("detached-param");
            assert!(
                detached.is_empty(),
                "{}: {} detached parameter(s): {:?}",
                model.name(),
                detached.len(),
                detached
            );
        }
    }

    #[test]
    fn variant_parameter_lists_shrink_with_ablations() {
        let full = Embsr::new(EmbsrConfig::full(6, 4, 8)).parameters().len();
        let ns = Embsr::new(EmbsrConfig::ablation_ns(6, 4, 8)).parameters().len();
        let rnn = Embsr::new(EmbsrConfig::rnn_self(6, 4, 8)).parameters().len();
        assert!(ns < full, "no-attention variant must expose fewer tensors");
        assert!(rnn < full, "RNN backbone must not expose the GNN stack");
    }
}
