//! embsr-check layer 1: pre-backward autograd graph validation and a
//! universal finite-difference gradient checker.
//!
//! The whole reproduction rests on a hand-written autograd engine; a silent
//! shape or gradient bug corrupts every downstream table. This module makes
//! two classes of bugs loud *before* they corrupt a training run:
//!
//! * [`validate_graph`] / [`validate_training_graph`] walk the recorded tape
//!   from a loss root, re-infer every node's output shape symbolically from
//!   its parents' shapes and op name, and report structured [`Diagnostic`]s
//!   for rank/dim mismatches, optimizer parameters unreachable from the loss
//!   (detached subgraphs), tracked intermediates whose gradient is never
//!   consumed, and numerically hazardous patterns (`log`/`div` on unguarded
//!   inputs, raw `exp` in a differentiable graph).
//! * [`gradcheck`] plus the [`gradcheck_specs`] registry mechanically verify
//!   **every** op in `crates/tensor/src/ops/` against central finite
//!   differences at per-op tolerances over multiple seeds. The workspace
//!   lint (`cargo run -p xtask -- lint`) fails when an op file has no
//!   registry entry.
//!
// The module also has outer docs, so rustdoc resolves these links from the
// parent module; each names its target by full path.
//! [`validate_graph`]: crate::verify::validate_graph
//! [`validate_training_graph`]: crate::verify::validate_training_graph
//! [`Diagnostic`]: crate::verify::Diagnostic
//! [`gradcheck`]: crate::verify::gradcheck
//! [`gradcheck_specs`]: crate::verify::gradcheck_specs

use std::collections::HashSet;
use std::fmt;

use crate::rng::Rng;
use crate::shape::Shape;
use crate::tensor::Tensor;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How severe a validator finding is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// The graph is structurally wrong: backward would compute garbage (or
    /// panic). Training must not proceed.
    Error,
    /// The graph is suspicious (numerical hazard, dead subgraph) but
    /// backward is well-defined.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// A single structured finding from the graph validator.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule identifier (`shape-mismatch`, `detached-param`,
    /// `dead-gradient`, `hazard-log`, `hazard-exp`, `hazard-div`).
    pub rule: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Id of the offending graph node (see [`Tensor::id`]).
    pub node: u64,
    /// Op name of the offending node.
    pub op: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at node #{} ({}): {}",
            self.severity, self.rule, self.node, self.op, self.message
        )
    }
}

/// The outcome of a validation pass.
#[derive(Clone, Debug, Default)]
pub struct GraphReport {
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of graph nodes visited.
    pub nodes_visited: usize,
}

impl GraphReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True when the pass found no errors (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Findings filtered to one rule, for tests and targeted reporting.
    pub fn with_rule(&self, rule: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }
}

// ---------------------------------------------------------------------------
// Graph traversal
// ---------------------------------------------------------------------------

/// Every node reachable from `root` through recorded parents (iterative, so
/// deep chains cannot overflow the stack).
fn reachable(root: &Tensor) -> Vec<Tensor> {
    let mut out = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack = vec![root.clone()];
    seen.insert(root.id());
    while let Some(node) = stack.pop() {
        for p in node.parents() {
            if seen.insert(p.id()) {
                stack.push(p);
            }
        }
        out.push(node);
    }
    out
}

// ---------------------------------------------------------------------------
// Symbolic shape inference
// ---------------------------------------------------------------------------

/// Re-infers the output shape of `op` from its parents' shapes.
///
/// Returns `Ok(Some(shape))` when the output shape is fully determined,
/// `Ok(None)` when the op's output shape depends on data the tape does not
/// record (gather indices, reshape targets) — in which case only partial
/// consistency checks apply — and `Err` when the parent shapes themselves
/// are structurally incompatible with the op.
fn infer_shape(op: &str, parents: &[Shape], out: &Shape) -> Result<Option<Shape>, String> {
    let same_as_first = |ps: &[Shape]| -> Result<Option<Shape>, String> {
        match ps.first() {
            Some(s) => Ok(Some(s.clone())),
            None => Err("op with no recorded parents".into()),
        }
    };
    match op {
        // Elementwise binaries: same shape, or [n, d] ∘ [d]-row broadcast.
        "add" | "sub" | "mul" | "div" => {
            if parents.len() != 2 {
                return Err(format!("{op} expects 2 parents, tape has {}", parents.len()));
            }
            let (l, r) = (&parents[0], &parents[1]);
            if l == r {
                return Ok(Some(l.clone()));
            }
            if l.rank() > 2 || r.rank() > 2 {
                return Err(format!("elementwise {op} on rank>2 shapes {l} vs {r}"));
            }
            let (lr, lc) = l.as_matrix();
            let (rr, rc) = r.as_matrix();
            let row_broadcast = (lc == rc && rr == 1 && lr >= 1) || (r.rank() == 1 && r.len() == lc);
            if row_broadcast {
                Ok(Some(l.clone()))
            } else {
                Err(format!("incompatible elementwise shapes {l} vs {r}"))
            }
        }
        // Unary same-shape ops.
        "add_scalar" | "mul_scalar" | "sigmoid" | "tanh" | "relu" | "exp" | "log" | "sqrt"
        | "square" | "clamp" | "softmax_rows" | "log_softmax_rows" | "layer_norm_rows"
        | "l2_normalize_rows" | "normalize_scale_rows" => same_as_first(parents),
        "matmul" => {
            if parents.len() != 2 {
                return Err(format!("matmul expects 2 parents, tape has {}", parents.len()));
            }
            let (l, r) = (&parents[0], &parents[1]);
            if l.rank() != 2 || r.rank() != 2 {
                return Err(format!("matmul needs rank-2 operands, got {l} · {r}"));
            }
            let (m, k) = l.as_matrix();
            let (k2, n) = r.as_matrix();
            if k != k2 {
                return Err(format!("matmul inner dims disagree: {l} · {r}"));
            }
            Ok(Some(Shape::new(&[m, n])))
        }
        "matmul_nt" => {
            if parents.len() != 2 {
                return Err(format!("matmul_nt expects 2 parents, tape has {}", parents.len()));
            }
            let (l, r) = (&parents[0], &parents[1]);
            if l.rank() != 2 || r.rank() != 2 {
                return Err(format!("matmul_nt needs rank-2 operands, got {l} · {r}"));
            }
            let (m, k) = l.as_matrix();
            let (n, k2) = r.as_matrix();
            if k != k2 {
                return Err(format!("matmul_nt inner dims disagree: {l} · {r}"));
            }
            Ok(Some(Shape::new(&[m, n])))
        }
        "bmm" | "bmm_nt" => {
            if parents.len() != 2 {
                return Err(format!("{op} expects 2 parents, tape has {}", parents.len()));
            }
            let (l, r) = (&parents[0], &parents[1]);
            if l.rank() != 3 || r.rank() != 3 {
                return Err(format!("{op} needs rank-3 operands, got {l} · {r}"));
            }
            let (ld, rd) = (l.dims(), r.dims());
            if ld[0] != rd[0] {
                return Err(format!("{op} batch dims disagree: {l} vs {r}"));
            }
            // bmm:    [b, m, k] · [b, k, n] -> [b, m, n]
            // bmm_nt: [b, m, k] · [b, n, k] -> [b, m, n]
            let (k_l, k_r, n) = if op == "bmm" {
                (ld[2], rd[1], rd[2])
            } else {
                (ld[2], rd[2], rd[1])
            };
            if k_l != k_r {
                return Err(format!("{op} inner dims disagree: {l} · {r}"));
            }
            Ok(Some(Shape::new(&[ld[0], ld[1], n])))
        }
        "transpose" => {
            let p = parents.first().ok_or("transpose with no parent")?;
            if p.rank() != 2 {
                return Err(format!("transpose needs rank 2, got {p}"));
            }
            let (m, n) = p.as_matrix();
            Ok(Some(Shape::new(&[n, m])))
        }
        "sum" | "cross_entropy" => Ok(Some(Shape::scalar())),
        "mean_rows" => {
            let p = parents.first().ok_or("mean_rows with no parent")?;
            Ok(Some(Shape::new(&[p.cols()])))
        }
        "sum_cols" => {
            let p = parents.first().ok_or("sum_cols with no parent")?;
            Ok(Some(Shape::new(&[p.rows()])))
        }
        "reshape" => {
            let p = parents.first().ok_or("reshape with no parent")?;
            if p.len() != out.len() {
                return Err(format!("reshape changes element count: {p} -> {out}"));
            }
            Ok(None)
        }
        "gather_rows" => {
            let p = parents.first().ok_or("gather_rows with no parent")?;
            if p.rank() != 2 {
                return Err(format!("gather_rows needs rank-2 source, got {p}"));
            }
            if out.rank() != 2 || out.cols() != p.cols() {
                return Err(format!(
                    "gather_rows output {out} does not preserve source columns of {p}"
                ));
            }
            Ok(None)
        }
        "concat_rows" => {
            let first = parents.first().ok_or("concat_rows with no parents")?;
            let cols = first.cols();
            let mut rows = 0;
            for p in parents {
                if p.cols() != cols {
                    return Err(format!("concat_rows column mismatch: {first} vs {p}"));
                }
                rows += p.rows();
            }
            Ok(Some(Shape::new(&[rows, cols])))
        }
        "concat_cols" => {
            if parents.len() != 2 {
                return Err(format!(
                    "concat_cols expects 2 parents, tape has {}",
                    parents.len()
                ));
            }
            let total: usize = parents.iter().map(Shape::len).sum();
            if out.len() != total {
                return Err(format!(
                    "concat_cols output {out} does not hold {total} elements"
                ));
            }
            Ok(None)
        }
        // Unknown op (downstream crates may add their own): no inference.
        _ => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Validation passes
// ---------------------------------------------------------------------------

/// Ops that bound or shift their input enough to make a following `log` or
/// `div` denominator numerically safe.
fn is_guard(op: &str) -> bool {
    matches!(
        op,
        "clamp"
            | "add_scalar"
            | "softmax_rows"
            | "sigmoid"
            | "exp"
            | "l2_normalize_rows"
            | "normalize_scale_rows"
    )
}

fn check_node(node: &Tensor, diags: &mut Vec<Diagnostic>) {
    let parents = node.parents();
    if parents.is_empty() {
        return; // leaf or history-free node: nothing to re-infer
    }
    let parent_shapes: Vec<Shape> = parents.iter().map(|p| p.shape().clone()).collect();

    // Symbolic shape/rank inference against the recorded output shape.
    match infer_shape(node.op(), &parent_shapes, node.shape()) {
        Err(msg) => diags.push(Diagnostic {
            rule: "shape-mismatch",
            severity: Severity::Error,
            node: node.id(),
            op: node.op(),
            message: msg,
        }),
        Ok(Some(expected)) if &expected != node.shape() => diags.push(Diagnostic {
            rule: "shape-mismatch",
            severity: Severity::Error,
            node: node.id(),
            op: node.op(),
            message: format!(
                "recorded output shape {} but {}({}) infers {}",
                node.shape(),
                node.op(),
                parent_shapes
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                expected
            ),
        }),
        Ok(_) => {}
    }

    // Numerical hazard patterns.
    match node.op() {
        "log" if !is_guard(parents[0].op()) => diags.push(Diagnostic {
            rule: "hazard-log",
            severity: Severity::Warning,
            node: node.id(),
            op: "log",
            message: format!(
                "log of `{}` output without clamp/epsilon guard; \
                 a zero or negative input yields -inf/NaN gradients \
                 (prefer log_softmax_rows or clamp + add_scalar)",
                parents[0].op()
            ),
        }),
        "exp" => diags.push(Diagnostic {
            rule: "hazard-exp",
            severity: Severity::Warning,
            node: node.id(),
            op: "exp",
            message: "raw exp in a differentiable graph overflows for moderate inputs; \
                      normalizations should go through softmax_rows/log_softmax_rows, \
                      which subtract the row max"
                .into(),
        }),
        "div" if !is_guard(parents[1].op()) => diags.push(Diagnostic {
            rule: "hazard-div",
            severity: Severity::Warning,
            node: node.id(),
            op: "div",
            message: format!(
                "division by `{}` output without clamp/epsilon guard; \
                 an exactly-zero denominator yields inf/NaN gradients",
                parents[1].op()
            ),
        }),
        _ => {}
    }
}

/// Validates the recorded autograd graph rooted at `root` (usually the
/// scalar loss): symbolic shape inference per node plus numerical-hazard
/// pattern checks. Runs **before** backward, so structural bugs surface as
/// diagnostics instead of index panics mid-sweep.
pub fn validate_graph(root: &Tensor) -> GraphReport {
    let nodes = reachable(root);
    let mut diags = Vec::new();
    for n in &nodes {
        check_node(n, &mut diags);
    }
    diags.sort_by_key(|d| match d.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
    });
    GraphReport {
        diagnostics: diags,
        nodes_visited: nodes.len(),
    }
}

/// [`validate_graph`] plus optimizer↔graph reachability checks:
///
/// * every tensor in `params` (the optimizer's parameter list) must be
///   reachable from `root`, otherwise its gradient stays `None` forever and
///   the optimizer silently never updates it (`detached-param`);
/// * every tensor in `tracked` (intermediates the model registers for
///   inspection) that carries `requires_grad` history must be reachable,
///   otherwise its backward closure never runs and the gradient it would
///   produce is never consumed (`dead-gradient`).
pub fn validate_training_graph(
    root: &Tensor,
    params: &[Tensor],
    tracked: &[Tensor],
) -> GraphReport {
    let mut report = validate_graph(root);
    let reach: HashSet<u64> = reachable(root).iter().map(Tensor::id).collect();
    for p in params {
        if !reach.contains(&p.id()) {
            report.diagnostics.push(Diagnostic {
                rule: "detached-param",
                severity: Severity::Error,
                node: p.id(),
                op: p.op(),
                message: format!(
                    "optimizer parameter (shape {}) is unreachable from the loss; \
                     its gradient will never be populated and it will never train",
                    p.shape()
                ),
            });
        }
    }
    for t in tracked {
        if t.is_op_node() && !reach.contains(&t.id()) {
            report.diagnostics.push(Diagnostic {
                rule: "dead-gradient",
                severity: Severity::Warning,
                node: t.id(),
                op: t.op(),
                message: format!(
                    "tracked node (shape {}) does not feed the loss; \
                     its gradient is never consumed and its subgraph is dead weight",
                    t.shape()
                ),
            });
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Universal finite-difference gradcheck
// ---------------------------------------------------------------------------

/// Checks the analytic gradient of the scalar-valued `f` at `input` against
/// central finite differences.
///
/// Returns the maximum normalized error `|analytic - numeric| / (1 + |numeric|)`
/// over all input elements, or a description of the first element exceeding
/// `tol`.
pub fn gradcheck<F>(input: &Tensor, f: F, eps: f32, tol: f32) -> Result<f32, String>
where
    F: Fn(&Tensor) -> Tensor,
{
    let out = f(input);
    if out.len() != 1 {
        return Err(format!("gradcheck requires a scalar output, got {}", out.shape()));
    }
    out.backward();
    let analytic = input
        .grad()
        .ok_or("input received no gradient; was requires_grad() called?")?;

    let base = input.to_vec();
    let mut max_err = 0.0f32;
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus[i] += eps;
        let mut minus = base.clone();
        minus[i] -= eps;
        let fp = f(&Tensor::from_vec(plus, input.shape().dims())).to_vec()[0];
        let fm = f(&Tensor::from_vec(minus, input.shape().dims())).to_vec()[0];
        let numeric = (fp - fm) / (2.0 * eps);
        let err = (analytic[i] - numeric).abs() / (1.0 + numeric.abs());
        if err > tol {
            return Err(format!(
                "gradient mismatch at element {i}: analytic {} vs numeric {numeric} \
                 (normalized error {err:.2e} > tol {tol:.2e})",
                analytic[i]
            ));
        }
        max_err = max_err.max(err);
    }
    Ok(max_err)
}

/// One entry of the universal gradcheck registry: an op under test, the
/// input shape and domain to sample, and its finite-difference tolerance.
pub struct GradSpec {
    /// `"<ops file>::<case>"`, e.g. `"arith::add_lhs"`.
    pub name: &'static str,
    /// Source file stem under `crates/tensor/src/ops/` this case covers;
    /// the workspace lint requires every op file to appear at least once.
    pub file: &'static str,
    /// Input tensor dims.
    pub dims: &'static [usize],
    /// Inputs are sampled uniformly from `[lo, hi]` (ops like `log`, `sqrt`
    /// and division denominators need domains bounded away from zero).
    pub lo: f32,
    /// Upper bound of the sampling domain.
    pub hi: f32,
    /// Finite-difference step.
    pub eps: f32,
    /// Maximum allowed normalized error.
    pub tol: f32,
    /// Builds the scalar loss from the sampled input.
    pub build: fn(&Tensor) -> Tensor,
}

/// Deterministic pseudo-random constant tensor used by registry closures to
/// weight op outputs (a weighted sum catches transposed/permuted-gradient
/// bugs that a plain `.sum()` would miss).
fn weights(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_cafe);
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.uniform_range(-1.5, 1.5)).collect();
    Tensor::from_vec(data, dims)
}

/// Runs one registry entry over `seeds`, sampling a fresh input per seed.
/// Returns the worst normalized error seen, or the first failure.
pub fn run_gradcheck(spec: &GradSpec, seeds: &[u64]) -> Result<f32, String> {
    let mut worst = 0.0f32;
    for &seed in seeds {
        let mut rng = Rng::seed_from_u64(seed);
        let n: usize = spec.dims.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|_| rng.uniform_range(spec.lo, spec.hi))
            .collect();
        let input = Tensor::from_vec(data, spec.dims).requires_grad();
        match gradcheck(&input, spec.build, spec.eps, spec.tol) {
            Ok(err) => worst = worst.max(err),
            Err(e) => return Err(format!("{} (seed {seed}): {e}", spec.name)),
        }
    }
    Ok(worst)
}

/// The universal registry: every differentiable op in
/// `crates/tensor/src/ops/{activation,arith,extras,index,loss,matmul,norm,reduce}.rs`
/// with both gradient paths of binary ops covered.
pub fn gradcheck_specs() -> Vec<GradSpec> {
    fn w(dims: &[usize]) -> Tensor {
        weights(dims, 7)
    }
    vec![
        // ---- arith ----------------------------------------------------
        GradSpec {
            name: "arith::add_lhs",
            file: "arith",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.add(&weights(&[3, 4], 1)).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::add_rhs_row_broadcast",
            file: "arith",
            dims: &[4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[3, 4], 2).add(x).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::sub_lhs",
            file: "arith",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.sub(&weights(&[3, 4], 3)).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::sub_rhs_row_broadcast",
            file: "arith",
            dims: &[4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[3, 4], 4).sub(x).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::mul_lhs",
            file: "arith",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.mul(&weights(&[3, 4], 5)).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::mul_rhs_row_broadcast",
            file: "arith",
            dims: &[4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[3, 4], 6).mul(x).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::div_numerator",
            file: "arith",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| {
                // denominator bounded away from zero
                let d = weights(&[3, 4], 8).clamp(0.5, 2.0);
                x.div(&d).mul(&w(&[3, 4])).sum()
            },
        },
        GradSpec {
            name: "arith::div_denominator",
            file: "arith",
            dims: &[3, 4],
            lo: 0.5,
            hi: 2.0,
            eps: 1e-3,
            tol: 2e-2,
            build: |x| weights(&[3, 4], 9).div(x).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::div_denominator_row_broadcast",
            file: "arith",
            dims: &[4],
            lo: 0.5,
            hi: 2.0,
            eps: 1e-3,
            tol: 2e-2,
            build: |x| weights(&[3, 4], 10).div(x).mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "arith::add_scalar",
            file: "arith",
            dims: &[5],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.add_scalar(0.7).mul(&w(&[5])).sum(),
        },
        GradSpec {
            name: "arith::mul_scalar",
            file: "arith",
            dims: &[5],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.mul_scalar(-1.3).mul(&w(&[5])).sum(),
        },
        GradSpec {
            name: "arith::neg_one_minus",
            file: "arith",
            dims: &[5],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.neg().add(&x.one_minus()).mul(&w(&[5])).sum(),
        },
        GradSpec {
            name: "arith::reshape",
            file: "arith",
            dims: &[6],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.reshape(&[2, 3]).mul(&w(&[2, 3])).sum(),
        },
        // ---- matmul ---------------------------------------------------
        GradSpec {
            name: "matmul::lhs",
            file: "matmul",
            dims: &[3, 4],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.matmul(&weights(&[4, 2], 11)).mul(&w(&[3, 2])).sum(),
        },
        GradSpec {
            name: "matmul::rhs",
            file: "matmul",
            dims: &[4, 2],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[3, 4], 12).matmul(x).mul(&w(&[3, 2])).sum(),
        },
        GradSpec {
            name: "matmul::matmul_nt_lhs",
            file: "matmul",
            dims: &[3, 4],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.matmul_nt(&weights(&[2, 4], 11)).mul(&w(&[3, 2])).sum(),
        },
        GradSpec {
            name: "matmul::matmul_nt_rhs",
            file: "matmul",
            dims: &[2, 4],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[3, 4], 12).matmul_nt(x).mul(&w(&[3, 2])).sum(),
        },
        GradSpec {
            name: "matmul::bmm_lhs",
            file: "matmul",
            dims: &[2, 3, 4],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            // weighted sums go through a rank-2 reshape: elementwise ops
            // (and their row-broadcast analysis) are defined on matrices
            build: |x| x.bmm(&weights(&[2, 4, 2], 19)).reshape(&[6, 2]).mul(&w(&[6, 2])).sum(),
        },
        GradSpec {
            name: "matmul::bmm_rhs",
            file: "matmul",
            dims: &[2, 4, 2],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[2, 3, 4], 20).bmm(x).reshape(&[6, 2]).mul(&w(&[6, 2])).sum(),
        },
        GradSpec {
            name: "matmul::bmm_nt_lhs",
            file: "matmul",
            dims: &[2, 3, 4],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.bmm_nt(&weights(&[2, 2, 4], 21)).reshape(&[6, 2]).mul(&w(&[6, 2])).sum(),
        },
        GradSpec {
            name: "matmul::bmm_nt_rhs",
            file: "matmul",
            dims: &[2, 2, 4],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[2, 3, 4], 22).bmm_nt(x).reshape(&[6, 2]).mul(&w(&[6, 2])).sum(),
        },
        // ---- fused ----------------------------------------------------
        GradSpec {
            name: "fused::normalize_scale_rows",
            file: "fused",
            dims: &[2, 6],
            lo: -1.5,
            hi: 1.5,
            eps: 1e-3,
            tol: 2e-2,
            build: |x| x.normalize_scale_rows(1e-12, 12.0).mul(&w(&[2, 6])).sum(),
        },
        GradSpec {
            name: "matmul::transpose",
            file: "matmul",
            dims: &[2, 5],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.transpose().mul(&w(&[5, 2])).sum(),
        },
        GradSpec {
            name: "matmul::dot",
            file: "matmul",
            dims: &[6],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.dot(&weights(&[6], 13)),
        },
        // ---- activation -----------------------------------------------
        GradSpec {
            name: "activation::sigmoid",
            file: "activation",
            dims: &[6],
            lo: -3.0,
            hi: 3.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.sigmoid().mul(&w(&[6])).sum(),
        },
        GradSpec {
            name: "activation::tanh",
            file: "activation",
            dims: &[6],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.tanh().mul(&w(&[6])).sum(),
        },
        GradSpec {
            name: "activation::relu",
            file: "activation",
            dims: &[6],
            // sampled away from the kink at 0, where the subgradient makes
            // finite differences disagree by construction
            lo: 0.2,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.relu().mul(&w(&[6])).sum(),
        },
        GradSpec {
            name: "activation::exp",
            file: "activation",
            dims: &[6],
            lo: -1.0,
            hi: 1.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.exp().mul(&w(&[6])).sum(),
        },
        GradSpec {
            name: "activation::log",
            file: "activation",
            dims: &[6],
            lo: 0.5,
            hi: 2.5,
            eps: 1e-3,
            tol: 2e-2,
            build: |x| x.log().mul(&w(&[6])).sum(),
        },
        GradSpec {
            name: "activation::sqrt",
            file: "activation",
            dims: &[6],
            lo: 0.5,
            hi: 2.5,
            eps: 1e-3,
            tol: 2e-2,
            build: |x| x.sqrt().mul(&w(&[6])).sum(),
        },
        GradSpec {
            name: "activation::square",
            file: "activation",
            dims: &[6],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.square().mul(&w(&[6])).sum(),
        },
        // ---- reduce ---------------------------------------------------
        GradSpec {
            name: "reduce::sum_mean",
            file: "reduce",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.sum().add(&x.mean()),
        },
        GradSpec {
            name: "reduce::mean_rows",
            file: "reduce",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.mean_rows().mul(&w(&[4])).sum(),
        },
        GradSpec {
            name: "reduce::sum_cols",
            file: "reduce",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.sum_cols().mul(&w(&[3])).sum(),
        },
        GradSpec {
            name: "reduce::sum_rows",
            file: "reduce",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.sum_rows().mul(&w(&[4])).sum(),
        },
        // ---- norm -----------------------------------------------------
        GradSpec {
            name: "norm::softmax_rows",
            file: "norm",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 2e-2,
            build: |x| x.softmax_rows().mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "norm::log_softmax_rows",
            file: "norm",
            dims: &[3, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 2e-2,
            build: |x| x.log_softmax_rows().mul(&w(&[3, 4])).sum(),
        },
        GradSpec {
            name: "norm::layer_norm_rows",
            file: "norm",
            dims: &[2, 6],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 5e-2,
            build: |x| x.layer_norm_rows(1e-5).mul(&w(&[2, 6])).sum(),
        },
        GradSpec {
            name: "norm::l2_normalize_rows",
            file: "norm",
            dims: &[2, 6],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 2e-2,
            build: |x| x.l2_normalize_rows(1e-12).mul(&w(&[2, 6])).sum(),
        },
        GradSpec {
            name: "norm::softmax_rank1",
            file: "norm",
            dims: &[5],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 2e-2,
            build: |x| x.softmax().mul(&w(&[5])).sum(),
        },
        // ---- loss -----------------------------------------------------
        GradSpec {
            name: "loss::cross_entropy",
            file: "loss",
            dims: &[3, 5],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 2e-2,
            build: |x| x.cross_entropy(&[2, 0, 4]),
        },
        GradSpec {
            name: "loss::cross_entropy_single",
            file: "loss",
            dims: &[7],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 2e-2,
            build: |x| x.cross_entropy_single(3),
        },
        // ---- index ----------------------------------------------------
        GradSpec {
            name: "index::gather_rows_with_repeats",
            file: "index",
            dims: &[4, 3],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.gather_rows(&[1, 3, 1, 0]).mul(&w(&[4, 3])).sum(),
        },
        GradSpec {
            name: "index::row_slice_rows",
            file: "index",
            dims: &[4, 3],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| {
                x.row(2)
                    .mul(&w(&[3]))
                    .sum()
                    .add(&x.slice_rows(0, 2).mul(&weights(&[2, 3], 14)).sum())
            },
        },
        GradSpec {
            name: "index::segment_sum",
            file: "index",
            dims: &[5, 3],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.segment_sum(&[2, 0, 2, 3, 0], 4).mul(&w(&[4, 3])).sum(),
        },
        GradSpec {
            name: "index::concat_rows",
            file: "index",
            dims: &[2, 3],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| {
                Tensor::concat_rows(&[x.clone(), weights(&[1, 3], 15)])
                    .mul(&w(&[3, 3]))
                    .sum()
            },
        },
        GradSpec {
            name: "index::concat_cols_lhs",
            file: "index",
            dims: &[2, 3],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| x.concat_cols(&weights(&[2, 2], 16)).mul(&w(&[2, 5])).sum(),
        },
        GradSpec {
            name: "index::concat_cols_rhs",
            file: "index",
            dims: &[2, 2],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| weights(&[2, 3], 17).concat_cols(x).mul(&w(&[2, 5])).sum(),
        },
        GradSpec {
            name: "index::stack_rows",
            file: "index",
            dims: &[4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 1e-2,
            build: |x| {
                Tensor::stack_rows(&[x.clone(), weights(&[4], 18)])
                    .mul(&w(&[2, 4]))
                    .sum()
            },
        },
        // ---- extras ---------------------------------------------------
        GradSpec {
            name: "extras::clamp_interior",
            file: "extras",
            // sampled strictly inside the clamp range so the finite
            // difference never straddles the non-differentiable bound
            dims: &[6],
            lo: -0.8,
            hi: 0.8,
            eps: 1e-3,
            tol: 1e-2,
            build: |x| x.clamp(-1.0, 1.0).mul(&w(&[6])).sum(),
        },
        GradSpec {
            name: "extras::masked_softmax_rows",
            file: "extras",
            dims: &[2, 4],
            lo: -2.0,
            hi: 2.0,
            eps: 1e-2,
            tol: 2e-2,
            build: |x| {
                x.masked_softmax_rows(&[1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
                    .mul(&w(&[2, 4]))
                    .sum()
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    // ---- validator fixtures (one diagnostic each) ----------------------

    #[test]
    fn detached_parameter_yields_exactly_one_diagnostic() {
        let used = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let unused = Tensor::from_vec(vec![3.0], &[1]).requires_grad();
        let loss = used.square().sum();
        let report =
            validate_training_graph(&loss, &[used.clone(), unused.clone()], &[]);
        let hits = report.with_rule("detached-param");
        assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(hits[0].node, unused.id());
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(!report.is_clean());
    }

    #[test]
    fn dead_gradient_yields_exactly_one_diagnostic() {
        let x = Tensor::from_vec(vec![0.5, -0.5], &[2]).requires_grad();
        let dead = x.sigmoid(); // built, never used in the loss
        let loss = x.square().sum();
        let report = validate_training_graph(
            &loss,
            std::slice::from_ref(&x),
            std::slice::from_ref(&dead),
        );
        let hits = report.with_rule("dead-gradient");
        assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(hits[0].node, dead.id());
        assert_eq!(hits[0].severity, Severity::Warning);
        // a dead gradient is a warning: the pass itself stays clean
        assert!(report.is_clean());
    }

    #[test]
    fn shape_mismatch_yields_exactly_one_diagnostic() {
        // Hand-assemble a tape node whose recorded shape contradicts what
        // matmul([2,3]·[3,2]) must produce. Element count matches, so the
        // constructor's debug assertion passes — only symbolic inference
        // can catch it.
        let a = Tensor::zeros(&[2, 3]).requires_grad();
        let b = Tensor::zeros(&[3, 2]).requires_grad();
        let bad = Tensor::from_op(
            vec![0.0; 4],
            Shape::new(&[4]),
            vec![a.clone(), b.clone()],
            "matmul",
            Box::new(|_| {}),
        );
        let report = validate_graph(&bad);
        let hits = report.with_rule("shape-mismatch");
        assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
        assert!(hits[0].message.contains("[2, 2]"), "{}", hits[0].message);
        assert!(!report.is_clean());
    }

    #[test]
    fn incompatible_matmul_parents_are_an_error() {
        let a = Tensor::zeros(&[2, 3]).requires_grad();
        let b = Tensor::zeros(&[4, 2]).requires_grad(); // inner dims 3 vs 4
        let bad = Tensor::from_op(
            vec![0.0; 4],
            Shape::new(&[2, 2]),
            vec![a, b],
            "matmul",
            Box::new(|_| {}),
        );
        let report = validate_graph(&bad);
        assert_eq!(report.with_rule("shape-mismatch").len(), 1);
    }

    #[test]
    fn clean_graph_validates_clean() {
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], &[2, 2]).requires_grad();
        let w = Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.5], &[2, 2]).requires_grad();
        let loss = x.matmul(&w).softmax_rows().cross_entropy(&[0, 1]);
        let report = validate_training_graph(&loss, &[x, w], &[]);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.nodes_visited >= 4);
    }

    // ---- hazard patterns -----------------------------------------------

    #[test]
    fn unguarded_log_warns_and_guarded_log_does_not() {
        let x = Tensor::from_vec(vec![0.5, 1.5], &[2]).requires_grad();
        let raw = x.mul_scalar(1.0).log().sum();
        assert_eq!(validate_graph(&raw).with_rule("hazard-log").len(), 1);

        let guarded = x.clamp(1e-6, f32::INFINITY).log().sum();
        assert_eq!(validate_graph(&guarded).with_rule("hazard-log").len(), 0);
        let eps_guarded = x.square().add_scalar(1e-6).log().sum();
        assert_eq!(validate_graph(&eps_guarded).with_rule("hazard-log").len(), 0);
    }

    #[test]
    fn unguarded_division_warns() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let denom = x.mul_scalar(2.0);
        let report = validate_graph(&x.div(&denom).sum());
        assert_eq!(report.with_rule("hazard-div").len(), 1);

        let safe = x.div(&x.square().add_scalar(1e-6)).sum();
        assert_eq!(validate_graph(&safe).with_rule("hazard-div").len(), 0);
    }

    #[test]
    fn raw_exp_in_graph_warns() {
        let x = Tensor::from_vec(vec![1.0], &[1]).requires_grad();
        let report = validate_graph(&x.exp().sum());
        assert_eq!(report.with_rule("hazard-exp").len(), 1);
        assert_eq!(report.warning_count(), 1);
    }

    // ---- gradcheck harness ---------------------------------------------

    #[test]
    fn gradcheck_accepts_correct_gradient() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]).requires_grad();
        let err = gradcheck(&x, |x| x.square().sum(), 1e-2, 1e-2).expect("must pass");
        assert!(err <= 1e-2);
    }

    #[test]
    fn gradcheck_rejects_wrong_gradient() {
        // sum() has gradient 1 everywhere; scale the loss *data* without a
        // matching backward by hand-assembling the node.
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let result = gradcheck(
            &x,
            |x| {
                let s: f32 = x.data().iter().sum();
                let p = x.clone();
                Tensor::from_op(
                    vec![2.0 * s],
                    Shape::scalar(),
                    vec![x.clone()],
                    "sum",
                    Box::new(move |g| p.accumulate_grad_public(&[g[0], g[0]])),
                )
            },
            1e-2,
            1e-2,
        );
        assert!(result.is_err(), "wrong gradient must be rejected");
    }

    #[test]
    fn registry_covers_every_ops_file() {
        let specs = gradcheck_specs();
        for stem in [
            "activation",
            "arith",
            "extras",
            "index",
            "loss",
            "matmul",
            "norm",
            "reduce",
        ] {
            assert!(
                specs.iter().any(|s| s.file == stem),
                "no gradcheck entry covers ops/{stem}.rs"
            );
        }
    }
}
