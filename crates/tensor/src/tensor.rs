//! The core [`Tensor`] type: a handle to a node in a dynamically built
//! computation graph.

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::shape::Shape;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Backward closure: receives the gradient flowing into this node and is
/// responsible for accumulating gradients into the node's parents (which it
/// captures by `Rc` clone).
pub(crate) type BackwardFn = Box<dyn Fn(&[f32])>;

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) shape: Shape,
    /// Name of the op that produced this node (`"leaf"` for leaves); consumed
    /// by the [`crate::verify`] graph validator for symbolic shape inference.
    pub(crate) op: &'static str,
    pub(crate) data: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Option<Vec<f32>>>,
    /// True for leaf parameters and for any node with a grad-requiring parent.
    pub(crate) requires_grad: bool,
    /// Parents are retained only when gradients are required, so inference
    /// does not build a graph.
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

impl Drop for Inner {
    /// Recycles the node's data and gradient buffers into the thread-local
    /// [`crate::pool`]. This is how the buffer pool is threaded through the
    /// autograd tape: when a batch's graph is released, every forward
    /// activation and remaining grad buffer returns to the free-list, so the
    /// next batch's ops allocate nothing fresh in steady state.
    ///
    /// Teardown is iterative: naively dropping `parents` (and the parent
    /// handles captured by `backward` closures) would recurse once per graph
    /// node and overflow the stack on deep chains. Instead, uniquely-owned
    /// ancestors have their parents and closures stolen into an explicit
    /// worklist. Closures are drained *before* the tensor handles they
    /// capture, so a closure drop never releases the last handle of a node
    /// that still has a populated parent list.
    fn drop(&mut self) {
        crate::pool::give(std::mem::take(self.data.get_mut()));
        if let Some(g) = self.grad.get_mut().take() {
            crate::pool::give(g);
        }
        if self.parents.is_empty() && self.backward.is_none() {
            return;
        }
        let mut tensors: Vec<Tensor> = std::mem::take(&mut self.parents);
        let mut fns: Vec<BackwardFn> = Vec::new();
        if let Some(f) = self.backward.take() {
            fns.push(f);
        }
        loop {
            if let Some(f) = fns.pop() {
                drop(f);
                continue;
            }
            let Some(mut t) = tensors.pop() else { break };
            if let Some(inner) = Rc::get_mut(&mut t.inner) {
                tensors.append(&mut inner.parents);
                if let Some(f) = inner.backward.take() {
                    fns.push(f);
                }
            }
        }
    }
}

/// A dense `f32` tensor participating in reverse-mode autodiff.
///
/// `Tensor` is a cheap `Rc` handle; cloning shares the underlying node.
/// Operations are defined in the `ops` modules as inherent methods.
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Rc<Inner>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a tensor from raw data. `data.len()` must equal the product of
    /// `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Self::leaf(data, shape, false)
    }

    /// A scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Self::leaf(vec![v], Shape::scalar(), false)
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        Self::leaf(vec![0.0; n], shape, false)
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        Self::leaf(vec![1.0; n], shape, false)
    }

    /// A tensor filled with `v`.
    pub fn full(dims: &[usize], v: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        Self::leaf(vec![v; n], shape, false)
    }

    /// Marks this tensor as a leaf that accumulates gradients. Returns a new
    /// handle sharing the same storage.
    ///
    /// Intended for trainable parameters and gradient checks.
    pub fn requires_grad(&self) -> Tensor {
        if self.inner.requires_grad {
            return self.clone();
        }
        Tensor {
            inner: Rc::new(Inner {
                // ordering: Relaxed — the RMW alone makes ids unique; they
                // order nothing else.
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                shape: self.inner.shape.clone(),
                op: "leaf",
                data: RefCell::new(self.inner.data.borrow().clone()),
                grad: RefCell::new(None),
                requires_grad: true,
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    pub(crate) fn leaf(data: Vec<f32>, shape: Shape, requires_grad: bool) -> Self {
        // Leaf buffers arrive from outside the pool (user vecs, `vec![..]`
        // constructors), so they are fresh heap allocations; count them under
        // the same fresh-allocation counters the pool maintains for op-buffer
        // misses. Leaves built from pooled buffers use [`Self::leaf_pooled`].
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("tensor.leaf_allocs").inc();
            embsr_obs::metrics::counter("tensor.alloc_count").inc();
            embsr_obs::metrics::counter("tensor.alloc_bytes")
                .add((data.len() * std::mem::size_of::<f32>()) as u64);
        }
        Self::leaf_raw(data, shape, requires_grad)
    }

    /// Leaf constructor for buffers obtained from the [`crate::pool`]
    /// (`detach`, masked softmax shifts): the pool already accounted for any
    /// fresh allocation at miss time, so only the leaf counter advances.
    pub(crate) fn leaf_pooled(data: Vec<f32>, shape: Shape, requires_grad: bool) -> Self {
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("tensor.leaf_allocs").inc();
        }
        Self::leaf_raw(data, shape, requires_grad)
    }

    fn leaf_raw(data: Vec<f32>, shape: Shape, requires_grad: bool) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                // ordering: Relaxed — uniqueness comes from the RMW itself.
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                shape,
                op: "leaf",
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad,
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// Creates a non-leaf node from an op. When no parent requires grad the
    /// parents and closure are dropped so the graph is not retained.
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        op: &'static str,
        backward: BackwardFn,
    ) -> Self {
        debug_assert_eq!(data.len(), shape.len());
        let requires_grad =
            !crate::inference::is_inference() && parents.iter().any(|p| p.inner.requires_grad);
        // Single central dispatch point for op telemetry: one relaxed-atomic
        // load when telemetry is off, so the hot path stays effectively free.
        // Fresh-allocation bytes are no longer counted here: op output
        // buffers come from the pool, which records `tensor.alloc_count` /
        // `tensor.alloc_bytes` only when a request misses the free-list.
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("tensor.ops_dispatched").inc();
            if requires_grad {
                embsr_obs::metrics::counter("tensor.graph_nodes_retained").inc();
            }
        }
        Tensor {
            inner: Rc::new(Inner {
                // ordering: Relaxed — uniqueness comes from the RMW itself.
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                shape,
                op,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad,
                parents: if requires_grad { parents } else { Vec::new() },
                backward: if requires_grad { Some(backward) } else { None },
            }),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.inner.shape.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows (matrix view).
    pub fn rows(&self) -> usize {
        self.inner.shape.rows()
    }

    /// Number of columns (matrix view).
    pub fn cols(&self) -> usize {
        self.inner.shape.cols()
    }

    /// Whether this node participates in gradient computation.
    pub fn is_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// Borrows the underlying data.
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.inner.data.borrow()
    }

    /// Copies the underlying data out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.data.borrow().clone()
    }

    /// The value of a scalar tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        let d = self.inner.data.borrow();
        assert_eq!(d.len(), 1, "item() on tensor with {} elements", d.len());
        d[0]
    }

    /// Element at `(row, col)` in the matrix view.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        let (_, c) = self.inner.shape.as_matrix();
        self.inner.data.borrow()[row * c + col]
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.inner.grad.borrow().clone()
    }

    /// Clears the accumulated gradient, recycling its buffer.
    pub fn zero_grad(&self) {
        if let Some(g) = self.inner.grad.borrow_mut().take() {
            crate::pool::give(g);
        }
    }

    /// In-place SGD-style update `data -= lr * delta` used by optimizers.
    ///
    /// # Panics
    /// Panics when `delta.len()` differs from the tensor length.
    pub fn apply_update(&self, delta: &[f32], lr: f32) {
        let mut d = self.inner.data.borrow_mut();
        assert_eq!(d.len(), delta.len());
        for (x, dx) in d.iter_mut().zip(delta) {
            *x -= lr * dx;
        }
    }

    /// Overwrites the tensor contents (used by dataset-dependent buffers).
    ///
    /// # Panics
    /// Panics when the length changes.
    pub fn set_data(&self, new: &[f32]) {
        let mut d = self.inner.data.borrow_mut();
        assert_eq!(d.len(), new.len(), "set_data length mismatch");
        d.copy_from_slice(new);
    }

    /// A stable identifier for deduplicating parameters.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Name of the op that produced this node (`"leaf"` for leaves and for
    /// nodes whose graph history was dropped because no input required
    /// gradients).
    pub fn op(&self) -> &'static str {
        self.inner.op
    }

    /// Handles to this node's recorded parents. Empty for leaves and for
    /// nodes built without gradient tracking (the tape only retains parents
    /// when some input requires gradients).
    pub fn parents(&self) -> Vec<Tensor> {
        self.inner.parents.clone()
    }

    /// True for nodes produced by an op with a recorded backward closure.
    pub fn is_op_node(&self) -> bool {
        self.inner.backward.is_some()
    }

    /// Accumulates `g` into this node's gradient buffer.
    pub(crate) fn accumulate_grad(&self, g: &[f32]) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                debug_assert_eq!(buf.len(), g.len());
                for (b, x) in buf.iter_mut().zip(g) {
                    *b += x;
                }
            }
            None => *slot = Some(crate::pool::take_copy(g)),
        }
    }

    /// Accumulates an owned gradient buffer. When the slot is empty the
    /// buffer is installed directly (no copy); otherwise it is added
    /// elementwise and returned to the pool. Backward closures that build
    /// their gradient in a pooled buffer use this so the buffer is never
    /// dropped on the floor.
    pub(crate) fn accumulate_grad_owned(&self, g: Vec<f32>) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                debug_assert_eq!(buf.len(), g.len());
                for (b, x) in buf.iter_mut().zip(&g) {
                    *b += x;
                }
                crate::pool::give(g);
            }
            None => *slot = Some(g),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.data.borrow();
        let preview: Vec<f32> = d.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={}, grad={}, data~{:?}{})",
            self.inner.shape,
            self.inner.requires_grad,
            preview,
            if d.len() > 8 { "…" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 3]);
    }

    #[test]
    fn requires_grad_marks_leaf() {
        let t = Tensor::zeros(&[3]).requires_grad();
        assert!(t.is_grad());
        assert!(t.grad().is_none());
    }

    #[test]
    fn accumulate_grad_adds() {
        let t = Tensor::zeros(&[2]).requires_grad();
        t.accumulate_grad(&[1.0, 2.0]);
        t.accumulate_grad(&[0.5, 0.5]);
        assert_eq!(t.grad().unwrap(), vec![1.5, 2.5]);
    }

    #[test]
    fn apply_update_subtracts() {
        let t = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        t.apply_update(&[0.5, -0.5], 0.1);
        assert_eq!(t.to_vec(), vec![0.95, 1.05]);
    }

    #[test]
    fn ops_without_grad_do_not_retain_parents() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        let c = a.add(&b);
        assert!(!c.is_grad());
        assert!(c.inner.parents.is_empty());
    }
}
