//! Parameter checkpointing and the tensor list, the one weight encoding.
//!
//! Every weight file stores its parameters as a **tensor list**, encoded by
//! [`encode_tensors`] and decoded by [`decode_tensors`] on byte slices:
//!
//! ```text
//! u32 tensor count | per tensor: u32 rank | u64 dims… | f32 LE data…
//! ```
//!
//! A training checkpoint is that list behind a magic and a version:
//!
//! ```text
//! magic "EMBSRCKP" | u32 version | tensor list
//! ```
//!
//! and `embsr_serve`'s `EMBSRSNP` serving snapshot wraps the same list with
//! the serving horizon. Loading decodes the whole list against the
//! receiver's shapes first and imports only then, so a load that fails
//! leaves every parameter untouched.
//!
//! Tensors are matched **by position**, so the loading model must be built
//! with the same configuration as the saving one (the usual contract for
//! weight files). The shape check refuses a different configuration or a
//! reordered parameter list, but it cannot tell apart two tensors of the
//! same shape: a list with two such tensors swapped loads them into each
//! other's place.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use embsr_tensor::{import_params, AdamParamState, Tensor};

use crate::parallel::TrainState;
use crate::recommender::SessionModel;
use crate::trainer::EpochStats;

const MAGIC: &[u8; 8] = b"EMBSRCKP";
const VERSION: u32 = 1;

const STATE_MAGIC: &[u8; 8] = b"EMBSRTRS";
const STATE_VERSION: u32 = 1;

/// How a tensor list differs from the shapes it was decoded against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutMismatch {
    /// The list holds `got` tensors; the receiver has `expected`.
    Count { expected: usize, got: usize },
    /// Tensor `index` is the first whose rank or dims differ.
    Shape {
        index: usize,
        expected: Vec<usize>,
        got: Vec<u64>,
    },
}

impl fmt::Display for LayoutMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutMismatch::Count { expected, got } => {
                write!(f, "weights hold {got} tensors, model has {expected}")
            }
            LayoutMismatch::Shape {
                index,
                expected,
                got,
            } => write!(
                f,
                "tensor {index}: weights have shape {got:?}, model has shape {expected:?}"
            ),
        }
    }
}

/// Why bytes failed to decode as a tensor list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The tensor count or a tensor's shape differs from the receiver's.
    Layout(LayoutMismatch),
    /// The bytes end inside the list, or run on past its last tensor.
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Layout(m) => m.fmt(f),
            DecodeError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        bad(&e.to_string())
    }
}

/// The shape of every tensor in `params`, in list order: what
/// [`decode_tensors`] checks a tensor list against.
pub fn param_shapes(params: &[Tensor]) -> Vec<Vec<usize>> {
    params.iter().map(|p| p.shape().dims().to_vec()).collect()
}

/// Appends the tensor-list encoding of `tensors` to `out`.
pub fn encode_tensors(tensors: &[Tensor], out: &mut Vec<u8>) {
    let size: usize = tensors
        .iter()
        .map(|t| 4 + 8 * t.shape().dims().len() + 4 * t.len())
        .sum();
    out.reserve(4 + size);
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        let dims = t.shape().dims();
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for v in t.data().iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decodes a tensor list written by [`encode_tensors`] against the
/// receiver's parameter `shapes` and returns its weights as one flat buffer
/// in list order, the layout `import_params` takes. It writes to no tensor.
///
/// The count, and each tensor's rank and dims, are compared with `shapes`
/// before any of that tensor's data is read, so no size is ever computed
/// from a dim the receiver does not have; the sizes that are computed use
/// checked arithmetic. The bytes must end exactly after the last tensor.
///
/// Shapes cannot tell apart two tensors of the same shape: a list with two
/// such tensors swapped decodes without error.
///
/// # Errors
/// [`DecodeError::Layout`] names the count or the first tensor that
/// differs from `shapes`; [`DecodeError::Malformed`] reports truncated or
/// trailing bytes.
pub fn decode_tensors(bytes: &[u8], shapes: &[Vec<usize>]) -> Result<Vec<f32>, DecodeError> {
    let mut r = bytes;
    let count = u32::from_le_bytes(take(&mut r, "tensor count")?) as usize;
    if count != shapes.len() {
        return Err(DecodeError::Layout(LayoutMismatch::Count {
            expected: shapes.len(),
            got: count,
        }));
    }
    let mut flat = Vec::with_capacity(bytes.len() / 4);
    for (index, expected) in shapes.iter().enumerate() {
        let rank = u32::from_le_bytes(take(&mut r, "tensor rank")?);
        let got = (0..rank)
            .map(|_| take(&mut r, "tensor dims").map(u64::from_le_bytes))
            .collect::<Result<Vec<u64>, _>>()?;
        if !got.iter().copied().eq(expected.iter().map(|&d| d as u64)) {
            return Err(DecodeError::Layout(LayoutMismatch::Shape {
                index,
                expected: expected.clone(),
                got,
            }));
        }
        let size = expected.iter().try_fold(4usize, |n, &d| n.checked_mul(d));
        let Some(data) = size.and_then(|n| r.get(..n)) else {
            return Err(DecodeError::Malformed(format!(
                "tensor {index}: truncated data"
            )));
        };
        r = &r[data.len()..];
        flat.extend(
            data.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
    if !r.is_empty() {
        return Err(DecodeError::Malformed(format!(
            "{} bytes after the last tensor",
            r.len()
        )));
    }
    Ok(flat)
}

/// Splits `N` bytes off the front of `r`.
fn take<const N: usize>(r: &mut &[u8], what: &str) -> Result<[u8; N], DecodeError> {
    let (head, rest) = r
        .split_first_chunk::<N>()
        .ok_or_else(|| DecodeError::Malformed(format!("truncated {what}")))?;
    *r = rest;
    Ok(*head)
}

/// Writes the parameters of `model` to `path`.
pub fn save_model<M: SessionModel>(model: &M, path: &Path) -> io::Result<()> {
    save_tensors(&model.parameters(), path)
}

/// Restores the parameters of `model` from `path`.
///
/// # Errors
/// Fails, leaving every parameter untouched, when the file is malformed or
/// its parameter shapes do not match the model's.
pub fn load_model<M: SessionModel>(model: &M, path: &Path) -> io::Result<()> {
    load_tensors(&model.parameters(), path)
}

/// Writes a list of tensors to `path`.
pub fn save_tensors(tensors: &[Tensor], path: &Path) -> io::Result<()> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    encode_tensors(tensors, &mut bytes);
    std::fs::write(path, bytes)
}

/// Reads tensors from `path` into the given (already allocated) tensors.
/// The whole file is decoded before any tensor is written.
///
/// # Errors
/// Fails, leaving every tensor untouched, when the file is malformed or
/// its shapes do not match `tensors`.
pub fn load_tensors(tensors: &[Tensor], path: &Path) -> io::Result<()> {
    let bytes = std::fs::read(path)?;
    let mut r = bytes
        .strip_prefix(MAGIC)
        .ok_or_else(|| bad("not an EMBSR checkpoint (bad magic)"))?;
    let version = u32::from_le_bytes(take(&mut r, "checkpoint version")?);
    if version != VERSION {
        return Err(bad(&format!("unsupported checkpoint version {version}")));
    }
    import_params(tensors, &decode_tensors(r, &param_shapes(tensors))?);
    Ok(())
}

/// Writes a resumable [`TrainState`] to `path`:
///
/// ```text
/// magic "EMBSRTRS" | u32 version | u64 next_epoch | u64 adam_t |
/// f32 best_val | u64 since_best | u64 best_epoch | u8 early_stopped |
/// params: u32 count, per vec (u64 len, f32 data…) |
/// adam m: same framing | adam v: same framing |
/// u8 has_best_weights, best weights: same framing |
/// epochs: u64 count, per epoch (u64 epoch, f32 train_loss, f32 val_loss,
///   f64 duration_s, f32 grad_norm, f32 lr)
/// ```
pub fn save_train_state(state: &TrainState, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(STATE_MAGIC)?;
    w.write_all(&STATE_VERSION.to_le_bytes())?;
    w.write_all(&(state.next_epoch as u64).to_le_bytes())?;
    w.write_all(&state.adam_t.to_le_bytes())?;
    w.write_all(&state.best_val.to_le_bytes())?;
    w.write_all(&(state.since_best as u64).to_le_bytes())?;
    w.write_all(&(state.best_epoch as u64).to_le_bytes())?;
    w.write_all(&[u8::from(state.early_stopped)])?;
    write_vecs(&mut w, &state.params)?;
    let (ms, vs): (Vec<&Vec<f32>>, Vec<&Vec<f32>>) =
        state.adam_moments.iter().map(|st| (&st.m, &st.v)).unzip();
    write_vec_refs(&mut w, &ms)?;
    write_vec_refs(&mut w, &vs)?;
    match &state.best_weights {
        Some(best) => {
            w.write_all(&[1u8])?;
            write_vecs(&mut w, best)?;
        }
        None => w.write_all(&[0u8])?,
    }
    w.write_all(&(state.epochs.len() as u64).to_le_bytes())?;
    for e in &state.epochs {
        w.write_all(&(e.epoch as u64).to_le_bytes())?;
        w.write_all(&e.train_loss.to_le_bytes())?;
        w.write_all(&e.val_loss.to_le_bytes())?;
        w.write_all(&e.duration_s.to_le_bytes())?;
        w.write_all(&e.grad_norm.to_le_bytes())?;
        w.write_all(&e.lr.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a [`TrainState`] written by [`save_train_state`].
///
/// # Errors
/// Fails when the file is malformed, truncated, or internally inconsistent
/// (Adam moment counts must match the parameter count).
pub fn load_train_state(path: &Path) -> io::Result<TrainState> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != STATE_MAGIC {
        return Err(bad("not an EMBSR train state (bad magic)"));
    }
    let version = read_u32(&mut r)?;
    if version != STATE_VERSION {
        return Err(bad(&format!("unsupported train-state version {version}")));
    }
    let next_epoch = read_u64(&mut r)? as usize;
    let adam_t = read_u64(&mut r)?;
    let best_val = read_f32(&mut r)?;
    let since_best = read_u64(&mut r)? as usize;
    let best_epoch = read_u64(&mut r)? as usize;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let early_stopped = flag[0] != 0;
    let params = read_vecs(&mut r)?;
    let ms = read_vecs(&mut r)?;
    let vs = read_vecs(&mut r)?;
    if ms.len() != params.len() || vs.len() != params.len() {
        return Err(bad(&format!(
            "Adam moment counts {}/{} vs {} parameters",
            ms.len(),
            vs.len(),
            params.len()
        )));
    }
    let adam_moments = ms
        .into_iter()
        .zip(vs)
        .map(|(m, v)| AdamParamState { m, v })
        .collect();
    r.read_exact(&mut flag)?;
    let best_weights = if flag[0] != 0 {
        Some(read_vecs(&mut r)?)
    } else {
        None
    };
    let n_epochs = read_u64(&mut r)? as usize;
    let mut epochs = Vec::with_capacity(n_epochs.min(1 << 20));
    for _ in 0..n_epochs {
        epochs.push(EpochStats {
            epoch: read_u64(&mut r)? as usize,
            train_loss: read_f32(&mut r)?,
            val_loss: read_f32(&mut r)?,
            duration_s: read_f64(&mut r)?,
            grad_norm: read_f32(&mut r)?,
            lr: read_f32(&mut r)?,
        });
    }
    Ok(TrainState {
        next_epoch,
        params,
        adam_t,
        adam_moments,
        best_val,
        since_best,
        best_epoch,
        early_stopped,
        best_weights,
        epochs,
    })
}

fn write_vecs(w: &mut impl Write, vecs: &[Vec<f32>]) -> io::Result<()> {
    let refs: Vec<&Vec<f32>> = vecs.iter().collect();
    write_vec_refs(w, &refs)
}

fn write_vec_refs(w: &mut impl Write, vecs: &[&Vec<f32>]) -> io::Result<()> {
    w.write_all(&(vecs.len() as u32).to_le_bytes())?;
    for v in vecs {
        w.write_all(&(v.len() as u64).to_le_bytes())?;
        for x in v.iter() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_vecs(r: &mut impl Read) -> io::Result<Vec<Vec<f32>>> {
    let count = read_u32(r)? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let len = read_u64(r)?;
        if len > (1 << 28) {
            return Err(bad("train-state vector length is implausibly large"));
        }
        let mut v = vec![0.0f32; len as usize];
        let mut buf = [0u8; 4];
        for x in &mut v {
            r.read_exact(&mut buf)?;
            *x = f32::from_le_bytes(buf);
        }
        out.push(v);
    }
    Ok(out)
}

fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("embsr_ckpt_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_values_and_shapes() {
        let a = Tensor::from_vec(vec![1.5, -2.5, 3.0, 0.0], &[2, 2]).requires_grad();
        let b = Tensor::from_vec(vec![9.0; 3], &[3]).requires_grad();
        let path = tmp("roundtrip");
        save_tensors(&[a.clone(), b.clone()], &path).unwrap();

        let a2 = Tensor::zeros(&[2, 2]).requires_grad();
        let b2 = Tensor::zeros(&[3]).requires_grad();
        load_tensors(&[a2.clone(), b2.clone()], &path).unwrap();
        assert_eq!(a2.to_vec(), a.to_vec());
        assert_eq!(b2.to_vec(), b.to_vec());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Tensor::ones(&[2, 2]);
        let path = tmp("mismatch");
        save_tensors(&[a], &path).unwrap();
        let wrong = Tensor::zeros(&[4]);
        let err = load_tensors(&[wrong], &path).unwrap_err();
        assert!(err.to_string().contains("shape"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let a = Tensor::ones(&[1]);
        let path = tmp("count");
        save_tensors(&[a], &path).unwrap();
        let err = load_tensors(&[Tensor::zeros(&[1]), Tensor::zeros(&[1])], &path).unwrap_err();
        assert!(err.to_string().contains("tensors"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let err = load_tensors(&[Tensor::zeros(&[1])], &path).unwrap_err();
        assert!(err.to_string().contains("magic"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn one_tensor_checkpoint_has_the_golden_bytes() {
        let path = tmp("golden");
        save_tensors(&[Tensor::from_vec(vec![1.0, -2.0], &[1, 2])], &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        let mut want = b"EMBSRCKP".to_vec();
        for word in [1u32, 1, 2] {
            want.extend_from_slice(&word.to_le_bytes()); // version, count, rank
        }
        for dim in [1u64, 2] {
            want.extend_from_slice(&dim.to_le_bytes());
        }
        want.extend_from_slice(&[0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0]);
        assert_eq!(bytes, want);
    }

    /// A tensor list with one tensor of the given rank word, dims and
    /// payload, built by hand so it can lie.
    fn hand_list(count: u32, rank: u32, dims: &[u64], payload: &[u8]) -> Vec<u8> {
        let mut out = count.to_le_bytes().to_vec();
        out.extend_from_slice(&rank.to_le_bytes());
        for d in dims {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn hostile_tensor_lists_are_refused_without_panicking() {
        let shapes = vec![vec![2, 2]];
        let data = [0u8; 16];
        let good = hand_list(1, 2, &[2, 2], &data);
        assert_eq!(decode_tensors(&good, &shapes).unwrap(), vec![0.0; 4]);

        // dims whose product overflows are compared, never multiplied
        let huge = 1u64 << 62;
        let err = decode_tensors(&hand_list(1, 2, &[huge, huge], &data), &shapes).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Layout(LayoutMismatch::Shape {
                index: 0,
                expected: vec![2, 2],
                got: vec![huge, huge],
            })
        );
        // a count or rank word far past the bytes that follow it
        let err = decode_tensors(&hand_list(u32::MAX, 2, &[2, 2], &data), &shapes).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Layout(LayoutMismatch::Count {
                expected: 1,
                got: u32::MAX as usize,
            })
        );
        let err = decode_tensors(&hand_list(1, u32::MAX, &[2, 2], &data), &shapes).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(_)), "{err:?}");
        // truncated payload, truncated header, trailing bytes
        for bytes in [
            &good[..good.len() - 1],
            &good[..6],
            &[good.as_slice(), &[0]].concat(),
        ] {
            let err = decode_tensors(bytes, &shapes).unwrap_err();
            assert!(matches!(err, DecodeError::Malformed(_)), "{err:?}");
        }
        // a shape is checked before the data behind it is read
        let err = decode_tensors(&hand_list(1, 1, &[4], &[]), &shapes).unwrap_err();
        assert!(err.to_string().contains("[4]") && err.to_string().contains("[2, 2]"));
    }

    fn sample_state() -> TrainState {
        TrainState {
            next_epoch: 3,
            params: vec![vec![1.0, -2.5, f32::MIN_POSITIVE], vec![0.0; 2]],
            adam_t: 17,
            adam_moments: vec![
                AdamParamState {
                    m: vec![0.1, 0.2, 0.3],
                    v: vec![0.4, 0.5, 0.6],
                },
                AdamParamState {
                    m: vec![0.7, 0.8],
                    v: vec![0.9, 1.0],
                },
            ],
            best_val: 0.75,
            since_best: 1,
            best_epoch: 2,
            early_stopped: false,
            best_weights: Some(vec![vec![9.0, 9.5, -9.0], vec![1.5, 2.5]]),
            epochs: vec![EpochStats {
                epoch: 0,
                train_loss: 1.25,
                val_loss: 1.5,
                duration_s: 0.125,
                grad_norm: f32::NAN,
                lr: 3e-3,
            }],
        }
    }

    #[test]
    fn train_state_roundtrip_is_bitwise_exact() {
        let state = sample_state();
        let path = tmp("train_state");
        save_train_state(&state, &path).unwrap();
        let loaded = load_train_state(&path).unwrap();
        assert_eq!(loaded.next_epoch, state.next_epoch);
        assert_eq!(loaded.adam_t, state.adam_t);
        assert_eq!(loaded.best_val.to_bits(), state.best_val.to_bits());
        assert_eq!(loaded.since_best, state.since_best);
        assert_eq!(loaded.best_epoch, state.best_epoch);
        assert_eq!(loaded.early_stopped, state.early_stopped);
        assert_eq!(loaded.params, state.params);
        assert_eq!(loaded.best_weights, state.best_weights);
        assert_eq!(loaded.adam_moments.len(), 2);
        for (a, b) in loaded.adam_moments.iter().zip(&state.adam_moments) {
            assert_eq!(a.m, b.m);
            assert_eq!(a.v, b.v);
        }
        assert_eq!(loaded.epochs.len(), 1);
        let (le, se) = (&loaded.epochs[0], &state.epochs[0]);
        assert_eq!(le.epoch, se.epoch);
        assert_eq!(le.train_loss.to_bits(), se.train_loss.to_bits());
        assert_eq!(le.val_loss.to_bits(), se.val_loss.to_bits());
        assert_eq!(le.duration_s.to_bits(), se.duration_s.to_bits());
        // NaN grad norm (clipping disabled) must survive the roundtrip
        assert!(le.grad_norm.is_nan());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_state_without_best_weights_roundtrips() {
        let state = TrainState {
            best_weights: None,
            epochs: Vec::new(),
            ..sample_state()
        };
        let path = tmp("train_state_nobest");
        save_train_state(&state, &path).unwrap();
        let loaded = load_train_state(&path).unwrap();
        assert_eq!(loaded.best_weights, None);
        assert!(loaded.epochs.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_state_rejects_model_checkpoints() {
        let path = tmp("train_state_wrong_magic");
        save_tensors(&[Tensor::ones(&[1])], &path).unwrap();
        let err = load_train_state(&path).unwrap_err();
        assert!(err.to_string().contains("magic"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_state_refuses_an_implausible_vector_length_before_allocating() {
        let path = tmp("train_state_huge");
        let mut bytes = STATE_MAGIC.to_vec();
        bytes.extend_from_slice(&STATE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8 + 8 + 4 + 8 + 8 + 1]);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one parameter vector…
        bytes.extend_from_slice(&((1u64 << 28) + 1).to_le_bytes()); // …of 2^28+1 floats
        std::fs::write(&path, bytes).unwrap();
        let err = load_train_state(&path).unwrap_err();
        std::fs::remove_file(path).ok();
        assert!(err.to_string().contains("implausibly large"), "{err}");
    }

    #[test]
    fn train_state_rejects_inconsistent_moments() {
        // hand-corrupt: write a state whose m-count disagrees with params
        let mut state = sample_state();
        state.adam_moments.pop();
        let path = tmp("train_state_moments");
        save_train_state(&state, &path).unwrap();
        let err = load_train_state(&path).unwrap_err();
        assert!(err.to_string().contains("moment"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
