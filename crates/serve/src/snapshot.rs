//! Serving snapshots: the `EMBSRSNP` binary format.
//!
//! A serving snapshot is the training checkpoint's tensor list
//! ([`embsr_train::encode_tensors`]) plus the serving horizon:
//!
//! ```text
//! magic "EMBSRSNP" | u32 version 2 | u64 max_session_len |
//!   u32 tensor count | per tensor: u32 rank | u64 dims… | f32 LE data…
//! ```
//!
//! Decoding checks the tensor count and every tensor's shape against the
//! receiver's parameters before it reads the weights, so a snapshot of
//! another configuration or with a reordered parameter list is refused by
//! name, even when its weight count matches. Shapes cannot tell apart two
//! tensors of the same shape. Version 1 (a flat weight vector checked only
//! by its count) is refused as an unsupported version.

use embsr_tensor::Tensor;
use embsr_train::{decode_tensors, encode_tensors, DecodeError};

const MAGIC: &[u8; 8] = b"EMBSRSNP";
const VERSION: u32 = 2;

/// Encodes `params` and the serving horizon as `EMBSRSNP` bytes.
pub(crate) fn encode(params: &[Tensor], max_session_len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(max_session_len as u64).to_le_bytes());
    encode_tensors(params, &mut out);
    out
}

/// Decodes `EMBSRSNP` bytes against the receiver's parameter `shapes` into
/// the flat weights and the serving horizon.
///
/// # Errors
/// [`DecodeError::Layout`] when the tensor list does not fit `shapes`;
/// [`DecodeError::Malformed`] on a bad magic, an unsupported version or
/// truncated or trailing bytes.
pub(crate) fn decode(
    bytes: &[u8],
    shapes: &[Vec<usize>],
) -> Result<(Vec<f32>, usize), DecodeError> {
    let malformed = |msg: &str| DecodeError::Malformed(msg.into());
    let rest = bytes
        .strip_prefix(MAGIC)
        .ok_or_else(|| malformed("not an EMBSR snapshot (bad magic)"))?;
    let (version, rest) = rest
        .split_first_chunk::<4>()
        .ok_or_else(|| malformed("truncated snapshot header"))?;
    let version = u32::from_le_bytes(*version);
    if version != VERSION {
        return Err(malformed(&format!(
            "unsupported snapshot version {version}"
        )));
    }
    let (max_session_len, list) = rest
        .split_first_chunk::<8>()
        .ok_or_else(|| malformed("truncated snapshot header"))?;
    let max_session_len = usize::try_from(u64::from_le_bytes(*max_session_len))
        .map_err(|_| malformed("serving horizon out of range"))?;
    Ok((decode_tensors(list, shapes)?, max_session_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_train::{param_shapes, LayoutMismatch};

    fn toy_params() -> Vec<Tensor> {
        let ws: Vec<f32> = (0..517).map(|i| (i as f32 * 0.173).sin() * 3.0).collect();
        vec![
            Tensor::from_vec(ws[..500].to_vec(), &[20, 25]),
            Tensor::from_vec(ws[500..].to_vec(), &[17]),
        ]
    }

    #[test]
    fn f32_round_trip_is_byte_exact() {
        let params = toy_params();
        let enc = encode(&params, 48);
        let (weights, max_len) = decode(&enc, &param_shapes(&params)).unwrap();
        assert_eq!(max_len, 48);
        let want: Vec<u32> = embsr_tensor::export_params(&params)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let got: Vec<u32> = weights.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // header 20 bytes, count 4, per tensor rank 4 + dims 8·rank + data
        assert_eq!(enc.len(), 20 + 4 + (4 + 16 + 2000) + (4 + 8 + 68));
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        // the file `FrozenModel::save` writes is exactly the snapshot bytes
        let frozen = crate::FrozenModel::freeze(crate::testing::ToyModel::new(5, 11), 24);
        let path = std::env::temp_dir().join(format!("embsr_snap_{}.snp", std::process::id()));
        frozen.save(&path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(on_disk, frozen.snapshot_bytes());
        let (weights, max_len) = decode(&on_disk, &[vec![5, 5]]).unwrap();
        assert_eq!(max_len, 24);
        let a: Vec<u32> = frozen.snapshot().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = weights.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let params = toy_params();
        let shapes = param_shapes(&params);
        let enc = encode(&params, 32);
        let malformed =
            |bytes: &[u8]| matches!(decode(bytes, &shapes), Err(DecodeError::Malformed(_)));
        assert!(malformed(&enc[..10]), "truncated header");
        assert!(malformed(&enc[..enc.len() - 3]), "truncated payload");
        assert!(malformed(&[enc.as_slice(), &[0]].concat()), "trailing byte");
        let mut bad_magic = enc.clone();
        bad_magic[0] = b'X';
        assert!(malformed(&bad_magic));
        let mut v1 = enc.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let Err(DecodeError::Malformed(msg)) = decode(&v1, &shapes) else {
            panic!("a version-1 snapshot must be refused");
        };
        assert!(msg.contains("unsupported snapshot version 1"), "{msg}");
        // the receiver's shapes, listed the other way round
        let swapped = vec![shapes[1].clone(), shapes[0].clone()];
        assert_eq!(
            decode(&enc, &swapped).unwrap_err(),
            DecodeError::Layout(LayoutMismatch::Shape {
                index: 0,
                expected: vec![17],
                got: vec![20, 25],
            })
        );
    }
}
