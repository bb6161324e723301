//! Protocol property tests: seeded round-trip fuzzing of the frame codec
//! and of the binary score/top-k response payloads.
//!
//! The transport under a real server delivers bytes in arbitrary splits
//! and coalescings, truncates mid-frame on resets, and (from a hostile
//! peer) can contain anything at all. The codec's contract is that every
//! one of those inputs maps to a typed [`FrameError`] or a correct
//! [`Frame`] — never a panic, never a wrong payload. The response
//! decoders hold the same contract one layer up, with [`NetError::Wire`],
//! and carry every score bit for bit.

use std::io::{self, Read};

use embsr_net::frame::{
    encode, read_frame, write_frame, Frame, FrameError, FrameKind, HEADER_LEN, MAGIC, MAX_PAYLOAD,
    VERSION,
};
use embsr_net::{wire, NetError};
use embsr_serve::{ScoreResponse, ScoredItem, TopKResponse};

/// Local SplitMix64 so the fuzz schedule is seeded and reproducible.
struct Rand(u64);

impl Rand {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A transport that serves a byte script in caller-chosen chunk sizes —
/// the split/coalesced-read mock.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    /// Upper bound on bytes served per `read` call; resampled per call
    /// from the seeded rng.
    rng: Rand,
    max_chunk: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, seed: u64, max_chunk: usize) -> Self {
        Chunked {
            data,
            pos: 0,
            rng: Rand(seed),
            max_chunk: max_chunk.max(1),
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let chunk = (self.rng.below(self.max_chunk as u64) + 1) as usize;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A transport that times out immediately, forever.
struct AlwaysTimeout;

impl Read for AlwaysTimeout {
    fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::WouldBlock, "poll timeout"))
    }
}

fn kinds() -> [FrameKind; 9] {
    [
        FrameKind::ScoreRequest,
        FrameKind::TopKRequest,
        FrameKind::ScoreResponse,
        FrameKind::TopKResponse,
        FrameKind::ErrorResponse,
        FrameKind::Hello,
        FrameKind::HelloAck,
        FrameKind::Control,
        FrameKind::ControlReply,
    ]
}

fn random_frame(rng: &mut Rand, payload_len: usize) -> Frame {
    let all = kinds();
    let kind = all[rng.below(all.len() as u64) as usize];
    let payload: Vec<u8> = (0..payload_len).map(|_| rng.next() as u8).collect();
    Frame {
        version: VERSION,
        kind,
        request_id: rng.next(),
        payload,
    }
}

#[test]
fn frames_round_trip_across_split_and_coalesced_reads() {
    let mut rng = Rand(0xDECAF);
    // Sizes cover the boundary cases (0, 1, header-straddling) and a
    // spread of larger payloads.
    let mut sizes = vec![0usize, 1, 2, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1];
    for _ in 0..40 {
        sizes.push(rng.below(64 * 1024) as usize);
    }
    for (i, &len) in sizes.iter().enumerate() {
        let frame = random_frame(&mut rng, len);
        let bytes = encode(&frame).expect("within cap");
        assert_eq!(bytes.len(), HEADER_LEN + len);
        // Byte-at-a-time, tiny chunks, and one-shot coalesced reads must
        // all decode identically.
        for max_chunk in [1usize, 3, 7, 64, bytes.len().max(1)] {
            let mut t = Chunked::new(bytes.clone(), 0x5EED + i as u64, max_chunk);
            let got = read_frame(&mut t).expect("round trip");
            assert_eq!(got, frame, "size {len}, chunk {max_chunk}");
        }
    }
}

#[test]
fn multiple_frames_coalesced_on_one_stream_decode_in_order() {
    let mut rng = Rand(42);
    let frames: Vec<Frame> = (0..12)
        .map(|_| {
            let len = rng.below(512) as usize;
            random_frame(&mut rng, len)
        })
        .collect();
    let mut stream = Vec::new();
    for f in &frames {
        write_frame(&mut stream, f).expect("encode");
    }
    let mut t = Chunked::new(stream, 99, 5);
    for want in &frames {
        let got = read_frame(&mut t).expect("in order");
        assert_eq!(&got, want);
    }
    // Clean EOF on the frame boundary afterwards.
    assert_eq!(read_frame(&mut t), Err(FrameError::Closed));
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error_never_a_panic() {
    let mut rng = Rand(7);
    let frame = random_frame(&mut rng, 100);
    let bytes = encode(&frame).expect("within cap");
    for cut in 0..bytes.len() {
        let mut t = Chunked::new(bytes[..cut].to_vec(), cut as u64, 4);
        let err = read_frame(&mut t).expect_err("truncated input must fail");
        if cut == 0 {
            assert_eq!(err, FrameError::Closed, "empty stream is a clean close");
        } else {
            match err {
                FrameError::Truncated { expected, got } => {
                    assert_eq!(got, cut);
                    assert!(expected == HEADER_LEN || expected == bytes.len());
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn corrupt_headers_map_to_their_typed_errors() {
    let frame = Frame {
        version: VERSION,
        kind: FrameKind::ScoreRequest,
        request_id: 7,
        payload: b"{}".to_vec(),
    };
    let good = encode(&frame).expect("within cap");

    // Bad magic: every corrupted magic byte position.
    for i in 0..4 {
        let mut bytes = good.clone();
        bytes[i] ^= 0xFF;
        let mut t = Chunked::new(bytes, 1, 8);
        match read_frame(&mut t) {
            Err(FrameError::BadMagic(m)) => assert_ne!(m, MAGIC),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    // Bad version.
    let mut bytes = good.clone();
    bytes[4] = VERSION + 1;
    let mut t = Chunked::new(bytes, 2, 8);
    assert_eq!(read_frame(&mut t), Err(FrameError::BadVersion(VERSION + 1)));

    // Unknown kind.
    let mut bytes = good.clone();
    bytes[5] = 0xEE;
    let mut t = Chunked::new(bytes, 3, 8);
    assert_eq!(read_frame(&mut t), Err(FrameError::BadKind(0xEE)));

    // Oversized declared length: rejected from the header alone, without
    // the test having to materialize a 64 MiB payload.
    let mut bytes = good.clone();
    let huge = (MAX_PAYLOAD + 1).to_le_bytes();
    bytes[14..18].copy_from_slice(&huge);
    let mut t = Chunked::new(bytes, 4, 8);
    assert_eq!(
        read_frame(&mut t),
        Err(FrameError::TooLarge {
            len: (MAX_PAYLOAD + 1) as u64,
            max: MAX_PAYLOAD
        })
    );

    // The pristine bytes still decode (the corruptions above were local).
    let mut t = Chunked::new(good, 5, 8);
    assert_eq!(read_frame(&mut t).expect("pristine"), frame);
}

#[test]
fn oversized_payload_is_refused_at_encode_time() {
    let frame = Frame {
        version: VERSION,
        kind: FrameKind::ScoreRequest,
        request_id: 1,
        // Declared via a zero-filled Vec; 64 MiB + 1 allocates but never
        // crosses a socket.
        payload: vec![0u8; MAX_PAYLOAD as usize + 1],
    };
    assert_eq!(
        encode(&frame),
        Err(FrameError::TooLarge {
            len: MAX_PAYLOAD as u64 + 1,
            max: MAX_PAYLOAD
        })
    );
}

#[test]
fn timeout_before_any_byte_is_idle_not_an_error() {
    let mut t = AlwaysTimeout;
    assert_eq!(read_frame(&mut t), Err(FrameError::Idle));
}

#[test]
fn random_garbage_never_panics_the_decoder() {
    let mut rng = Rand(0xBAD5EED);
    for round in 0..500 {
        let len = rng.below(256) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let mut t = Chunked::new(garbage, round, 16);
        // Any outcome is fine except a panic; decoded frames are possible
        // only if the garbage happened to spell a valid header.
        let _ = read_frame(&mut t);
    }
}

#[test]
fn version_bounds_are_enforced_on_both_paths() {
    // Encode refuses every version but VERSION...
    let frame = |version| Frame {
        version,
        ..Frame::new(FrameKind::ScoreRequest, 1, Vec::new())
    };
    for version in [0u8, 1, 2, VERSION + 1] {
        assert_eq!(
            encode(&frame(version)),
            Err(FrameError::BadVersion(version))
        );
    }
    // ...and decode rejects a zero version byte and the retired versions 1
    // (serial) and 2 (JSON score/top-k responses) on the wire.
    let good = encode(&Frame::new(FrameKind::ScoreRequest, 1, Vec::new())).expect("within cap");
    for version in [0u8, 1, 2] {
        let mut bytes = good.clone();
        bytes[4] = version;
        let mut t = Chunked::new(bytes, 21, 8);
        assert_eq!(read_frame(&mut t), Err(FrameError::BadVersion(version)));
    }
}

#[test]
fn request_ids_round_trip_at_the_extremes() {
    for id in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53] {
        let frame = Frame {
            version: VERSION,
            kind: FrameKind::ErrorResponse,
            request_id: id,
            payload: Vec::new(),
        };
        let bytes = encode(&frame).expect("within cap");
        let mut t = Chunked::new(bytes, id ^ 0xA5, 8);
        assert_eq!(read_frame(&mut t).expect("round trip").request_id, id);
    }
}

/// Scores whose bits a decimal codec loses or cannot carry, as `f32` bits.
const EDGE_BITS: [u32; 8] = [
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // quiet NaN
    0x7fc0_0001, // NaN with a payload
    0x0000_0001, // smallest subnormal
    0x7f7f_ffff, // f32::MAX
];

fn score_bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|row| row.iter().map(|s| s.to_bits()).collect())
        .collect()
}

fn rec_bits(rows: &[Vec<ScoredItem>]) -> Vec<Vec<(u32, u32)>> {
    rows.iter()
        .map(|row| row.iter().map(|r| (r.item, r.score.to_bits())).collect())
        .collect()
}

#[test]
fn response_payloads_carry_edge_scores_bitwise() {
    let edge: Vec<f32> = EDGE_BITS.iter().map(|&b| f32::from_bits(b)).collect();
    // Ragged rows (an empty session is answered with an empty row), a lone
    // empty row, and a response with zero rows.
    let shapes: Vec<Vec<Vec<f32>>> = vec![
        vec![edge.clone(), Vec::new(), vec![edge[1]], edge[2..6].to_vec()],
        vec![Vec::new()],
        Vec::new(),
    ];
    for model_version in [0u64, u64::MAX] {
        for scores in &shapes {
            let resp = ScoreResponse {
                scores: scores.clone(),
                model_version,
            };
            let bytes = wire::encode_score_response(&resp);
            let got = wire::decode_score_response(&bytes).expect("score rows decode");
            assert_eq!(got.model_version, model_version);
            assert_eq!(score_bits(&got.scores), score_bits(&resp.scores));
            let cells: usize = scores.iter().map(|r| 4 + 4 * r.len()).sum();
            assert_eq!(bytes.len(), 12 + cells, "score layout size");

            let resp = TopKResponse {
                items: scores
                    .iter()
                    .map(|row| {
                        row.iter()
                            .enumerate()
                            .map(|(i, &score)| ScoredItem {
                                item: u32::MAX - i as u32,
                                score,
                            })
                            .collect()
                    })
                    .collect(),
                model_version,
            };
            let bytes = wire::encode_top_k_response(&resp);
            let got = wire::decode_top_k_response(&bytes).expect("top-k lists decode");
            assert_eq!(got.model_version, model_version);
            assert_eq!(rec_bits(&got.items), rec_bits(&resp.items));
            let cells: usize = scores.iter().map(|r| 4 + 8 * r.len()).sum();
            assert_eq!(bytes.len(), 12 + cells, "top-k layout size");
        }
    }
}

/// Decodes a response payload and encodes the result again, so `Ok`
/// carries the canonical bytes of whatever decoded.
type Reencode = fn(&[u8]) -> Result<Vec<u8>, NetError>;

/// Each response codec with a valid, ragged payload of its kind.
fn response_codecs() -> [(&'static str, Reencode, Vec<u8>); 2] {
    let scores = vec![vec![0.5f32, -1.25], Vec::new(), vec![3.0]];
    let items = vec![
        vec![
            ScoredItem {
                item: 7,
                score: 0.5,
            },
            ScoredItem {
                item: 3,
                score: 0.25,
            },
        ],
        Vec::new(),
    ];
    [
        (
            "score rows",
            |b| wire::decode_score_response(b).map(|r| wire::encode_score_response(&r)),
            wire::encode_score_response(&ScoreResponse {
                scores,
                model_version: 9,
            }),
        ),
        (
            "top-k lists",
            |b| wire::decode_top_k_response(b).map(|r| wire::encode_top_k_response(&r)),
            wire::encode_top_k_response(&TopKResponse {
                items,
                model_version: 9,
            }),
        ),
    ]
}

#[test]
fn hostile_response_payloads_fail_typed() {
    // `model_version` then a `u32::MAX` row count, or one row whose length
    // is `u32::MAX`, followed by a few bytes: refused before allocating.
    let mut huge_rows = 9u64.to_le_bytes().to_vec();
    huge_rows.extend_from_slice(&u32::MAX.to_le_bytes());
    huge_rows.extend_from_slice(&[0u8; 12]);
    let mut huge_len = 9u64.to_le_bytes().to_vec();
    huge_len.extend_from_slice(&1u32.to_le_bytes());
    huge_len.extend_from_slice(&u32::MAX.to_le_bytes());
    huge_len.extend_from_slice(&[0u8; 12]);
    for (what, reencode, valid) in response_codecs() {
        assert_eq!(reencode(&valid), Ok(valid.clone()), "{what}: valid payload");
        for cut in 0..valid.len() {
            assert!(
                matches!(reencode(&valid[..cut]), Err(NetError::Wire(_))),
                "{what}: {cut}-byte prefix"
            );
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        for (case, bytes) in [
            ("trailing byte", trailing),
            ("u32::MAX rows", huge_rows.clone()),
            ("u32::MAX row length", huge_len.clone()),
        ] {
            assert!(
                matches!(reencode(&bytes), Err(NetError::Wire(_))),
                "{what}: {case}"
            );
        }
    }
}

#[test]
fn random_response_payloads_never_panic_the_decoders() {
    let mut rng = Rand(0x5C0_4E5);
    for _ in 0..500 {
        let len = rng.below(96) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        for (what, reencode, valid) in response_codecs() {
            // A few corrupted bytes of a valid payload get past the count
            // checks that stop most raw garbage early.
            let mut corrupted = valid;
            for _ in 0..=rng.below(3) {
                let at = rng.below(corrupted.len() as u64) as usize;
                corrupted[at] = rng.next() as u8;
            }
            for bytes in [&garbage, &corrupted] {
                match reencode(bytes) {
                    Ok(again) => {
                        assert_eq!(&again, bytes, "{what}: decoded bytes re-encode as sent")
                    }
                    Err(NetError::Wire(_)) => {}
                    Err(other) => panic!("{what}: untyped failure {other:?}"),
                }
            }
        }
    }
}
