//! Protocol property tests: seeded round-trip fuzzing of the frame codec.
//!
//! The transport under a real server delivers bytes in arbitrary splits
//! and coalescings, truncates mid-frame on resets, and (from a hostile
//! peer) can contain anything at all. The codec's contract is that every
//! one of those inputs maps to a typed [`FrameError`] or a correct
//! [`Frame`] — never a panic, never a wrong payload.

use std::io::{self, Read};

use embsr_net::frame::{
    encode, read_frame, write_frame, Frame, FrameError, FrameKind, HEADER_LEN, MAGIC, MAX_PAYLOAD,
    VERSION,
};

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
    assert_eq!(encode(&frame(0)), Err(FrameError::BadVersion(0)));
    assert_eq!(encode(&frame(1)), Err(FrameError::BadVersion(1)));
    assert_eq!(encode(&frame(VERSION + 1)), Err(FrameError::BadVersion(VERSION + 1)));
    // ...and decode rejects a zero version byte and the retired version 1
    // on the wire.
    let good = encode(&Frame::new(FrameKind::ScoreRequest, 1, Vec::new())).expect("within cap");
    for version in [0u8, 1] {
        let mut bytes = good.clone();
        bytes[4] = version;
        let mut t = Chunked::new(bytes, 21, 8);
        assert_eq!(read_frame(&mut t), Err(FrameError::BadVersion(version)));
    }
}

#[test]
fn v1_response_payloads_still_decode_under_the_unified_codec() {
    // A v1 server's score/top-k response JSON has no `model_version` key;
    // the redesigned decoders must accept it and default the tag to 0.
    let v1_scores = br#"{"scores":[[0.5,-1.25],[3.0,0.0]]}"#;
    let resp = embsr_net::wire::decode_score_response(v1_scores).expect("v1 payload");
    assert_eq!(resp.model_version, 0, "missing tag defaults to 0");
    assert_eq!(resp.scores.len(), 2);
    assert_eq!(resp.scores[0][1].to_bits(), (-1.25f32).to_bits());

    let v1_recs = br#"{"items":[[[7,0.5],[3,0.25]]]}"#;
    let recs = embsr_net::wire::decode_top_k_response(v1_recs).expect("v1 payload");
    assert_eq!(recs.model_version, 0);
    assert_eq!(recs.items[0][0].item, 7);

    // And the v2 encoders only *append* the tag — a decoder that ignores
    // unknown keys (as the v1 parser did) keeps working, which the round
    // trip through the tagged form pins structurally.
    let encoded = embsr_net::wire::encode_score_response(&resp);
    let again = embsr_net::wire::decode_score_response(&encoded).expect("tagged payload");
    assert_eq!(again.scores, resp.scores);
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
