//! Protocol property tests: seeded round-trip fuzzing of the frame codec
//! and of every binary payload codec.
//!
//! The transport under a real server delivers bytes in arbitrary splits
//! and coalescings, truncates mid-frame on resets, and (from a hostile
//! peer) can contain anything at all. The codec's contract is that every
//! one of those inputs maps to a typed [`FrameError`] or a correct
//! [`Frame`] — never a panic, never a wrong payload. The payload decoders
//! hold the same contract one layer up, with [`NetError::Wire`], and carry
//! every score, id and snapshot byte bit for bit.

use std::io::{self, Read};

use embsr_net::frame::{
    encode, read_frame, write_frame, Frame, FrameError, FrameKind, HEADER_LEN, MAGIC, MAX_PAYLOAD,
    VERSION,
};
use embsr_net::wire::RequestEnvelope;
use embsr_net::{wire, ControlReply, ControlRequest, NetError, Request, Response, ServerStatus};
use embsr_obs::TraceCtx;
use embsr_serve::{
    CacheStats, EngineStatus, ScoreBatch, ScoreResponse, ScoredItem, SubmitOptions, TopK,
    TopKResponse,
};
use embsr_sessions::{MicroBehavior, Session};

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

/// A transport that accepts at most `max` bytes per write call — the
/// short-write mock. A vectored write takes across slice boundaries, as
/// `writev` does, so a short write can end inside either slice.
struct ShortWriter {
    written: Vec<u8>,
    max: usize,
    flushes: usize,
}

impl ShortWriter {
    fn new(max: usize) -> Self {
        ShortWriter {
            written: Vec::new(),
            max,
            flushes: 0,
        }
    }
}

impl io::Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[io::IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let mut n = 0;
        for b in bufs {
            let take = b.len().min(self.max - n);
            self.written.extend_from_slice(&b[..take]);
            n += take;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flushes += 1;
        Ok(())
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
fn write_frame_sends_exactly_the_encoded_bytes_across_short_writes() {
    let mut rng = Rand(0x5407);
    // Empty, an 8-byte control-sized payload, and a `score-rows` response
    // (8 rows of |V| = 8192 f32 scores plus the row header).
    for len in [0usize, 8, 262_188] {
        let frame = random_frame(&mut rng, len);
        let want = encode(&frame).expect("within cap");
        for max in [1usize, 17, HEADER_LEN, HEADER_LEN + 1, 4096] {
            let mut w = ShortWriter::new(max);
            write_frame(&mut w, &frame).expect("writes");
            assert!(
                w.written == want,
                "payload {len}, at most {max} bytes per write"
            );
            assert_eq!(w.flushes, 1);
        }
    }
}

#[test]
fn write_frame_refuses_a_bad_frame_before_writing_any_byte() {
    let oversized = Frame::new(
        FrameKind::ScoreResponse,
        1,
        vec![0u8; MAX_PAYLOAD as usize + 1],
    );
    let wrong_version = Frame {
        version: VERSION + 1,
        ..Frame::new(FrameKind::ScoreRequest, 2, vec![1, 2, 3])
    };
    let want = [
        FrameError::TooLarge {
            len: MAX_PAYLOAD as u64 + 1,
            max: MAX_PAYLOAD,
        },
        FrameError::BadVersion(VERSION + 1),
    ];
    for (frame, want) in [oversized, wrong_version].iter().zip(want) {
        let mut w = ShortWriter::new(4096);
        assert_eq!(write_frame(&mut w, frame), Err(want));
        assert!(w.written.is_empty());
        assert_eq!(w.flushes, 0);
    }
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
    for version in [0u8, 1, 2, 3, VERSION + 1] {
        assert_eq!(
            encode(&frame(version)),
            Err(FrameError::BadVersion(version))
        );
    }
    // ...and decode rejects a zero version byte and the retired versions 1
    // (serial), 2 (JSON score/top-k responses) and 3 (JSON requests, errors,
    // handshake and control payloads) on the wire.
    let good = encode(&Frame::new(FrameKind::ScoreRequest, 1, Vec::new())).expect("within cap");
    for version in [0u8, 1, 2, 3] {
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

#[test]
fn requests_carry_every_field_bitwise() {
    const BEYOND_F64: u64 = (1 << 53) + 1;
    let ev = MicroBehavior::new;
    let session = |id, events| Session { id, events };
    let shapes = [
        Vec::new(),
        vec![session(0, Vec::new())],
        vec![
            session(BEYOND_F64, vec![ev(u32::MAX, u16::MAX), ev(0, 0), ev(7, 3)]),
            session(u64::MAX, Vec::new()),
            session(0, vec![ev(1, u16::MAX)]),
        ],
    ];
    let ctxs = [
        TraceCtx::NONE,
        TraceCtx {
            trace: BEYOND_F64,
            span: BEYOND_F64 + 2,
        },
        TraceCtx {
            trace: u64::MAX,
            span: u64::MAX - 1,
        },
    ];
    for sessions in &shapes {
        // deadline_us · shed · trace · span · session count, then per
        // session its id, event count and 6-byte events.
        let body: usize = sessions.iter().map(|s| 12 + 6 * s.events.len()).sum();
        for ctx in ctxs {
            for deadline_us in [0, u64::MAX] {
                for shed in [false, true] {
                    let opts = SubmitOptions { deadline_us, shed };
                    let want = |k| RequestEnvelope {
                        sessions: sessions.clone(),
                        opts,
                        ctx,
                        k,
                    };
                    let batch = ScoreBatch {
                        sessions: sessions.clone(),
                    };
                    let bytes = wire::encode_score_request(&batch, opts, ctx);
                    assert_eq!(bytes.len(), 29 + body, "score request layout size");
                    let got = wire::decode_request(&bytes, false).expect("score request decodes");
                    assert_eq!(got, want(None));
                    for k in [0, 20, u32::MAX as usize] {
                        let batch = TopK {
                            sessions: sessions.clone(),
                            k,
                        };
                        let bytes = wire::encode_top_k_request(&batch, opts, ctx);
                        assert_eq!(bytes.len(), 33 + body, "top-k request layout size");
                        let got =
                            wire::decode_request(&bytes, true).expect("top-k request decodes");
                        assert_eq!(got, want(Some(k)));
                    }
                }
            }
        }
    }
    // A `k` above `u32::MAX` saturates on encode; it already exceeds any
    // vocabulary, because item ids are `u32`.
    let batch = TopK {
        sessions: Vec::new(),
        k: u32::MAX as usize + 1,
    };
    let bytes = wire::encode_top_k_request(&batch, SubmitOptions::default(), TraceCtx::NONE);
    let got = wire::decode_request(&bytes, true).expect("saturated k decodes");
    assert_eq!(got.k, Some(u32::MAX as usize));
}

/// Decodes a payload of `kind` and encodes the result again, so `Ok`
/// carries the canonical bytes of whatever decoded.
fn reencode(kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, NetError> {
    let (again, bytes) = match kind {
        FrameKind::ScoreRequest
        | FrameKind::TopKRequest
        | FrameKind::Hello
        | FrameKind::Control => wire::encode_request(&wire::decode_request_frame(kind, payload)?),
        _ => wire::encode_response(&wire::decode_response_frame(kind, payload)?),
    };
    assert_eq!(again, kind, "a payload re-encodes as its own kind");
    Ok(bytes)
}

/// Every payload codec with a valid payload of its kind: both request
/// kinds, the handshake, each control op and reply code, each error code,
/// and both scoring responses.
fn payload_codecs() -> Vec<(&'static str, FrameKind, Vec<u8>)> {
    let sessions = vec![
        Session {
            id: 5,
            events: vec![MicroBehavior::new(3, 1), MicroBehavior::new(9, 0)],
        },
        Session {
            id: 6,
            events: Vec::new(),
        },
    ];
    let opts = SubmitOptions {
        deadline_us: 5_000,
        shed: true,
    };
    let ctx = TraceCtx { trace: 3, span: 4 };
    let request = |req| wire::encode_request(&req);
    let response = |resp| wire::encode_response(&resp);
    let replica = |active_version, staged| EngineStatus {
        active_version,
        staged,
        cache: CacheStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            entries: 5,
            bytes: 6,
        },
    };
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
    let table = [
        (
            "score request",
            request(Request::Score {
                batch: ScoreBatch {
                    sessions: sessions.clone(),
                },
                opts,
                ctx,
            }),
        ),
        (
            "top-k request",
            request(Request::TopK {
                batch: TopK { sessions, k: 20 },
                opts,
                ctx,
            }),
        ),
        (
            "hello",
            request(Request::Hello {
                max_version: VERSION,
            }),
        ),
        (
            "hello ack",
            response(Response::HelloAck { version: VERSION }),
        ),
        (
            "load snapshot",
            request(Request::Control(ControlRequest::LoadSnapshot {
                version: 7,
                snapshot: b"EMBSRSNP\x00\xff".to_vec(),
            })),
        ),
        (
            "activate",
            request(Request::Control(ControlRequest::Activate { version: 7 })),
        ),
        ("status", request(Request::Control(ControlRequest::Status))),
        (
            "done",
            response(Response::Control(ControlReply::Done { version: 7 })),
        ),
        (
            "status reply",
            response(Response::Control(ControlReply::Status(ServerStatus {
                replicas: vec![replica(7, vec![3, 7]), replica(0, Vec::new())],
            }))),
        ),
        (
            "overloaded",
            response(Response::Error(NetError::Overloaded { queued: 9, cap: 4 })),
        ),
        (
            "deadline expired",
            response(Response::Error(NetError::DeadlineExpired {
                waited_us: 1_500,
            })),
        ),
        (
            "unavailable",
            response(Response::Error(NetError::Unavailable(
                "replica engine closed".into(),
            ))),
        ),
        (
            "bad request",
            response(Response::Error(NetError::BadRequest("no thanks".into()))),
        ),
        (
            "score rows",
            response(Response::Scores(ScoreResponse {
                scores,
                model_version: 9,
            })),
        ),
        (
            "top-k lists",
            response(Response::Recs(TopKResponse {
                items,
                model_version: 9,
            })),
        ),
    ];
    table
        .into_iter()
        .map(|(what, (kind, payload))| (what, kind, payload))
        .collect()
}

/// Per-layout hostile payloads, each with the text its `NetError::Wire`
/// must name: counts the bytes left cannot hold, bytes outside their
/// domain, unknown codes and ops, and text that is not UTF-8.
fn hostile_payloads() -> Vec<(&'static str, FrameKind, Vec<u8>)> {
    let max = u32::MAX.to_le_bytes();
    let few = [0u8; 12];
    // deadline_us 0 · shed 0 · trace 0 · span 0.
    let header = [0u8; 25];
    let with_shed = |shed: u8| [&0u64.to_le_bytes()[..], &[shed], &[0; 16], &[0; 4]].concat();
    let with_ctx = |trace: u64, span: u64| {
        [
            &[0; 9][..],
            &trace.to_le_bytes(),
            &span.to_le_bytes(),
            &[0; 4],
        ]
        .concat()
    };
    let text = |code: u8| [&[code][..], &2u32.to_le_bytes(), &[0xff, 0xfe]].concat();
    let mut cases = vec![
        (
            "session count",
            FrameKind::ScoreRequest,
            [&header[..], &max, &few].concat(),
        ),
        (
            "session count",
            FrameKind::TopKRequest,
            [&header[..], &20u32.to_le_bytes(), &max, &few].concat(),
        ),
        (
            "event count",
            FrameKind::ScoreRequest,
            [
                &header[..],
                &1u32.to_le_bytes(),
                &5u64.to_le_bytes(),
                &max,
                &few,
            ]
            .concat(),
        ),
        ("shed flag 2", FrameKind::ScoreRequest, with_shed(2)),
        (
            "exactly one zero id",
            FrameKind::ScoreRequest,
            with_ctx(3, 0),
        ),
        (
            "exactly one zero id",
            FrameKind::ScoreRequest,
            with_ctx(0, 4),
        ),
        (
            "snapshot length",
            FrameKind::Control,
            [&[1u8][..], &7u64.to_le_bytes(), &max, &few].concat(),
        ),
        ("unknown control op 0", FrameKind::Control, vec![0]),
        ("unknown control op 4", FrameKind::Control, vec![4]),
        (
            "replica count",
            FrameKind::ControlReply,
            [&[2u8][..], &max, &few].concat(),
        ),
        (
            // One replica declared with exactly its 60 minimum bytes, whose
            // staged count then overruns them.
            "staged count",
            FrameKind::ControlReply,
            [
                &[2u8][..],
                &1u32.to_le_bytes(),
                &7u64.to_le_bytes(),
                &max,
                &[0; 48],
            ]
            .concat(),
        ),
        ("unknown reply code 0", FrameKind::ControlReply, vec![0]),
        ("unknown reply code 3", FrameKind::ControlReply, vec![3]),
        ("unknown error code 0", FrameKind::ErrorResponse, vec![0]),
        ("unknown error code 5", FrameKind::ErrorResponse, vec![5]),
        ("not UTF-8", FrameKind::ErrorResponse, text(3)),
        ("not UTF-8", FrameKind::ErrorResponse, text(4)),
        ("unsupported version 0", FrameKind::HelloAck, vec![0]),
        (
            "unsupported version",
            FrameKind::HelloAck,
            vec![VERSION + 1],
        ),
    ];
    // `model_version` then a `u32::MAX` row count, or one row whose length
    // is `u32::MAX`, followed by a few bytes: refused before allocating.
    for kind in [FrameKind::ScoreResponse, FrameKind::TopKResponse] {
        cases.push((
            "row count",
            kind,
            [&9u64.to_le_bytes()[..], &max, &few].concat(),
        ));
        cases.push((
            "row length",
            kind,
            [&9u64.to_le_bytes()[..], &1u32.to_le_bytes(), &max, &few].concat(),
        ));
    }
    cases
}

#[test]
fn hostile_payloads_fail_typed() {
    for (what, kind, valid) in payload_codecs() {
        assert_eq!(
            reencode(kind, &valid),
            Ok(valid.clone()),
            "{what}: valid payload"
        );
        for cut in 0..valid.len() {
            assert!(
                matches!(reencode(kind, &valid[..cut]), Err(NetError::Wire(_))),
                "{what}: {cut}-byte prefix"
            );
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        assert!(
            matches!(reencode(kind, &trailing), Err(NetError::Wire(_))),
            "{what}: trailing byte"
        );
    }
    for (needle, kind, bytes) in hostile_payloads() {
        match reencode(kind, &bytes) {
            Err(NetError::Wire(msg)) => assert!(msg.contains(needle), "{kind:?}: {msg}"),
            other => panic!("{kind:?} {needle}: expected a wire error, got {other:?}"),
        }
    }
}

#[test]
fn random_payloads_never_panic_the_decoders() {
    let mut rng = Rand(0x5C0_4E5);
    for _ in 0..500 {
        let len = rng.below(96) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        for (what, kind, valid) in payload_codecs() {
            // A few corrupted bytes of a valid payload get past the count
            // checks that stop most raw garbage early.
            let mut corrupted = valid;
            for _ in 0..=rng.below(3) {
                let at = rng.below(corrupted.len() as u64) as usize;
                corrupted[at] = rng.next() as u8;
            }
            for bytes in [&garbage, &corrupted] {
                match reencode(kind, bytes) {
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
