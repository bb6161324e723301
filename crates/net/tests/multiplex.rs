//! Connection multiplexing: many requests in flight on one TCP
//! connection, demultiplexed by request id, behind a `Hello` handshake.
//!
//! The invariants under test:
//!
//! * **Depth** — a pipelined client sustains at least four requests in
//!   flight on a single connection (the acceptance floor for the
//!   multiplexed transport), and the answers stay bitwise-correct even
//!   when waited out of submission order.
//! * **Equivalence** — pipelined scores are bitwise-identical to blocking
//!   submit-then-wait scores and to the in-process frozen model.
//! * **One protocol** — a frame of another protocol version gets an id-0
//!   error frame and the connection closes; a `Hello` offering an older
//!   version gets a typed `BadRequest`; and a client whose `Hello` is
//!   refused fails its connect with that error instead of reconnecting.
//! * **Isolation** — a request whose payload does not decode gets its own
//!   `BadRequest`, and the connection goes on serving the next request.

mod common;

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};

use common::{guard, session_pool, ToyModel};
use embsr_net::frame::{self, Frame, FrameError, FrameKind};
use embsr_net::{wire, NetClient, NetError, Request, Server, ServerConfig, VERSION};
use embsr_obs::{trace, TraceCtx};
use embsr_serve::{EngineConfig, FrozenModel, ScoreBatch, SubmitOptions, TopK};

const NUM_ITEMS: usize = 24;

fn start_server(replicas: usize, seed: u64) -> (Server, FrozenModel<ToyModel>) {
    let frozen = FrozenModel::freeze(ToyModel::new(NUM_ITEMS, seed), 16);
    let server = Server::start(
        &frozen,
        move || ToyModel::new(NUM_ITEMS, seed),
        ServerConfig {
            replicas,
            engine: EngineConfig {
                workers: 1,
                max_batch: 16,
                flush_deadline_us: 200,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    (server, frozen)
}

fn assert_bitwise(expected: &[Vec<f32>], got: &[Vec<f32>], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: row count");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(e.len(), g.len(), "{what}: row width");
        for (a, b) in e.iter().zip(g) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} != {b}");
        }
    }
}

#[test]
fn one_connection_sustains_four_in_flight_and_completes_out_of_order() {
    let _g = guard();
    let (server, frozen) = start_server(1, 21);
    let sessions = session_pool(12, NUM_ITEMS as u32, 9);

    // Precompute expected rows in-process (the frozen model is not Sync;
    // after submission the test only compares).
    let batches: Vec<Vec<embsr_sessions::Session>> =
        (0..6).map(|i| sessions[i * 2..i * 2 + 2].to_vec()).collect();
    let expected: Vec<Vec<Vec<f32>>> = batches.iter().map(|b| frozen.score_batch(b)).collect();

    // Slow the lone replica so submissions pile up in flight.
    assert!(server.set_replica_delay_us(0, 20_000));

    let client = NetClient::connect(server.addr()).expect("connect");
    assert_eq!(
        client.proto_version(),
        VERSION,
        "handshake negotiates the current version"
    );

    let pendings: Vec<_> = batches
        .iter()
        .map(|b| {
            client.submit_score(
                &ScoreBatch {
                    sessions: b.clone(),
                },
                SubmitOptions::default(),
            )
        })
        .collect();
    assert!(
        client.in_flight() >= 4,
        "single connection holds >=4 in flight, got {}",
        client.in_flight()
    );

    // Heal the replica and drain in REVERSE submission order: the demux
    // must hand each waiter its own response regardless of wait order.
    assert!(server.set_replica_delay_us(0, 0));
    for (i, pending) in pendings.into_iter().enumerate().rev() {
        let resp = pending.wait().expect("pipelined request succeeds");
        assert_bitwise(&expected[i], &resp.scores, "out-of-order drain");
    }
    assert_eq!(client.in_flight(), 0, "all requests drained");
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_matches_blocking_and_direct_scores_bitwise() {
    let _g = guard();
    let (server, frozen) = start_server(2, 17);
    let sessions = session_pool(20, NUM_ITEMS as u32, 5);

    let batches: Vec<Vec<embsr_sessions::Session>> =
        (0..5).map(|i| sessions[i * 4..i * 4 + 4].to_vec()).collect();
    let direct: Vec<Vec<Vec<f32>>> = batches.iter().map(|b| frozen.score_batch(b)).collect();

    // Pipelined: submit everything, then wait.
    let client = NetClient::connect(server.addr()).expect("connect");
    assert_eq!(client.proto_version(), VERSION);
    let pendings: Vec<_> = batches
        .iter()
        .map(|b| {
            client.submit_score(
                &ScoreBatch {
                    sessions: b.clone(),
                },
                SubmitOptions::default(),
            )
        })
        .collect();
    let pipelined: Vec<Vec<Vec<f32>>> = pendings
        .into_iter()
        .map(|p| p.wait().expect("pipelined scores").scores)
        .collect();

    // Blocking: each request submitted and waited out before the next.
    let serial = NetClient::connect(server.addr()).expect("connect");
    for (i, b) in batches.iter().enumerate() {
        let resp = serial
            .submit_score(
                &ScoreBatch {
                    sessions: b.clone(),
                },
                SubmitOptions::default(),
            )
            .wait()
            .expect("blocking scores");
        assert_eq!(serial.in_flight(), 0, "submit-then-wait holds nothing in flight");
        assert_bitwise(&direct[i], &resp.scores, "blocking vs direct");
        assert_bitwise(&pipelined[i], &resp.scores, "blocking vs pipelined");
    }
    for (i, got) in pipelined.iter().enumerate() {
        assert_bitwise(&direct[i], got, "pipelined vs direct");
    }
    server.shutdown();
}

#[test]
fn frame_of_another_version_gets_an_id0_error_and_the_connection_closes() {
    let _g = guard();
    let (server, _frozen) = start_server(1, 31);

    // A peer speaking protocol version 1: a well-formed frame whose header
    // carries version byte 1, sent without a handshake.
    let mut stream = TcpStream::connect(server.addr()).expect("tcp connect");
    let span = trace::root("net_request");
    let payload = wire::encode_score_request(
        &ScoreBatch {
            sessions: session_pool(2, NUM_ITEMS as u32, 3),
        },
        SubmitOptions::default(),
        span.ctx(),
    );
    let mut bytes = frame::encode(&Frame::new(FrameKind::ScoreRequest, 77, payload))
        .expect("within cap");
    bytes[4] = 1;
    stream.write_all(&bytes).expect("write version-1 frame");
    stream.flush().expect("flush");

    let resp = frame::read_frame(&mut stream).expect("error frame");
    assert_eq!(resp.kind, FrameKind::ErrorResponse);
    assert_eq!(resp.request_id, 0, "connection-level error");
    // The wire carries non-load errors as `BadRequest` with their message.
    match wire::decode_error(&resp.payload) {
        NetError::BadRequest(msg) => {
            assert!(msg.contains(&FrameError::BadVersion(1).to_string()), "{msg}");
        }
        other => panic!("expected the BadVersion refusal, got {other:?}"),
    }
    // Closed, or reset because the unread payload was still in flight; a
    // connection left open would time out as `Idle` instead.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    let after = frame::read_frame(&mut stream);
    assert!(
        matches!(after, Err(FrameError::Closed | FrameError::Io(..))),
        "the server closes the connection, got {after:?}"
    );
    assert_eq!(server.stats().bad_requests, 1, "the violation is accounted");
    server.shutdown();
}

#[test]
fn hello_offering_an_older_version_gets_bad_request() {
    let _g = guard();
    let (server, _frozen) = start_server(1, 33);
    // Version 1 (serial), version 2 (JSON score/top-k responses) and
    // version 3 (JSON requests, errors, handshake and control payloads) are
    // all retired.
    for max_version in [1u8, 2, 3] {
        let mut stream = TcpStream::connect(server.addr()).expect("tcp connect");
        let (kind, payload) = wire::encode_request(&Request::Hello { max_version });
        frame::write_frame(&mut stream, &Frame::new(kind, 5, payload)).expect("write hello");

        let resp = frame::read_frame(&mut stream).expect("hello answer");
        assert_eq!(resp.kind, FrameKind::ErrorResponse);
        assert_eq!(resp.request_id, 5, "the answer echoes the hello's id");
        match wire::decode_error(&resp.payload) {
            NetError::BadRequest(msg) => {
                assert!(msg.contains(&format!("version {max_version}")), "{msg}")
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn connect_to_a_peer_refusing_the_hello_fails_typed_without_reconnecting() {
    // A peer that answers every Hello with a typed refusal.
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done, connect_returned) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("first connection");
        let hello = frame::read_frame(&mut stream).expect("hello frame");
        assert_eq!(hello.kind, FrameKind::Hello);
        let refusal = NetError::BadRequest("no thanks".into());
        let resp = Frame::new(FrameKind::ErrorResponse, 0, wire::encode_error(&refusal));
        frame::write_frame(&mut stream, &resp).expect("write refusal");
        // A reconnect would have completed before `connect` returned, so
        // once it has, any second connection sits in the accept backlog.
        let _ = connect_returned.recv();
        listener.set_nonblocking(true).expect("nonblocking");
        std::iter::from_fn(|| listener.accept().ok()).count()
    });

    let outcome = NetClient::connect(addr);
    let _ = done.send(());
    match outcome {
        Err(NetError::BadRequest(msg)) => assert!(msg.ends_with("no thanks"), "{msg}"),
        Err(other) => panic!("expected the peer's BadRequest, got {other:?}"),
        Ok(_) => panic!("a refused hello must fail the connect"),
    }
    assert_eq!(peer.join().expect("peer thread"), 0, "no reconnect attempt");
}

#[test]
fn submit_and_blocking_calls_interleave_on_one_connection() {
    let _g = guard();
    let (server, frozen) = start_server(2, 41);
    let sessions = session_pool(8, NUM_ITEMS as u32, 2);

    let batch_a = sessions[..3].to_vec();
    let batch_b = sessions[3..6].to_vec();
    let want_a = frozen.score_batch(&batch_a);
    let want_b = frozen.score_batch(&batch_b);
    let want_k = frozen.score_batch(&batch_a);

    let client = NetClient::connect(server.addr()).expect("connect");

    // A pending score left in flight must not disturb blocking calls on
    // the same connection, in either API shape.
    let pending = client.submit_score(
        &ScoreBatch {
            sessions: batch_a.clone(),
        },
        SubmitOptions::default(),
    );
    let blocking = client
        .score(
            &ScoreBatch { sessions: batch_b },
            SubmitOptions::default(),
        )
        .expect("blocking score amid pending");
    assert_bitwise(&want_b, &blocking.scores, "blocking amid pending");

    let top = client
        .top_k(
            &TopK {
                sessions: batch_a.clone(),
                k: 3,
            },
            SubmitOptions::default(),
        )
        .expect("top-k amid pending");
    assert_eq!(top.items.len(), batch_a.len());
    for (row, items) in want_k.iter().zip(&top.items) {
        let best = items.first().expect("k >= 1");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(best.score.to_bits(), max.to_bits(), "top-1 matches argmax");
    }

    let resp = pending.wait().expect("pending resolves after later calls");
    assert_bitwise(&want_a, &resp.scores, "pending resolved late");
    server.shutdown();
}

#[test]
fn a_malformed_request_fails_only_itself_on_a_live_connection() {
    let _g = guard();
    let (server, frozen) = start_server(1, 43);
    let sessions = session_pool(3, NUM_ITEMS as u32, 4);
    let want = frozen.score_batch(&sessions);

    let mut stream = TcpStream::connect(server.addr()).expect("tcp connect");
    let (kind, payload) = wire::encode_request(&Request::Hello {
        max_version: VERSION,
    });
    frame::write_frame(&mut stream, &Frame::new(kind, 1, payload)).expect("write hello");
    let ack = frame::read_frame(&mut stream).expect("hello answer");
    assert_eq!(ack.kind, FrameKind::HelloAck);

    // Request 11 loses its last byte: the payload no longer decodes.
    let payload = wire::encode_score_request(
        &ScoreBatch { sessions },
        SubmitOptions::default(),
        TraceCtx::NONE,
    );
    let truncated = payload[..payload.len() - 1].to_vec();
    frame::write_frame(
        &mut stream,
        &Frame::new(FrameKind::ScoreRequest, 11, truncated),
    )
    .expect("write truncated request");
    let resp = frame::read_frame(&mut stream).expect("answer to request 11");
    assert_eq!(resp.kind, FrameKind::ErrorResponse);
    assert_eq!(
        resp.request_id, 11,
        "the error answers the malformed request"
    );
    match wire::decode_error(&resp.payload) {
        NetError::BadRequest(msg) => assert!(msg.starts_with("wire: "), "{msg}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // The connection stays up: request 12 on the same stream is scored.
    frame::write_frame(
        &mut stream,
        &Frame::new(FrameKind::ScoreRequest, 12, payload),
    )
    .expect("write valid request");
    let resp = frame::read_frame(&mut stream).expect("answer to request 12");
    assert_eq!(resp.kind, FrameKind::ScoreResponse);
    assert_eq!(resp.request_id, 12);
    let got = wire::decode_score_response(&resp.payload).expect("score rows");
    assert_bitwise(&want, &got.scores, "after a malformed request");
    assert_eq!(
        server.stats().bad_requests,
        1,
        "only the malformed request failed"
    );
    server.shutdown();
}
