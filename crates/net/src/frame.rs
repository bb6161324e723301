//! The length-prefixed frame codec — the lowest layer of the wire protocol.
//!
//! Every message on a connection is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        "EMBN" (0x45 0x4D 0x42 0x4E)
//! 4       1     version      protocol version (4)
//! 5       1     kind         FrameKind discriminant
//! 6       8     request id   u64, little-endian; responses echo it
//! 14      4     payload len  u32, little-endian, <= MAX_PAYLOAD
//! 18      len   payload      little-endian binary, laid out per kind
//!                            (see `wire`)
//! ```
//!
//! One protocol version is spoken: [`VERSION`], with multiplexed
//! connections (`Hello`/`HelloAck` opens them), the control plane
//! (`Control`/`ControlReply`) and one binary payload format for every
//! kind. A header carrying any other version is refused with
//! [`FrameError::BadVersion`], so a peer that still sends version 3's JSON
//! requests fails at its first frame header rather than on a payload it
//! cannot parse; the version byte and the handshake stay so a later
//! version can still be negotiated.
//!
//! The codec is deliberately paranoid: every malformed input maps to a
//! typed [`FrameError`] — bad magic, unknown version or kind, oversized
//! length, truncation mid-frame — and never to a panic, because the bytes
//! come from the network. [`read_frame`] tolerates arbitrarily split and
//! coalesced reads (it loops on short reads), which the protocol property
//! tests exercise with a chunking mock transport.
//!
//! Read timeouts are part of the contract: a transport configured with a
//! read timeout yields [`FrameError::Idle`] when *no* byte of a frame has
//! arrived yet (callers poll shutdown flags on it), but a stall *mid*-frame
//! is only retried [`MAX_MID_FRAME_STALLS`] times before the frame is
//! declared dead — a peer that sends half a header must not pin a handler
//! thread forever.

use std::io::{self, Read, Write};

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"EMBN";
/// The protocol version: multiplexed connections, the control plane, and
/// little-endian binary payloads of every kind (version 3 sent requests,
/// errors, the handshake and control payloads as JSON and is refused).
pub const VERSION: u8 = 4;
/// Upper bound on the payload of one frame (64 MiB). A length field above
/// this is rejected before any allocation, so a hostile header cannot OOM
/// the server.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 18;
/// Consecutive read timeouts tolerated once a frame has started arriving.
pub const MAX_MID_FRAME_STALLS: u32 = 600;

/// Discriminant of a frame's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: a `ScoreBatch` request.
    ScoreRequest = 1,
    /// Client → server: a `TopK` request.
    TopKRequest = 2,
    /// Server → client: full-vocabulary score rows.
    ScoreResponse = 3,
    /// Server → client: top-k recommendations.
    TopKResponse = 4,
    /// Server → client: a typed error (see `wire::decode_error`).
    ErrorResponse = 5,
    /// Client → server: version negotiation opener.
    Hello = 6,
    /// Server → client: negotiation answer.
    HelloAck = 7,
    /// Client → server: a control-plane command
    /// (`LoadSnapshot`/`Activate`/`Status`).
    Control = 8,
    /// Server → client: the control-plane answer.
    ControlReply = 9,
}

impl FrameKind {
    /// Parses the on-wire discriminant byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::ScoreRequest),
            2 => Some(FrameKind::TopKRequest),
            3 => Some(FrameKind::ScoreResponse),
            4 => Some(FrameKind::TopKResponse),
            5 => Some(FrameKind::ErrorResponse),
            6 => Some(FrameKind::Hello),
            7 => Some(FrameKind::HelloAck),
            8 => Some(FrameKind::Control),
            9 => Some(FrameKind::ControlReply),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version of the header; [`VERSION`] on every frame that
    /// encodes or decodes.
    pub version: u8,
    pub kind: FrameKind,
    /// Correlates responses with requests on a connection; the server
    /// echoes the id of the request it is answering.
    pub request_id: u64,
    /// Interpreted by the `wire` layer according to `kind`; every kind's
    /// payload is little-endian binary.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame at the current protocol version.
    pub fn new(kind: FrameKind, request_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            version: VERSION,
            kind,
            request_id,
            payload,
        }
    }
}

/// Everything that can go wrong at the framing layer. All variants are
/// data, never panics — network bytes are untrusted input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Clean EOF on a frame boundary: the peer closed the connection.
    Closed,
    /// No byte arrived before the transport's read timeout while waiting
    /// for a new frame; the caller may poll and retry.
    Idle,
    /// EOF or a terminal stall in the middle of a frame.
    Truncated { expected: usize, got: usize },
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown [`FrameKind`] discriminant.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`] (or, on encode, the
    /// payload itself does).
    TooLarge { len: u64, max: u32 },
    /// Transport-level I/O failure.
    Io(io::ErrorKind, String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Idle => write!(f, "no frame before read timeout"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: got {got} of {expected} bytes")
            }
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(kind, msg) => write!(f, "i/o error ({kind:?}): {msg}"),
        }
    }
}

/// Serializes a frame to bytes. Fails only when the payload exceeds
/// [`MAX_PAYLOAD`].
pub fn encode(frame: &Frame) -> Result<Vec<u8>, FrameError> {
    let len = frame.payload.len();
    if len as u64 > MAX_PAYLOAD as u64 {
        return Err(FrameError::TooLarge {
            len: len as u64,
            max: MAX_PAYLOAD,
        });
    }
    if frame.version != VERSION {
        return Err(FrameError::BadVersion(frame.version));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + len);
    out.extend_from_slice(&MAGIC);
    out.push(frame.version);
    out.push(frame.kind as u8);
    out.extend_from_slice(&frame.request_id.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&frame.payload);
    Ok(out)
}

/// Writes one frame to the transport and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), FrameError> {
    let bytes = encode(frame)?;
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| FrameError::Io(e.kind(), e.to_string()))
}

/// True for the error kinds a read timeout surfaces as (platform-dependent).
fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Fills `buf` completely, tolerating split reads. `already` bytes of the
/// frame were consumed before this call (0 while reading the header);
/// `expected` is the full frame region being read, for error reporting.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    already: usize,
    expected: usize,
) -> Result<(), FrameError> {
    let mut got = 0;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if already + got == 0 {
                    return Err(FrameError::Closed);
                }
                return Err(FrameError::Truncated {
                    expected,
                    got: already + got,
                });
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                if already + got == 0 {
                    return Err(FrameError::Idle);
                }
                // Mid-frame: the peer started a frame and stalled. Retry a
                // bounded number of times, then declare the frame dead so a
                // half-sent header cannot pin this thread forever.
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(FrameError::Truncated {
                        expected,
                        got: already + got,
                    });
                }
            }
            Err(e) => return Err(FrameError::Io(e.kind(), e.to_string())),
        }
    }
    Ok(())
}

/// Reads one frame, validating magic, version, kind and length before
/// touching the payload. Split and coalesced reads are handled; see the
/// module docs for the timeout contract.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, 0, HEADER_LEN)?;
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = header[4];
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = FrameKind::from_u8(header[5]).ok_or(FrameError::BadKind(header[5]))?;
    let mut id_bytes = [0u8; 8];
    id_bytes.copy_from_slice(&header[6..14]);
    let request_id = u64::from_le_bytes(id_bytes);
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&header[14..18]);
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge {
            len: len as u64,
            max: MAX_PAYLOAD,
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, HEADER_LEN, HEADER_LEN + len as usize)?;
    Ok(Frame {
        version,
        kind,
        request_id,
        payload,
    })
}
