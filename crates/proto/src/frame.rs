//! Length-prefixed wire framing.
//!
//! Each frame is a 4-byte big-endian length followed by a JSON payload.
//! JSON keeps the protocol debuggable with `nc`/`tcpdump` — apt for a
//! protocol whose selling point is that heterogeneous resource managers can
//! implement it easily — while the length prefix gives unambiguous message
//! boundaries over a stream. A hard size cap defends against corrupt or
//! hostile length words.

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Upper bound on a frame payload; anything larger is a protocol error.
/// Coordination messages are tens of bytes, so 64 KiB is generous.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Framing/parsing failures.
#[derive(Debug)]
pub enum FrameError {
    /// Declared length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// Payload was not valid JSON for the expected type.
    Malformed(serde_json::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME_LEN}"),
            FrameError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Serialise `msg` into one wire frame.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    let payload = serde_json::to_vec(msg).expect("protocol messages always serialize");
    assert!(payload.len() <= MAX_FRAME_LEN, "outgoing frame exceeds cap");
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&payload);
    buf
}

/// Incremental frame decoder: feed bytes as they arrive, pull out complete
/// messages.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Try to decode the next complete frame. `Ok(None)` means more bytes
    /// are needed.
    #[allow(clippy::should_implement_trait)] // fallible & typed; not an Iterator
    pub fn next<T: DeserializeOwned>(&mut self) -> Result<Option<T>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        // Consume the frame whether or not its payload parses.
        let msg = serde_json::from_slice(&self.buf[4..4 + len]);
        self.buf.drain(..4 + len);
        msg.map(Some).map_err(FrameError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Request, Response};
    use cosched_workload::JobId;

    #[test]
    fn encode_decode_roundtrip() {
        let req = Request::GetMateStatus { job: JobId(42) };
        let wire = encode(&req);
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        let back: Request = dec.next().unwrap().unwrap();
        assert_eq!(back, req);
        assert!(
            dec.next::<Request>().unwrap().is_none(),
            "frame fully consumed"
        );
    }

    #[test]
    fn partial_feeds_wait_for_more() {
        let wire = encode(&Request::Ping);
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time; only the final byte completes the frame.
        for (i, b) in wire.iter().enumerate() {
            dec.extend(&[*b]);
            let got: Option<Request> = dec.next().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame completed early at byte {i}");
            } else {
                assert_eq!(got, Some(Request::Ping));
            }
        }
    }

    #[test]
    fn multiple_frames_in_one_feed() {
        let mut all = Vec::new();
        all.extend_from_slice(&encode(&Response::Started(true)));
        all.extend_from_slice(&encode(&Response::Pong));
        all.extend_from_slice(&encode(&Response::Started(false)));
        let mut dec = FrameDecoder::new();
        dec.extend(&all);
        let a: Response = dec.next().unwrap().unwrap();
        let b: Response = dec.next().unwrap().unwrap();
        let c: Response = dec.next().unwrap().unwrap();
        assert_eq!(a, Response::Started(true));
        assert_eq!(b, Response::Pong);
        assert_eq!(c, Response::Started(false));
        let d: Option<Response> = dec.next().unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        dec.extend(&[0u8; 16]);
        let err = dec.next::<Request>().unwrap_err();
        assert!(matches!(err, FrameError::Oversized(_)), "{err}");
    }

    #[test]
    fn malformed_payload_is_rejected() {
        let mut dec = FrameDecoder::new();
        let garbage = b"not json!!";
        dec.extend(&(garbage.len() as u32).to_be_bytes());
        dec.extend(garbage);
        let err = dec.next::<Request>().unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        // The bad frame was consumed: the next frame decodes.
        dec.extend(&encode(&Request::Ping));
        assert_eq!(dec.next::<Request>().unwrap(), Some(Request::Ping));
    }

    #[test]
    fn decoder_recovers_frame_boundary_split_inside_length() {
        let wire = encode(&Request::Ping);
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..2]); // half the length word
        assert!(dec.next::<Request>().unwrap().is_none());
        dec.extend(&wire[2..]);
        assert_eq!(dec.next::<Request>().unwrap(), Some(Request::Ping));
    }
}
