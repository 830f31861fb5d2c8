//! Property tests for the wire protocol codecs.
//!
//! The invariants mirror `mps-wal`'s record properties, one layer up:
//! every frame round-trips bit-exactly; every strict prefix of a frame
//! is torn or invalid, never a different valid frame; corruption is
//! always detected; and the RPC envelopes round-trip through their
//! codecs. Seeded loops over [`SimRng`], so they run wherever the unit
//! tests do.

use crate::frame::{
    decode_frame, encode_frame, Decoded, Frame, FrameType, DEFAULT_MAX_FRAME_BYTES,
};
use crate::rpc::{RequestEnvelope, ResponseEnvelope};
use mps_simcore::check::{any_u64, check, text};
use mps_simcore::SimRng;

/// `0..max_len` arbitrary bytes.
fn bytes(r: &mut SimRng, max_len: usize) -> Vec<u8> {
    (0..r.index(max_len)).map(|_| r.index(256) as u8).collect()
}

fn frame(r: &mut SimRng) -> Frame {
    let frame_type = *r.pick(&[
        FrameType::Hello,
        FrameType::HelloAck,
        FrameType::Request,
        FrameType::Response,
    ]);
    Frame::new(frame_type, bytes(r, 512))
}

#[test]
fn frame_round_trips() {
    check(|r| {
        let frame = frame(r);
        let bytes = encode_frame(&frame);
        match decode_frame(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            Decoded::Frame(back, used) => {
                assert_eq!(back, frame);
                assert_eq!(used, bytes.len());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    });
}

#[test]
fn torn_frames_never_parse() {
    check(|r| {
        let bytes = encode_frame(&frame(r));
        let cut = r.index(bytes.len());
        match decode_frame(&bytes[..cut], DEFAULT_MAX_FRAME_BYTES) {
            Decoded::Frame(..) => panic!("prefix decoded as a complete frame"),
            Decoded::End => assert_eq!(cut, 0),
            Decoded::Torn | Decoded::Invalid(_) => {}
        }
    });
}

#[test]
fn single_byte_corruption_is_detected() {
    check(|r| {
        let mut bytes = encode_frame(&frame(r));
        let at = r.index(bytes.len());
        bytes[at] ^= 1 + r.index(255) as u8;
        match decode_frame(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            // A flipped length byte can make the frame look longer or
            // shorter; longer reads as torn, never as silently valid.
            Decoded::Invalid(_) | Decoded::Torn => {}
            // The only way a corrupted buffer may still decode is a
            // flip *after* the declared frame end (trailing bytes) —
            // impossible here since we encode exactly one frame.
            Decoded::Frame(back, _) => {
                panic!("corrupt frame decoded as valid: {:?}", back.frame_type)
            }
            Decoded::End => panic!("non-empty buffer decoded as End"),
        }
    });
}

#[test]
fn request_envelope_round_trips() {
    check(|r| {
        let printable: Vec<u8> = (b' '..=b'~').collect();
        let request = RequestEnvelope {
            correlation: any_u64(r),
            opcode: r.index(256) as u8,
            headers: (0..r.index(4))
                .map(|_| {
                    (
                        text(r, b"abcdefghijklmnopqrstuvwxyz-", 1, 12),
                        text(r, &printable, 0, 24),
                    )
                })
                .collect(),
            body: bytes(r, 256),
        };
        assert_eq!(RequestEnvelope::decode(&request.encode()).unwrap(), request);
    });
}

#[test]
fn response_envelope_round_trips() {
    check(|r| {
        let response = ResponseEnvelope {
            correlation: any_u64(r),
            status: r.index(256) as u8,
            body: bytes(r, 256),
        };
        assert_eq!(
            ResponseEnvelope::decode(&response.encode()).unwrap(),
            response
        );
    });
}

#[test]
fn concatenated_frames_decode_in_order() {
    check(|r| {
        let frames: Vec<Frame> = (0..1 + r.index(4)).map(|_| frame(r)).collect();
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&encode_frame(frame));
        }
        let mut offset = 0usize;
        for expected in &frames {
            match decode_frame(&stream[offset..], DEFAULT_MAX_FRAME_BYTES) {
                Decoded::Frame(frame, used) => {
                    assert_eq!(&frame, expected);
                    offset += used;
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert_eq!(offset, stream.len());
    });
}
