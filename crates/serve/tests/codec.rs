//! Property-based frame-codec suite: every message round-trips through
//! the wire encoding identically, and every corrupt-byte shape —
//! truncation at any prefix, a flipped checksum or payload byte, bad
//! hello magic, an oversize length — surfaces as a typed
//! [`ServeError`], never a panic or a silent misparse (mirroring the
//! tracestore's corrupt-input suite).

use commchar_serve::protocol::{
    decode_frame, decode_payload, encode_frame, encode_payload, Msg, ServeError, ServerStats,
    MAX_FRAME, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Arbitrary text with multi-byte UTF-8 to exercise the length prefix
/// counting bytes, not chars.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..5, 0..20).prop_map(|raw| {
        raw.into_iter()
            .map(|b| match b {
                0 => 'a',
                1 => 'Z',
                2 => '\n',
                3 => 'µ',
                _ => '🜁',
            })
            .collect()
    })
}

fn arb_error() -> impl Strategy<Value = ServeError> {
    (0u8..15, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, arb_text()).prop_map(|(code, a, b, text)| {
        match code {
            0 => ServeError::Truncated { context: text, needed: a, have: b },
            1 => ServeError::Oversize { len: a, max: b },
            2 => ServeError::ChecksumMismatch { stored: a as u32, computed: b as u32 },
            3 => ServeError::BadMagic { found: text.into_bytes() },
            4 => ServeError::BadOpcode(a as u8),
            5 => ServeError::BadVersion { client: a as u32, server: b as u32 },
            6 => ServeError::Malformed { context: text },
            7 => ServeError::UnknownSession { session: a },
            8 => ServeError::Backpressure { session: a, capacity: b + 1 },
            9 => ServeError::SessionFailed { session: a, reason: text },
            10 => ServeError::Unsorted { prev: a, at: b },
            11 => ServeError::Store { reason: text },
            12 => ServeError::Degenerate { gaps: a % 2 },
            13 => ServeError::ShuttingDown,
            _ => ServeError::Io { context: text },
        }
    })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    let blocks = prop::collection::vec(prop::collection::vec(0u8..=255, 0..64), 0..8);
    (
        (0u8..13, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, 0u32..u32::MAX),
        arb_text(),
        blocks,
        arb_error(),
    )
        .prop_map(|((tag, a, b, c), text, blocks, err)| match tag {
            0 => Msg::Hello { version: c },
            1 => Msg::OpenSession { nodes: c },
            2 => Msg::TraceBlocks { session: a, blocks },
            3 => Msg::Poll { session: a },
            4 => Msg::CloseSession { session: a },
            5 => Msg::Stats,
            6 => Msg::Shutdown,
            7 => Msg::HelloOk { version: c, max_frame: c.wrapping_add(7), session_buffer: b },
            8 => Msg::SessionOpened { session: a },
            9 => Msg::BlocksAck { session: a, events: b },
            10 => Msg::Report { session: a, events: b, is_final: a % 2 == 0, text },
            11 => Msg::StatsReport(ServerStats {
                sessions_open: a,
                sessions_opened: a + 1,
                sessions_closed: b,
                evictions: b % 7,
                frames: a ^ b,
                frame_errors: a % 13,
                events: b,
                bytes: a,
                polls: b % 101,
                uptime_ms: a % 100_000,
            }),
            12 => Msg::ShutdownOk,
            _ => Msg::Error(err),
        })
}

proptest! {
    #[test]
    fn frame_roundtrip_is_identity(msg in arb_msg()) {
        let frame = encode_frame(&msg);
        let decoded = decode_frame(&frame, MAX_FRAME);
        match decoded {
            Ok(Some((back, consumed))) => {
                prop_assert_eq!(&back, &msg, "decode changed the message");
                prop_assert_eq!(consumed, frame.len(), "frame length miscounted");
            }
            other => prop_assert!(false, "frame failed to decode: {:?}", other),
        }
        // The payload codec alone round-trips too.
        prop_assert_eq!(decode_payload(&encode_payload(&msg)).unwrap(), msg);
    }

    #[test]
    fn every_truncation_asks_for_more_or_errors_typed(msg in arb_msg()) {
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            // A frame prefix must never decode to a message: the codec
            // either waits for more bytes or reports a typed error
            // (never a panic, never a misparse).
            match decode_frame(&frame[..cut], MAX_FRAME) {
                Ok(None) => {}
                Ok(Some((m, _))) => {
                    prop_assert!(false, "prefix of {} bytes decoded to {:?}", cut, m)
                }
                Err(_typed) => {}
            }
        }
    }

    #[test]
    fn every_payload_byte_flip_is_caught_by_the_checksum(msg in arb_msg(), flip in 0usize..4096, bit in 0u8..8) {
        let mut frame = encode_frame(&msg);
        let payload_len = frame.len() - 8;
        prop_assume!(payload_len > 0);
        let at = 8 + flip % payload_len;
        frame[at] ^= 1 << bit;
        match decode_frame(&frame, MAX_FRAME) {
            Err(ServeError::ChecksumMismatch { stored, computed }) => {
                prop_assert_ne!(stored, computed)
            }
            other => prop_assert!(false, "flipped payload byte not caught: {:?}", other),
        }
    }

    #[test]
    fn header_corruption_is_typed(msg in arb_msg(), junk in 0u32..u32::MAX) {
        // An inflated length either trips the oversize guard from the
        // header alone or (still under the cap) reads as an incomplete
        // frame — never an allocation of the declared size and a panic.
        let mut frame = encode_frame(&msg);
        let inflated = (junk | 1).max(frame.len() as u32);
        frame[0..4].copy_from_slice(&inflated.to_le_bytes());
        match decode_frame(&frame, MAX_FRAME) {
            Err(ServeError::Oversize { len, max }) => {
                prop_assert_eq!(len, u64::from(inflated));
                prop_assert_eq!(max, u64::from(MAX_FRAME));
            }
            Ok(None) => prop_assert!(u64::from(inflated) <= u64::from(MAX_FRAME)),
            other => prop_assert!(false, "inflated length: {:?}", other),
        }
        // A corrupted stored checksum is always a ChecksumMismatch.
        let mut frame = encode_frame(&msg);
        frame[4] ^= 0xff;
        prop_assert!(matches!(
            decode_frame(&frame, MAX_FRAME),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }
}

#[test]
fn bad_hello_magic_reports_the_found_bytes() {
    let mut payload = encode_payload(&Msg::Hello { version: PROTOCOL_VERSION });
    payload[1..9].copy_from_slice(b"NOTSERVE");
    match decode_payload(&payload) {
        Err(ServeError::BadMagic { found }) => assert_eq!(found, b"NOTSERVE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unknown_opcode_and_trailing_bytes_are_typed() {
    match decode_payload(&[0x42]) {
        Err(ServeError::BadOpcode(0x42)) => {}
        other => panic!("expected BadOpcode, got {other:?}"),
    }
    let mut payload = encode_payload(&Msg::Poll { session: 1 });
    payload.push(0);
    match decode_payload(&payload) {
        Err(ServeError::Malformed { context }) => assert!(context.contains("trailing")),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn absurd_block_count_is_rejected_before_allocation() {
    // Opcode 0x03 + session + a block count far beyond the payload size.
    let mut payload = vec![0x03];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    match decode_payload(&payload) {
        Err(ServeError::Malformed { context }) => assert!(context.contains("blocks claimed")),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn error_frames_roundtrip_the_whole_taxonomy() {
    let errors = [
        ServeError::Truncated { context: "x".into(), needed: 8, have: 3 },
        ServeError::Oversize { len: 1 << 40, max: 1 << 24 },
        ServeError::ChecksumMismatch { stored: 1, computed: 2 },
        ServeError::BadMagic { found: vec![1, 2, 3] },
        ServeError::BadOpcode(0x99),
        ServeError::BadVersion { client: 2, server: 1 },
        ServeError::Malformed { context: "why".into() },
        ServeError::UnknownSession { session: 17 },
        ServeError::Backpressure { session: 1, capacity: 11 },
        ServeError::SessionFailed { session: 2, reason: "boom".into() },
        ServeError::Unsorted { prev: 9, at: 4 },
        ServeError::Store { reason: "short block".into() },
        ServeError::Degenerate { gaps: 1 },
        ServeError::ShuttingDown,
        ServeError::Io { context: "pipe".into() },
    ];
    for e in errors {
        let msg = Msg::Error(e.clone());
        let (back, _) = decode_frame(&encode_frame(&msg), MAX_FRAME).unwrap().unwrap();
        assert_eq!(back, Msg::Error(e));
    }
}
