//! Columnar block payload encodings.
//!
//! Within one block, event fields are laid out as separate columns so
//! that each column's regularity (monotone ids, clustered timestamps, a
//! tiny kind alphabet, mostly-absent dependencies) is visible to its
//! encoder (`varint n` first, then columns in this order):
//!
//! | column | encoding |
//! |---|---|
//! | `id` | zigzag varint of the delta from the previous id (first from 0) |
//! | `t` | zigzag varint of the delta from the previous time |
//! | `src`, `dst` | plain varint |
//! | `bytes` | plain varint |
//! | `kind` | dictionary: `u8` size, the distinct kind codes, then — only if the dictionary has >1 entry — bit-packed per-record indices (1 or 2 bits, LSB-first) |
//! | `depends_on` | presence bitmap (1 bit per record, LSB-first), then one zigzag varint `id − dep` per present record |

use commchar_trace::{CommEvent, EventKind};

use crate::varint::{self, Cursor};
use crate::TraceStoreError;

fn kind_code(kind: EventKind) -> u8 {
    match kind {
        EventKind::Control => 0,
        EventKind::Data => 1,
        EventKind::Sync => 2,
    }
}

fn kind_from_code(code: u8) -> Result<EventKind, TraceStoreError> {
    match code {
        0 => Ok(EventKind::Control),
        1 => Ok(EventKind::Data),
        2 => Ok(EventKind::Sync),
        other => Err(TraceStoreError::Corrupt(format!("unknown event kind code {other}"))),
    }
}

fn delta_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut prev = 0i64;
    for v in values {
        let v = v as i64;
        varint::put(out, varint::zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
}

fn read_delta(
    cur: &mut Cursor<'_>,
    prev: &mut i64,
    ctx: &'static str,
) -> Result<u64, TraceStoreError> {
    let delta = cur.svarint(ctx)?;
    *prev = prev.wrapping_add(delta);
    Ok(*prev as u64)
}

/// Encodes one block of events as a column payload.
pub(crate) fn encode_events(events: &[CommEvent]) -> Vec<u8> {
    let n = events.len();
    // ~4 bytes/field is a comfortable upper-bound starting capacity.
    let mut out = Vec::with_capacity(8 + n * 8);
    varint::put(&mut out, n as u64);
    delta_column(&mut out, events.iter().map(|e| e.id));
    delta_column(&mut out, events.iter().map(|e| e.t));
    for e in events {
        varint::put(&mut out, e.src as u64);
    }
    for e in events {
        varint::put(&mut out, e.dst as u64);
    }
    for e in events {
        varint::put(&mut out, e.bytes as u64);
    }
    // Kind dictionary: the distinct codes present, in first-seen order.
    let mut dict: Vec<u8> = Vec::with_capacity(3);
    for e in events {
        let c = kind_code(e.kind);
        if !dict.contains(&c) {
            dict.push(c);
        }
    }
    out.push(dict.len() as u8);
    out.extend_from_slice(&dict);
    if dict.len() > 1 {
        let bits = if dict.len() == 2 { 1 } else { 2 };
        let mut packed = vec![0u8; (n * bits).div_ceil(8)];
        for (i, e) in events.iter().enumerate() {
            let idx = dict.iter().position(|&c| c == kind_code(e.kind)).expect("code in dict");
            let bit = i * bits;
            // 1- and 2-bit indices never straddle a byte boundary.
            packed[bit / 8] |= (idx as u8) << (bit % 8);
        }
        out.extend_from_slice(&packed);
    }
    // Dependency presence bitmap + deltas from the event's own id.
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    for (i, e) in events.iter().enumerate() {
        if e.depends_on.is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for e in events {
        if let Some(dep) = e.depends_on {
            varint::put(&mut out, varint::zigzag((e.id as i64).wrapping_sub(dep as i64)));
        }
    }
    out
}

/// Decodes one event-block payload. `nodes` bounds endpoint validation.
pub(crate) fn decode_events(
    payload: &[u8],
    nodes: usize,
) -> Result<Vec<CommEvent>, TraceStoreError> {
    let mut cur = Cursor::new(payload);
    let n = cur.varint("event count")? as usize;
    // A record needs ≥7 payload bytes even when every column is one byte,
    // so an absurd count is caught before any allocation.
    if n > payload.len() {
        return Err(TraceStoreError::Corrupt(format!(
            "block claims {n} events in a {}-byte payload",
            payload.len()
        )));
    }
    let mut ids = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        ids.push(read_delta(&mut cur, &mut prev, "event id")?);
    }
    let mut times = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        times.push(read_delta(&mut cur, &mut prev, "event time")?);
    }
    let endpoint = |v: u64, what: &str| -> Result<u16, TraceStoreError> {
        if v as usize >= nodes || v > u16::MAX as u64 {
            return Err(TraceStoreError::Corrupt(format!(
                "{what} {v} out of range for {nodes} nodes"
            )));
        }
        Ok(v as u16)
    };
    let mut srcs = Vec::with_capacity(n);
    for _ in 0..n {
        srcs.push(endpoint(cur.varint("event source")?, "source")?);
    }
    let mut dsts = Vec::with_capacity(n);
    for _ in 0..n {
        dsts.push(endpoint(cur.varint("event destination")?, "destination")?);
    }
    let mut bytes = Vec::with_capacity(n);
    for _ in 0..n {
        let b = cur.varint("event bytes")?;
        if b > u32::MAX as u64 {
            return Err(TraceStoreError::Corrupt(format!("event length {b} exceeds u32")));
        }
        bytes.push(b as u32);
    }
    let dict_len = cur.byte("kind dictionary size")? as usize;
    if dict_len > 3 || (dict_len == 0 && n > 0) {
        return Err(TraceStoreError::Corrupt(format!("kind dictionary of size {dict_len}")));
    }
    let mut dict = Vec::with_capacity(dict_len);
    for &code in cur.bytes(dict_len, "kind dictionary")? {
        dict.push(kind_from_code(code)?);
    }
    let kinds: Vec<EventKind> = if dict_len == 1 {
        vec![dict[0]; n]
    } else {
        let bits = if dict_len == 2 { 1 } else { 2 };
        let packed = cur.bytes((n * bits).div_ceil(8), "kind indices")?;
        let mask = (1u8 << bits) - 1;
        (0..n)
            .map(|i| {
                let bit = i * bits;
                let idx = ((packed[bit / 8] >> (bit % 8)) & mask) as usize;
                dict.get(idx).copied().ok_or_else(|| {
                    TraceStoreError::Corrupt(format!("kind index {idx} outside dictionary"))
                })
            })
            .collect::<Result<_, _>>()?
    };
    let bitmap = cur.bytes(n.div_ceil(8), "dependency bitmap")?.to_vec();
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let dep = if bitmap[i / 8] >> (i % 8) & 1 == 1 {
            let delta = cur.svarint("dependency delta")?;
            let dep = (ids[i] as i64).wrapping_sub(delta);
            if dep < 0 {
                return Err(TraceStoreError::Corrupt(format!(
                    "event {} depends on negative id {dep}",
                    ids[i]
                )));
            }
            Some(dep as u64)
        } else {
            None
        };
        if srcs[i] == dsts[i] {
            return Err(TraceStoreError::Corrupt(format!(
                "event {} is a self-message at node {}",
                ids[i], srcs[i]
            )));
        }
        let mut e = CommEvent::new(ids[i], times[i], srcs[i], dsts[i], bytes[i], kinds[i]);
        e.depends_on = dep;
        events.push(e);
    }
    if cur.remaining() != 0 {
        return Err(TraceStoreError::Corrupt(format!(
            "{} trailing bytes after the last column",
            cur.remaining()
        )));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, t: u64, src: u16, dst: u16, kind: EventKind) -> CommEvent {
        CommEvent::new(id, t, src, dst, 8 + id as u32, kind)
    }

    #[test]
    fn event_block_roundtrip_mixed_kinds() {
        let events = vec![
            ev(0, 100, 0, 1, EventKind::Control),
            ev(1, 90, 1, 2, EventKind::Data).after(0),
            ev(5, 4000, 2, 0, EventKind::Sync),
            ev(6, 4001, 0, 2, EventKind::Data).after(5),
        ];
        let payload = encode_events(&events);
        assert_eq!(decode_events(&payload, 4).unwrap(), events);
    }

    #[test]
    fn event_block_roundtrip_single_kind_has_no_index_column() {
        let many: Vec<CommEvent> = (0..100).map(|i| ev(i, i * 3, 0, 1, EventKind::Data)).collect();
        let mono = encode_events(&many);
        let mixed: Vec<CommEvent> = (0..100)
            .map(|i| ev(i, i * 3, 0, 1, if i % 2 == 0 { EventKind::Data } else { EventKind::Sync }))
            .collect();
        let duo = encode_events(&mixed);
        assert_eq!(decode_events(&mono, 2).unwrap(), many);
        assert_eq!(decode_events(&duo, 2).unwrap(), mixed);
        // One kind ⇒ no per-record kind storage: only the extra dict byte
        // and the 1-bit-per-record index column separate the two.
        assert!(duo.len() > mono.len());
        assert!(duo.len() <= mono.len() + 1 + 100 / 8 + 1);
    }

    #[test]
    fn decode_validates_endpoints() {
        let events = vec![ev(0, 1, 3, 1, EventKind::Data)];
        let payload = encode_events(&events);
        assert!(decode_events(&payload, 4).is_ok());
        let err = decode_events(&payload, 3).unwrap_err();
        assert!(matches!(err, TraceStoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_block_roundtrips() {
        assert_eq!(decode_events(&encode_events(&[]), 2).unwrap(), vec![]);
    }

    #[test]
    fn truncated_payload_is_typed() {
        let events = vec![ev(0, 1, 0, 1, EventKind::Data), ev(1, 2, 1, 0, EventKind::Data)];
        let payload = encode_events(&events);
        for cut in 1..payload.len() {
            let err = decode_events(&payload[..cut], 2).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceStoreError::Truncated { .. }
                        | TraceStoreError::Corrupt(_)
                        | TraceStoreError::VarintOverflow { .. }
                ),
                "cut at {cut}: unexpected {err}"
            );
        }
    }
}
