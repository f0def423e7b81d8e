//! The wire form of [`TableDelta`] batches, the currency of the
//! durability layer's write-ahead journal:
//! [`encode_deltas`] / [`decode_deltas`] serialize a batch as fixed-width
//! 6-byte records (kind, address, length) with a typed decode error —
//! framing and checksumming live one layer up, in the journal codec.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::fmt;

use netclust_prefix::Ipv4Net;

use crate::patch::{DeltaKind, TableDelta};

/// Bytes per serialized [`TableDelta`]: kind `u8`, address `u32` LE,
/// prefix length `u8`.
pub const DELTA_WIRE_BYTES: usize = 6;

/// Why a serialized delta batch failed to decode. Every variant names the
/// offending record so journal-recovery reports are actionable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaCodecError {
    /// The buffer length is not a multiple of [`DELTA_WIRE_BYTES`].
    Truncated {
        /// Total bytes in the buffer.
        len: usize,
    },
    /// A record carried an unknown delta-kind tag.
    BadKind {
        /// Record index (0-based).
        index: usize,
        /// The unrecognized tag byte.
        found: u8,
    },
    /// A record carried a prefix length over 32.
    BadPrefixLen {
        /// Record index (0-based).
        index: usize,
        /// The out-of-range length byte.
        found: u8,
    },
}

impl fmt::Display for DeltaCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaCodecError::Truncated { len } => write!(
                f,
                "delta batch truncated: {len} bytes is not a multiple of {DELTA_WIRE_BYTES}"
            ),
            DeltaCodecError::BadKind { index, found } => {
                write!(f, "delta record {index}: unknown kind tag {found:#04x}")
            }
            DeltaCodecError::BadPrefixLen { index, found } => {
                write!(f, "delta record {index}: prefix length {found} exceeds 32")
            }
        }
    }
}

impl std::error::Error for DeltaCodecError {}

/// Wire tag for a [`DeltaKind`] (stable across versions; the decoder
/// rejects anything else).
fn kind_tag(kind: DeltaKind) -> u8 {
    match kind {
        DeltaKind::Announce => 0,
        DeltaKind::Withdraw => 1,
        DeltaKind::Replace => 2,
    }
}

/// Serializes a delta batch as `deltas.len()` fixed-width records of
/// [`DELTA_WIRE_BYTES`] bytes each: kind tag, big-endian address as `u32`
/// LE, prefix length. The inverse of [`decode_deltas`].
pub fn encode_deltas(deltas: &[TableDelta]) -> Vec<u8> {
    let mut out = Vec::with_capacity(deltas.len() * DELTA_WIRE_BYTES);
    for d in deltas {
        out.push(kind_tag(d.kind));
        out.extend_from_slice(&d.prefix.addr_u32().to_le_bytes());
        out.push(d.prefix.len());
    }
    out
}

/// Decodes a batch serialized by [`encode_deltas`], validating every
/// record: the buffer must divide evenly into records, kind tags must be
/// known, and prefix lengths must fit. Never panics on arbitrary input.
pub fn decode_deltas(bytes: &[u8]) -> Result<Vec<TableDelta>, DeltaCodecError> {
    if !bytes.len().is_multiple_of(DELTA_WIRE_BYTES) {
        return Err(DeltaCodecError::Truncated { len: bytes.len() });
    }
    let mut out = Vec::with_capacity(bytes.len() / DELTA_WIRE_BYTES);
    for (index, rec) in bytes.chunks_exact(DELTA_WIRE_BYTES).enumerate() {
        let (&tag, rest) = rec
            .split_first()
            .ok_or(DeltaCodecError::Truncated { len: bytes.len() })?;
        let kind = match tag {
            0 => DeltaKind::Announce,
            1 => DeltaKind::Withdraw,
            2 => DeltaKind::Replace,
            found => return Err(DeltaCodecError::BadKind { index, found }),
        };
        let (addr_bytes, len_byte) = rest.split_at(4);
        let mut addr = [0u8; 4];
        addr.copy_from_slice(addr_bytes);
        let addr = u32::from_le_bytes(addr);
        let len = len_byte.first().copied().unwrap_or(0);
        let prefix = Ipv4Net::new(addr, len)
            .map_err(|_| DeltaCodecError::BadPrefixLen { index, found: len })?;
        out.push(TableDelta { prefix, kind });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_testkit::net;

    #[test]
    fn delta_wire_round_trip() {
        let deltas = vec![
            TableDelta::announce(net("24.48.2.0/23")),
            TableDelta::withdraw(net("18.0.0.0/8")),
            TableDelta::replace(net("6.0.0.0/8")),
            TableDelta::announce(net("0.0.0.0/0")),
            TableDelta::withdraw(net("255.255.255.255/32")),
        ];
        let bytes = encode_deltas(&deltas);
        assert_eq!(bytes.len(), deltas.len() * DELTA_WIRE_BYTES);
        assert_eq!(decode_deltas(&bytes).expect("round trip"), deltas);
        assert_eq!(decode_deltas(&[]).expect("empty"), Vec::new());
    }

    #[test]
    fn delta_wire_rejects_malformed_input() {
        let bytes = encode_deltas(&[TableDelta::announce(net("10.0.0.0/8"))]);
        // Truncation at any non-record boundary.
        for cut in 1..DELTA_WIRE_BYTES {
            assert_eq!(
                decode_deltas(&bytes[..cut]),
                Err(DeltaCodecError::Truncated { len: cut })
            );
        }
        // Unknown kind tag.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert_eq!(
            decode_deltas(&bad),
            Err(DeltaCodecError::BadKind { index: 0, found: 9 })
        );
        // Prefix length over 32.
        let mut bad = bytes;
        bad[5] = 33;
        assert_eq!(
            decode_deltas(&bad),
            Err(DeltaCodecError::BadPrefixLen {
                index: 0,
                found: 33
            })
        );
        // Errors render a message naming the record.
        let msg = DeltaCodecError::BadKind { index: 3, found: 9 }.to_string();
        assert!(msg.contains("record 3"), "{msg}");
    }
}
