//! Framed binary wire codec for the durability layer (DESIGN.md §16).
//!
//! Both persistence files — full snapshots and the write-ahead journal —
//! share one self-describing layout: a 12-byte versioned file header
//! followed by length-prefixed, CRC-checksummed frames. CRC32 (IEEE) is
//! chosen over a cheap FNV fold because it *mathematically* detects every
//! single-bit error, which is exactly the torn-write/bit-rot class the
//! recovery scan must stop on; multi-bit corruption is caught with
//! probability `1 - 2^-32` per frame.
//!
//! This module is on the journal append hot path and denies the
//! panic-family lints below: every read is bounds-checked through
//! [`Reader`], every decode returns a typed [`FrameError`], and arbitrary
//! input — flipped, truncated, or adversarial — can never panic or
//! over-allocate (frame lengths are validated against the bytes actually
//! present before any allocation).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt;

/// File magic: "NCLP" (netclust persist).
pub const MAGIC: [u8; 4] = *b"NCLP";

/// The format version this build writes; bumped on any incompatible
/// layout change. Version 2 codes a snapshot's client rows and prefix
/// lists as delta varints. Version 3 keeps those rows and codes each
/// prefix as one varint in units of its own length, `d · 33 + len`, `d`
/// counting prefixes of its size from the first place at or after the
/// previous prefix's address that one can start: 1.92 bytes a prefix
/// against version 2's 3.67 on the benchmark's 110 000-prefix table.
/// Journals are laid out alike in all three.
pub const FORMAT_VERSION: u16 = 3;

/// The oldest format version this build still reads. A version-1
/// snapshot (fixed-width rows and prefixes) or a version-2 one (a gap
/// varint and a length byte a prefix) recovers and is rewritten in the
/// current form by the next checkpoint.
pub const OLDEST_READ_VERSION: u16 = 1;

/// File kind tag: a full-snapshot file (one [`REC_STATE`] frame).
pub const FILE_SNAPSHOT: u8 = 1;

/// File kind tag: an append-only write-ahead journal of [`REC_BATCH`]
/// frames.
pub const FILE_JOURNAL: u8 = 2;

/// Record kind: a serialized `StreamState` snapshot.
pub const REC_STATE: u8 = 1;

/// Record kind: one journaled feed batch (feed index, flags, deltas).
pub const REC_BATCH: u8 = 2;

/// Bytes in the file header: magic, version `u16` LE, file kind, flags,
/// CRC32 of the first 8 bytes.
pub const HEADER_BYTES: usize = 12;

/// Frame overhead around the payload: length `u32` LE, record kind `u8`,
/// trailing CRC32 of kind-plus-payload.
pub const FRAME_OVERHEAD: usize = 9;

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    #[allow(clippy::indexing_slicing, reason = "i ranges over 0..256 == table.len().")]
    while i < 256 {
        #[allow(clippy::cast_possible_truncation, reason = "i < 256 fits u32 losslessly.")]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `bytes` — detects all single-bit errors by
/// construction.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_extend(u32::MAX, bytes)
}

/// The running (not yet inverted) CRC `crc` taken on over `bytes`, so one
/// checksum can cover slices that do not lie end to end.
fn crc32_extend(mut crc: u32, bytes: &[u8]) -> u32 {
    #[allow(clippy::indexing_slicing, reason = "idx is masked to 0..256 == CRC_TABLE.len().")]
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = CRC_TABLE[idx] ^ (crc >> 8);
    }
    crc
}

/// Why a header or frame failed to decode. Offsets are file-absolute so
/// recovery reports point at the corrupt byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before a full file header.
    TruncatedHeader {
        /// Bytes present.
        have: usize,
    },
    /// The magic bytes are not `NCLP`.
    BadMagic,
    /// The format version is newer (or older) than this build reads.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The file kind tag is not a known file type.
    BadFileKind {
        /// Tag found in the header.
        found: u8,
    },
    /// The header checksum does not match its first 8 bytes.
    HeaderChecksum,
    /// A frame extends past the end of the buffer: the torn-tail signature
    /// of a crash mid-append.
    TornFrame {
        /// File offset where the frame starts.
        offset: u64,
        /// Bytes the frame claims to need (including overhead).
        need: u64,
        /// Bytes actually remaining.
        have: u64,
    },
    /// A complete frame whose CRC does not match its contents: bit rot or
    /// an overwritten tail.
    BadChecksum {
        /// File offset where the frame starts.
        offset: u64,
    },
    /// A checksummed frame carrying an unknown record kind.
    BadRecordKind {
        /// File offset where the frame starts.
        offset: u64,
        /// The unrecognized kind tag.
        found: u8,
    },
    /// A checksummed frame whose payload failed structural decode.
    Malformed {
        /// File offset where the frame starts.
        offset: u64,
        /// Which field or structure was malformed.
        what: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TruncatedHeader { have } => {
                write!(f, "file header truncated: {have} of {HEADER_BYTES} bytes")
            }
            FrameError::BadMagic => write!(f, "bad magic (not a netclust persist file)"),
            FrameError::BadVersion { found } => write!(
                f,
                "unsupported format version {found} \
                 (this build reads {OLDEST_READ_VERSION} to {FORMAT_VERSION})"
            ),
            FrameError::BadFileKind { found } => write!(f, "unknown file kind tag {found:#04x}"),
            FrameError::HeaderChecksum => write!(f, "file header checksum mismatch"),
            FrameError::TornFrame { offset, need, have } => write!(
                f,
                "torn frame at offset {offset}: needs {need} bytes, {have} remain"
            ),
            FrameError::BadChecksum { offset } => {
                write!(f, "frame checksum mismatch at offset {offset}")
            }
            FrameError::BadRecordKind { offset, found } => {
                write!(f, "unknown record kind {found:#04x} at offset {offset}")
            }
            FrameError::Malformed { offset, what } => {
                write!(f, "malformed {what} in frame at offset {offset}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes the 12-byte file header for a file of `kind`.
pub fn encode_header(kind: u8) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    let (magic, rest) = h.split_at_mut(4);
    magic.copy_from_slice(&MAGIC);
    let (ver, rest) = rest.split_at_mut(2);
    ver.copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    let (kf, _crc_dst) = rest.split_at_mut(2);
    if let Some(k) = kf.first_mut() {
        *k = kind;
    }
    let crc = crc32(h.get(..8).unwrap_or(&[]));
    if let Some(dst) = h.get_mut(8..12) {
        dst.copy_from_slice(&crc.to_le_bytes());
    }
    h
}

/// What a valid file header says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// [`FILE_SNAPSHOT`] or [`FILE_JOURNAL`].
    pub kind: u8,
    /// The format version the file was written in, between
    /// [`OLDEST_READ_VERSION`] and [`FORMAT_VERSION`].
    pub version: u16,
}

/// Validates a file header and returns its file kind and version.
pub fn decode_header(bytes: &[u8]) -> Result<Header, FrameError> {
    let Some(h) = bytes.get(..HEADER_BYTES) else {
        return Err(FrameError::TruncatedHeader { have: bytes.len() });
    };
    let mut r = Reader::new(h);
    let magic = r.take(4).unwrap_or(&[]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = r.u16_le().unwrap_or(u16::MAX);
    let kind = r.u8().unwrap_or(0);
    let _flags = r.u8();
    let stored = r.u32_le().unwrap_or(0);
    if crc32(h.get(..8).unwrap_or(&[])) != stored {
        return Err(FrameError::HeaderChecksum);
    }
    if !(OLDEST_READ_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(FrameError::BadVersion { found: version });
    }
    if kind != FILE_SNAPSHOT && kind != FILE_JOURNAL {
        return Err(FrameError::BadFileKind { found: kind });
    }
    Ok(Header { kind, version })
}

/// Appends one frame — `[len u32][kind u8][payload][crc u32]` — to `out`.
/// `len` counts payload bytes only; the CRC covers the kind byte and the
/// payload, so neither can flip undetected.
pub fn encode_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.extend_from_slice(&frame_prefix(kind, payload.len()));
    out.extend_from_slice(payload);
    let mut crc = FrameCrc::new(kind);
    crc.update(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
}

/// The five bytes a frame puts before its payload: `[len u32][kind u8]`.
pub fn frame_prefix(kind: u8, payload_len: usize) -> [u8; 5] {
    #[allow(
        clippy::cast_possible_truncation,
        reason = "payloads are single snapshot/batch records, far below u32::MAX; decode_frame re-validates the length against bytes present."
    )]
    let [a, b, c, d] = (payload_len as u32).to_le_bytes();
    [a, b, c, d, kind]
}

/// The checksum a frame puts after its payload, taken over the payload in
/// pieces as they are produced, so a payload written out piece by piece
/// never has to exist whole.
#[derive(Debug, Clone, Copy)]
pub struct FrameCrc(u32);

impl FrameCrc {
    /// The checksum of a `kind` frame before any payload byte.
    pub fn new(kind: u8) -> Self {
        FrameCrc(crc32_extend(u32::MAX, &[kind]))
    }

    /// Takes the checksum on over the next `piece` of the payload.
    pub fn update(&mut self, piece: &[u8]) {
        self.0 = crc32_extend(self.0, piece);
    }

    /// The checksum of everything passed to [`update`](Self::update).
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One decoded frame plus how many file bytes it spanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Record kind tag ([`REC_STATE`] / [`REC_BATCH`]).
    pub kind: u8,
    /// The checksummed payload.
    pub payload: &'a [u8],
    /// Total bytes consumed from the buffer (payload plus overhead).
    pub span: usize,
}

/// Decodes the frame starting at `buf[offset..]`. `offset` is only used
/// for error reporting; the caller advances by [`Frame::span`] on success.
/// Returns `Ok(None)` exactly at a clean end of buffer.
pub fn decode_frame(buf: &[u8], offset: u64) -> Result<Option<Frame<'_>>, FrameError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let torn = |need: u64| FrameError::TornFrame {
        offset,
        need,
        have: buf.len() as u64,
    };
    let Some(len_bytes) = buf.get(..4) else {
        return Err(torn(FRAME_OVERHEAD as u64));
    };
    let mut len = [0u8; 4];
    len.copy_from_slice(len_bytes);
    let len = u32::from_le_bytes(len) as usize;
    // Validate the claimed length against bytes actually present BEFORE
    // touching payload ranges: a bit-flipped length field must read as a
    // torn frame, never an allocation or a panic.
    let need = (len as u64).saturating_add(FRAME_OVERHEAD as u64);
    if need > buf.len() as u64 {
        return Err(torn(need));
    }
    let Some(body) = buf.get(4..5 + len) else {
        return Err(torn(need));
    };
    let Some(crc_bytes) = buf.get(5 + len..5 + len + 4) else {
        return Err(torn(need));
    };
    let mut stored = [0u8; 4];
    stored.copy_from_slice(crc_bytes);
    if crc32(body) != u32::from_le_bytes(stored) {
        return Err(FrameError::BadChecksum { offset });
    }
    let (&kind, payload) = body.split_first().ok_or(FrameError::Malformed {
        offset,
        what: "frame body",
    })?;
    if kind != REC_STATE && kind != REC_BATCH {
        return Err(FrameError::BadRecordKind {
            offset,
            found: kind,
        });
    }
    Ok(Some(Frame {
        kind,
        payload,
        span: len + FRAME_OVERHEAD,
    }))
}

/// Bounds-checked little-endian reader over a payload slice. Every
/// accessor returns `None` past the end instead of panicking, so decoders
/// built on it are total over arbitrary input.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at byte 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// `true` once every byte is consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    /// Next `u16`, little endian.
    pub fn u16_le(&mut self) -> Option<u16> {
        let s = self.take(2)?;
        let mut b = [0u8; 2];
        b.copy_from_slice(s);
        Some(u16::from_le_bytes(b))
    }

    /// Next `u32`, little endian.
    pub fn u32_le(&mut self) -> Option<u32> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Some(u32::from_le_bytes(b))
    }

    /// Next `u64`, little endian.
    pub fn u64_le(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Some(u64::from_le_bytes(b))
    }

    /// Next LEB128 varint: seven bits a byte, low group first, the high
    /// bit set on every byte but the last. Only the minimal spelling is
    /// read — `None` for a last byte of zero after the first (an overlong
    /// form), for a value past 64 bits, and past the end — so each value
    /// has exactly one encoding ([`put_varint`]).
    pub fn varint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            // The tenth byte carries bit 63 alone.
            if shift == 63 && byte > 1 {
                return None;
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return (byte != 0 || shift == 0).then_some(value);
            }
        }
        None
    }
}

/// Most bytes one [`put_varint`] writes.
pub const VARINT_MAX_BYTES: usize = 10;

/// Bytes [`put_varint`] writes for `value`: 1 to [`VARINT_MAX_BYTES`].
#[inline]
pub fn varint_len(value: u64) -> usize {
    let bits = u64::BITS - (value | 1).leading_zeros();
    bits.div_ceil(7) as usize
}

/// Writes `value` as a minimal LEB128 varint at the start of `out` and
/// returns how many bytes that took ([`Reader::varint`] reads it back).
/// The bytes of `out` past those may be written too.
#[inline]
pub fn put_varint(out: &mut [u8; VARINT_MAX_BYTES], mut value: u64) -> usize {
    if value < 1 << 28 {
        // Four bytes or fewer — a snapshot row's counts and gaps — with no
        // branch on the length, which varies row by row: each seven-bit
        // group in a byte of its own, a continuation bit on every byte but
        // the last, stored as one four-byte word.
        let v = value;
        let len =
            1 + usize::from(v >= 1 << 7) + usize::from(v >= 1 << 14) + usize::from(v >= 1 << 21);
        let groups = (v & 0x7F) | (v << 1 & 0x7F00) | (v << 2 & 0x7F_0000) | (v << 3 & 0x7F00_0000);
        let more = 0x0080_8080u64 >> (8 * (4 - len));
        let [a, b, c, d, ..] = (groups | more).to_le_bytes();
        if let Some(word) = out.first_chunk_mut() {
            *word = [a, b, c, d];
        }
        return len;
    }
    let mut n = 0;
    for slot in out.iter_mut() {
        #[allow(clippy::cast_possible_truncation, reason = "masked to the low seven bits.")]
        let group = (value & 0x7F) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            *slot = group;
            break;
        }
        *slot = group | 0x80;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE CRC32 check values ("check" = crc of "123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        let mut buf = data.to_vec();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(crc32(&buf), clean, "flip at {byte}:{bit} undetected");
                buf[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let h = encode_header(FILE_JOURNAL);
        let current = |kind| {
            Ok(Header {
                kind,
                version: FORMAT_VERSION,
            })
        };
        assert_eq!(decode_header(&h), current(FILE_JOURNAL));
        assert_eq!(
            decode_header(&encode_header(FILE_SNAPSHOT)),
            current(FILE_SNAPSHOT)
        );
        // Truncated.
        assert_eq!(
            decode_header(&h[..7]),
            Err(FrameError::TruncatedHeader { have: 7 })
        );
        // Bad magic.
        let mut bad = h;
        bad[0] = b'X';
        assert_eq!(decode_header(&bad), Err(FrameError::BadMagic));
        // Every single-bit flip in the checksummed region is rejected.
        for byte in 0..8 {
            for bit in 0..8 {
                let mut bad = h;
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_header(&bad).is_err(),
                    "flip at {byte}:{bit} accepted"
                );
            }
        }
        // Every version from the oldest read to the current one is read;
        // a future one and version 0 are not.
        let versioned = |version: u16| {
            let mut h = [0u8; HEADER_BYTES];
            h[..4].copy_from_slice(&MAGIC);
            h[4..6].copy_from_slice(&version.to_le_bytes());
            h[6] = FILE_JOURNAL;
            let crc = crc32(&h[..8]);
            h[8..].copy_from_slice(&crc.to_le_bytes());
            decode_header(&h)
        };
        for version in OLDEST_READ_VERSION..=FORMAT_VERSION {
            let kind = FILE_JOURNAL;
            assert_eq!(versioned(version), Ok(Header { kind, version }));
        }
        for found in [0, FORMAT_VERSION + 1, 99] {
            assert_eq!(versioned(found), Err(FrameError::BadVersion { found }));
        }
    }

    #[test]
    fn varints_are_minimal_and_round_trip() {
        let mut cases = vec![0, 1, 127, 128, 300, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        cases.extend((0..64).map(|bit| 1u64 << bit));
        cases.extend((1..64).map(|bit| (1u64 << bit) - 1));
        for value in cases {
            let mut out = [0u8; VARINT_MAX_BYTES];
            let n = put_varint(&mut out, value);
            assert_eq!(n, varint_len(value), "{value}");
            let mut r = Reader::new(&out[..n]);
            assert_eq!(r.varint(), Some(value), "{value}");
            assert!(r.is_empty());
            // Every strict prefix is cut short.
            for cut in 0..n {
                assert_eq!(Reader::new(&out[..cut]).varint(), None, "{value} cut {cut}");
            }
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(u64::from(u32::MAX)), 5);
        assert_eq!(varint_len(u64::MAX), VARINT_MAX_BYTES);
        // Overlong spellings: 0 and 1 padded with a continuation group of
        // zero bits, and the ten-byte form of 0.
        for overlong in [
            &[0x80, 0x00][..],
            &[0x81, 0x00],
            &[0x80; 9],
            &[0xFF, 0x80, 0x00],
        ] {
            let mut padded = overlong.to_vec();
            if padded.len() == 9 {
                padded.push(0x00);
            }
            assert_eq!(Reader::new(&padded).varint(), None, "{padded:x?}");
        }
        // Past 64 bits: a tenth byte above 1, or an eleventh byte.
        let mut past = [0xFFu8; 10];
        past[9] = 0x02;
        assert_eq!(Reader::new(&past).varint(), None);
        let mut eleven = [0x80u8; 11];
        eleven[10] = 0x01;
        assert_eq!(Reader::new(&eleven).varint(), None);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, REC_BATCH, b"hello");
        encode_frame(&mut buf, REC_STATE, b"");
        let f1 = decode_frame(&buf, 0).unwrap().unwrap();
        assert_eq!((f1.kind, f1.payload), (REC_BATCH, &b"hello"[..]));
        let f2 = decode_frame(&buf[f1.span..], f1.span as u64)
            .unwrap()
            .unwrap();
        assert_eq!((f2.kind, f2.payload.len()), (REC_STATE, 0));
        assert_eq!(f1.span + f2.span, buf.len());
        assert_eq!(decode_frame(&buf[buf.len()..], buf.len() as u64), Ok(None));
    }

    #[test]
    fn frame_rejects_torn_and_corrupt_input() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, REC_BATCH, b"payload-bytes");
        // Every truncation point is a typed error, never a panic.
        for cut in 1..buf.len() {
            match decode_frame(&buf[..cut], 0) {
                Err(FrameError::TornFrame { .. }) | Err(FrameError::BadChecksum { .. }) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
        // Every single-bit flip is rejected.
        let mut bad = buf.clone();
        for byte in 0..bad.len() {
            for bit in 0..8 {
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad, 0).is_err(),
                    "flip at {byte}:{bit} accepted"
                );
                bad[byte] ^= 1 << bit;
            }
        }
        // A length field inflated to absurdity reads as torn, without
        // allocating.
        let mut huge = buf;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&huge, 0),
            Err(FrameError::TornFrame { .. })
        ));
    }

    #[test]
    fn unknown_record_kind_is_rejected_after_checksum() {
        // Build a frame with kind 7 and a VALID checksum: the kind gate,
        // not the checksum, must reject it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        let body = [7u8, b'a', b'b', b'c'];
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        assert_eq!(
            decode_frame(&buf, 40),
            Err(FrameError::BadRecordKind {
                offset: 40,
                found: 7
            })
        );
    }
}
