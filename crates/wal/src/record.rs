//! The on-disk record framing: `[u32 len LE][u32 crc LE][payload]`.
//!
//! The checksum covers the payload only; the length is implicitly
//! validated by the checksum (a flipped length either reads past the
//! buffer — torn — or frames bytes whose checksum cannot match). The
//! framing is deliberately minimal: LSNs are positional (segment start
//! LSN + record index), so records carry no header beyond the eight
//! framing bytes.

/// Bytes of framing before each payload: `u32` length + `u32` CRC.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Upper bound on a single *log* record's payload, so a corrupt length
/// field is classified as a torn tail instead of attempting a huge read.
/// A snapshot file is not held to it: see [`snapshot_state`].
pub(crate) const MAX_RECORD_BYTES: usize = 1 << 26; // 64 MiB

/// The CRC-32 (IEEE 802.3) lookup tables for slice-by-8, built at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// which is what lets eight input bytes be folded in one step.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3) of `bytes` — the polynomial every torn-tail
/// scanner and external inspector of this log format must agree on.
/// Slice-by-8: eight bytes per step through eight tables, the tail a
/// byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// CRC-32 a byte at a time through the classic table: the reference the
/// seeded tests in `proptests.rs` hold [`crc32`] to.
#[cfg(test)]
pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// The eight framing bytes that precede `payload` on disk.
pub(crate) fn header(payload: &[u8]) -> [u8; RECORD_HEADER_BYTES] {
    let mut header = [0; RECORD_HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Appends one framed record to `out`.
pub fn encode_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&header(payload));
    out.extend_from_slice(payload);
}

/// The outcome of decoding the record at the start of `buf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// The buffer is empty: a clean record boundary.
    End,
    /// One checksum-valid record; `consumed` bytes cover it.
    Record {
        /// The record's payload, borrowed from the buffer.
        payload: &'a [u8],
        /// Total bytes of the record including framing.
        consumed: usize,
    },
    /// The buffer ends mid-record, declares an absurd length, or fails
    /// its checksum — a torn tail.
    Torn,
}

/// Decodes the record at the start of `buf`.
pub fn decode_one(buf: &[u8]) -> Decoded<'_> {
    if buf.is_empty() {
        return Decoded::End;
    }
    if buf.len() < RECORD_HEADER_BYTES {
        return Decoded::Torn;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_RECORD_BYTES {
        return Decoded::Torn;
    }
    let end = RECORD_HEADER_BYTES + len;
    if buf.len() < end {
        return Decoded::Torn;
    }
    let payload = &buf[RECORD_HEADER_BYTES..end];
    if crc32(payload) != crc {
        return Decoded::Torn;
    }
    Decoded::Record {
        payload,
        consumed: end,
    }
}

/// The state a snapshot file holds, if `file` is one: exactly one framed
/// record, validated by its own length (`8 + len` is the file's size) and
/// its CRC. [`MAX_RECORD_BYTES`] is not consulted — the whole file is in
/// memory by now, so the cap would protect nothing, and a store's state
/// outgrows it (64 MiB is ~232 k stored observations).
pub(crate) fn snapshot_state(file: &[u8]) -> Option<&[u8]> {
    let (head, state) = file.split_first_chunk::<RECORD_HEADER_BYTES>()?;
    let fits = u32::try_from(state.len()).is_ok();
    (fits && *head == header(state)).then_some(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_snapshot_file_is_one_whole_record_of_any_length() {
        let mut file = Vec::new();
        encode_into(&mut file, b"state");
        assert_eq!(snapshot_state(&file), Some(b"state".as_slice()));
        for cut in 0..file.len() {
            assert_eq!(snapshot_state(&file[..cut]), None, "cut at {cut}");
        }
        for i in 0..file.len() {
            let mut flipped = file.clone();
            flipped[i] ^= 0x40;
            assert_eq!(snapshot_state(&flipped), None, "flip at {i}");
        }
        file.push(0);
        assert_eq!(snapshot_state(&file), None, "bytes after the record");
        let mut empty = Vec::new();
        encode_into(&mut empty, b"");
        assert_eq!(snapshot_state(&empty), Some(b"".as_slice()));
    }

    #[test]
    fn crc_matches_known_vectors() {
        // Standard CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_single_record() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"hello");
        match decode_one(&buf) {
            Decoded::Record { payload, consumed } => {
                assert_eq!(payload, b"hello");
                assert_eq!(consumed, buf.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn roundtrip_batch_of_records() {
        let mut buf = Vec::new();
        let payloads: [&[u8]; 3] = [b"", b"a", b"a longer payload with some bytes"];
        for p in payloads {
            encode_into(&mut buf, p);
        }
        let mut rest = buf.as_slice();
        let mut seen = Vec::new();
        loop {
            match decode_one(rest) {
                Decoded::End => break,
                Decoded::Record { payload, consumed } => {
                    seen.push(payload.to_vec());
                    rest = &rest[consumed..];
                }
                Decoded::Torn => panic!("torn"),
            }
        }
        assert_eq!(seen, payloads.map(<[u8]>::to_vec).to_vec());
    }

    #[test]
    fn every_truncation_point_is_end_or_torn_never_a_record() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"payload one");
        encode_into(&mut buf, b"two");
        for cut in 0..buf.len() {
            match decode_one(&buf[..cut]) {
                Decoded::End => assert_eq!(cut, 0),
                Decoded::Torn => assert!(cut > 0),
                Decoded::Record { consumed, .. } => {
                    // A full first record may survive the cut; it must
                    // be byte-exact.
                    assert!(cut >= consumed);
                }
            }
        }
    }

    #[test]
    fn corrupted_byte_is_torn() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"sensitive");
        for i in 0..buf.len() {
            let mut copy = buf.clone();
            copy[i] ^= 0x40;
            match decode_one(&copy) {
                Decoded::Record { payload, .. } => {
                    panic!("bit flip at {i} went undetected: {payload:?}")
                }
                Decoded::End => panic!("non-empty buffer decoded as End"),
                Decoded::Torn => {}
            }
        }
    }

    #[test]
    fn absurd_length_is_torn_not_alloc() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0; 32]);
        assert_eq!(decode_one(&buf), Decoded::Torn);
    }
}
