//! Low-level byte helpers for the segment format: CRC-32, little-endian
//! primitives, a bounds-checked cursor, and the per-chunk column encodings.
//!
//! Everything here is deterministic: the same scramble always serializes to
//! the same bytes, so segment files can be compared and cached by content.

use std::ops::Range;
use std::path::Path;

use crate::column::{Column, ColumnData};
use crate::table::{StoreError, StoreResult};

/// Magic bytes opening the file and closing the footer.
pub const MAGIC: [u8; 8] = *b"FFSEGM01";

/// Current format version.
pub const VERSION: u32 = 1;

/// Size of the fixed header in bytes.
pub const HEADER_LEN: u64 = 16;

/// Size of the fixed footer in bytes.
pub const FOOTER_LEN: u64 = 32;

/// Chunk encoding tag: raw little-endian `f64` bits.
pub const ENC_FLOAT_RAW: u8 = 0;

/// Chunk encoding tag: frame-of-reference + bit-packed `i64`.
pub const ENC_INT_FOR: u8 = 1;

/// Chunk encoding tag: frame-of-reference + bit-packed `u32` dictionary
/// codes.
pub const ENC_CODES_FOR: u8 = 2;

/// Column type tag: `Float64`.
pub const TYPE_FLOAT: u8 = 0;
/// Column type tag: `Int64`.
pub const TYPE_INT: u8 = 1;
/// Column type tag: `Categorical`.
pub const TYPE_CAT: u8 = 2;

/// Sentinel for "no cardinality recorded" in serialized column stats.
pub const NO_CARDINALITY: u64 = u64::MAX;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table, and `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero
/// bytes, so eight table lookups advance the CRC by eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) of `bytes`, eight
/// bytes per step (slicing-by-8) with a bytewise tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bits, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (`u32` length + bytes).
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked forward reader over a metadata byte slice. Every
/// truncation or overrun is reported as [`StoreError::Corrupt`] carrying the
/// file path.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, attributing errors to `path`.
    pub fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Self { buf, pos: 0, path }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::corrupt(
                self.path,
                format!(
                    "metadata truncated: wanted {n} bytes at offset {}, {} left",
                    self.pos,
                    self.remaining()
                ),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its raw little-endian bits.
    pub fn f64(&mut self) -> StoreResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> StoreResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(self.path, "invalid UTF-8 in string"))
    }
}

/// Packs `width`-bit values LSB-first into a little-endian byte stream.
/// `width == 0` writes nothing (all deltas are zero).
pub fn pack_bits(values: impl Iterator<Item = u64>, width: u8, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    debug_assert!(width <= 64);
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    for v in values {
        debug_assert!(width == 64 || v < (1u64 << width));
        acc |= (v as u128) << nbits;
        nbits += width as u32;
        while nbits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Unpacks `count` `width`-bit values from a stream produced by
/// [`pack_bits`], handing each to `emit` in order. Returns `None` (having
/// emitted nothing) if `bytes` is too short.
///
/// Up to 56 bits wide, each value is one shifted 8-byte little-endian load
/// at its first byte (7 bits of shift plus 56 of width fit). Values whose
/// load would run past the end of the stream read a zero-padded copy of
/// its last 8 bytes instead. Wider values are streamed a byte at a time.
pub fn unpack_bits(bytes: &[u8], width: u8, count: usize, mut emit: impl FnMut(u64)) -> Option<()> {
    let width = usize::from(width);
    if bytes.len() < (count * width).div_ceil(8) {
        return None;
    }
    if width == 0 {
        (0..count).for_each(|_| emit(0));
        return Some(());
    }
    if width > 56 {
        let mut acc: u128 = 0;
        let mut nbits = 0;
        let mut next = 0;
        for _ in 0..count {
            while nbits < width {
                acc |= u128::from(bytes[next]) << nbits;
                next += 1;
                nbits += 8;
            }
            emit(acc as u64 & (u64::MAX >> (64 - width)));
            acc >>= width;
            nbits -= width;
        }
        return Some(());
    }
    let mask = (1u64 << width) - 1;
    let load =
        |src: &[u8], at: usize| u64::from_le_bytes(src[at..at + 8].try_into().expect("8 bytes"));
    // Value `i` loads in place while its first byte, `i * width / 8`, is at
    // most `len - 8`.
    let direct = match bytes.len().checked_sub(8) {
        Some(last) => ((last * 8 + 7) / width + 1).min(count),
        None => 0,
    };
    for i in 0..direct {
        let bit = i * width;
        emit((load(bytes, bit / 8) >> (bit % 8)) & mask);
    }
    let tail_start = bytes.len().saturating_sub(8);
    let mut tail = [0u8; 16];
    tail[..bytes.len() - tail_start].copy_from_slice(&bytes[tail_start..]);
    for i in direct..count {
        let bit = i * width;
        emit((load(&tail, bit / 8 - tail_start) >> (bit % 8)) & mask);
    }
    Some(())
}

/// Minimal bit width able to represent `max_delta`.
fn width_for(max_delta: u64) -> u8 {
    (64 - max_delta.leading_zeros()) as u8
}

/// Encodes rows `rows` of `column` into `out`, returning the encoding tag.
pub fn encode_chunk(column: &Column, rows: Range<usize>, out: &mut Vec<u8>) -> u8 {
    match column.data() {
        ColumnData::Float64(values) => {
            for &v in &values[rows] {
                put_f64(out, v);
            }
            ENC_FLOAT_RAW
        }
        ColumnData::Int64(values) => {
            let slice = &values[rows];
            let min = slice.iter().copied().min().unwrap_or(0);
            let max_delta = slice
                .iter()
                .map(|&v| v.wrapping_sub(min) as u64)
                .max()
                .unwrap_or(0);
            let width = width_for(max_delta);
            out.extend_from_slice(&min.to_le_bytes());
            out.push(width);
            pack_bits(
                slice.iter().map(|&v| v.wrapping_sub(min) as u64),
                width,
                out,
            );
            ENC_INT_FOR
        }
        ColumnData::Categorical { codes, .. } => {
            let slice = &codes[rows];
            let min = slice.iter().copied().min().unwrap_or(0);
            let max_delta = slice.iter().map(|&v| (v - min) as u64).max().unwrap_or(0);
            let width = width_for(max_delta);
            out.extend_from_slice(&min.to_le_bytes());
            out.push(width);
            pack_bits(slice.iter().map(|&v| (v - min) as u64), width, out);
            ENC_CODES_FOR
        }
    }
}

/// Decodes one chunk of `rows` rows into `out`, replacing its contents.
///
/// `out` is the destination column's storage and fixes the expected type:
/// the chunk's encoding must match it, and categorical codes are checked
/// against its dictionary (which the segment stores once in its metadata,
/// not per chunk). Its buffer is reused, so decoding a run of blocks into
/// one `ColumnData` allocates only while the buffer grows.
pub fn decode_chunk(
    encoding: u8,
    bytes: &[u8],
    rows: usize,
    name: &str,
    out: &mut ColumnData,
    path: &Path,
) -> StoreResult<()> {
    let corrupt = |detail: String| StoreError::corrupt(path, detail);
    match (encoding, out) {
        (ENC_FLOAT_RAW, ColumnData::Float64(values)) => {
            if bytes.len() != rows * 8 {
                return Err(corrupt(format!(
                    "float chunk for `{name}`: {} bytes, expected {}",
                    bytes.len(),
                    rows * 8
                )));
            }
            values.clear();
            values.extend(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")))),
            );
            Ok(())
        }
        (ENC_INT_FOR, ColumnData::Int64(values)) => {
            if bytes.len() < 9 {
                return Err(corrupt(format!("int chunk for `{name}` truncated")));
            }
            let min = i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            let width = bytes[8];
            if width > 64 {
                return Err(corrupt(format!(
                    "int chunk for `{name}`: impossible bit width {width}"
                )));
            }
            values.clear();
            unpack_bits(&bytes[9..], width, rows, |d| {
                values.push(min.wrapping_add(d as i64));
            })
            .ok_or_else(|| corrupt(format!("int chunk for `{name}` truncated")))
        }
        (ENC_CODES_FOR, ColumnData::Categorical { dictionary, codes }) => {
            if bytes.len() < 5 {
                return Err(corrupt(format!("code chunk for `{name}` truncated")));
            }
            let min = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
            let width = bytes[4];
            if width > 32 {
                return Err(corrupt(format!(
                    "code chunk for `{name}`: impossible bit width {width}"
                )));
            }
            // A width of at most 32 keeps every delta below 2^32, so `min +
            // delta` fits a u64; the largest one decides both checks.
            let mut max_code = 0u64;
            codes.clear();
            unpack_bits(&bytes[5..], width, rows, |d| {
                let code = u64::from(min) + d;
                max_code = max_code.max(code);
                codes.push(code as u32);
            })
            .ok_or_else(|| corrupt(format!("code chunk for `{name}` truncated")))?;
            if max_code > u64::from(u32::MAX) {
                return Err(corrupt(format!(
                    "code chunk for `{name}`: code overflows u32"
                )));
            }
            if rows > 0 && max_code >= dictionary.len() as u64 {
                return Err(corrupt(format!(
                    "code chunk for `{name}`: code {max_code} outside dictionary of {}",
                    dictionary.len()
                )));
            }
            Ok(())
        }
        (ENC_FLOAT_RAW | ENC_INT_FOR | ENC_CODES_FOR, _) => Err(corrupt(format!(
            "chunk encoding tag {encoding} does not match the type of column `{name}`"
        ))),
        (other, _) => Err(corrupt(format!("unknown chunk encoding tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    /// The bytewise table-driven CRC the sliced one must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Collects [`super::unpack_bits`]'s values.
    fn unpack_bits(bytes: &[u8], width: u8, count: usize) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        super::unpack_bits(bytes, width, count, |v| out.push(v))?;
        Some(out)
    }

    /// Decodes into a fresh column of the encoding's type, as a reader's
    /// reused buffer would be filled.
    fn decode_chunk(
        encoding: u8,
        bytes: &[u8],
        rows: usize,
        name: &str,
        dictionary: Option<&Arc<Vec<String>>>,
        path: &Path,
    ) -> StoreResult<Column> {
        let mut column = match (encoding, dictionary) {
            (ENC_INT_FOR, _) => Column::int(name, Vec::new()),
            (ENC_CODES_FOR, Some(d)) => {
                Column::categorical_from_codes(name, Arc::clone(d), Vec::new())
            }
            (ENC_CODES_FOR, None) => {
                return Err(StoreError::corrupt(path, "code chunk without a dictionary"))
            }
            _ => Column::float(name, Vec::new()),
        };
        super::decode_chunk(encoding, bytes, rows, name, column.data_mut(), path)?;
        Ok(column)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bit_packing_round_trips() {
        for width in [0u8, 1, 3, 7, 8, 13, 31, 33, 64] {
            let values: Vec<u64> = (0..100u64)
                .map(|i| {
                    if width == 64 {
                        i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    } else if width == 0 {
                        0
                    } else {
                        (i * 2_654_435_761) % (1u64 << width)
                    }
                })
                .collect();
            let mut packed = Vec::new();
            pack_bits(values.iter().copied(), width, &mut packed);
            let unpacked = unpack_bits(&packed, width, values.len()).unwrap();
            assert_eq!(values, unpacked, "width {width}");
        }
        // Truncated input is detected.
        assert!(unpack_bits(&[0u8; 3], 8, 4).is_none());
    }

    #[test]
    fn chunk_encodings_round_trip() {
        let path = PathBuf::from("<test>");
        let f = Column::float("x", vec![1.5, f64::NAN, -0.0, 1e300]);
        let mut buf = Vec::new();
        let enc = encode_chunk(&f, 0..4, &mut buf);
        let back = decode_chunk(enc, &buf, 4, "x", None, &path).unwrap();
        // NaN and -0.0 must survive bitwise.
        for i in 0..4 {
            assert_eq!(
                f.numeric_value(i).unwrap().to_bits(),
                back.numeric_value(i).unwrap().to_bits()
            );
        }

        let ints = Column::int("t", vec![i64::MIN, -5, 0, 1_000, i64::MAX]);
        buf.clear();
        let enc = encode_chunk(&ints, 0..5, &mut buf);
        let back = decode_chunk(enc, &buf, 5, "t", None, &path).unwrap();
        for i in 0..5 {
            assert_eq!(ints.value(i), back.value(i));
        }

        let cat = Column::categorical("g", &["b", "a", "b", "c"]);
        buf.clear();
        let enc = encode_chunk(&cat, 1..4, &mut buf);
        let dict = cat.dictionary().unwrap();
        let back = decode_chunk(enc, &buf, 3, "g", Some(dict), &path).unwrap();
        assert_eq!(back.value(0), cat.value(1));
        assert_eq!(back.value(2), cat.value(3));
    }

    #[test]
    fn decode_rejects_malformed_chunks() {
        let path = PathBuf::from("<test>");
        assert!(decode_chunk(ENC_FLOAT_RAW, &[0u8; 7], 1, "x", None, &path).is_err());
        assert!(decode_chunk(ENC_INT_FOR, &[0u8; 4], 1, "x", None, &path).is_err());
        assert!(decode_chunk(99, &[], 0, "x", None, &path).is_err());
        // Out-of-dictionary code.
        let dict = Arc::new(vec!["a".to_string()]);
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_le_bytes()); // min code 5, dict of 1
        buf.push(0); // width 0
        assert!(decode_chunk(ENC_CODES_FOR, &buf, 2, "g", Some(&dict), &path).is_err());
    }

    #[test]
    fn cursor_reads_and_bounds_checks() {
        let path = PathBuf::from("<test>");
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, 1 << 40);
        put_f64(&mut buf, -2.5);
        put_string(&mut buf, "origin");
        let mut c = Cursor::new(&buf, &path);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), 1 << 40);
        assert_eq!(c.f64().unwrap(), -2.5);
        assert_eq!(c.string().unwrap(), "origin");
        assert_eq!(c.remaining(), 0);
        assert!(matches!(c.u8(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..1031 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // Every length, at every alignment of the 8-byte steps.
        for offset in 0..8 {
            for len in 0..=1031 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn bit_packing_round_trips_every_bit_of_wide_values() {
        // Top bits of a multiplicative hash, so every bit position of the
        // width is exercised, around the 56-bit switch between word loads
        // and byte streaming.
        for width in [1u8, 4, 11, 31, 32, 33, 55, 56, 57, 63, 64] {
            for count in [0usize, 1, 7, 25, 100] {
                let values: Vec<u64> = (0..count as u64)
                    .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - width))
                    .collect();
                let mut packed = Vec::new();
                pack_bits(values.iter().copied(), width, &mut packed);
                let unpacked = unpack_bits(&packed, width, count).unwrap();
                assert_eq!(values, unpacked, "width {width}, count {count}");
            }
        }
    }

    #[test]
    fn decode_rejects_mismatched_types_and_overflowing_codes() {
        let path = PathBuf::from("<test>");
        // An encoding that does not match the destination column's type.
        let mut ints = ColumnData::Int64(Vec::new());
        assert!(super::decode_chunk(ENC_FLOAT_RAW, &[0u8; 8], 1, "x", &mut ints, &path).is_err());
        // A code past u32::MAX.
        let mut codes = ColumnData::Categorical {
            dictionary: Arc::new(vec!["a".to_string()]),
            codes: Vec::new(),
        };
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[1, 0b10]); // width 1, deltas 0 then 1
        assert!(super::decode_chunk(ENC_CODES_FOR, &buf, 2, "g", &mut codes, &path).is_err());
    }
}
