//! Low-level byte helpers for the segment format: CRC-32, little-endian
//! primitives, a bounds-checked cursor, and the page encodings of the data
//! section.
//!
//! The data section is cut into **row groups** of [`GROUP_BLOCKS`] blocks.
//! A row group holds one contiguous **chunk** per column, and a chunk is
//! cut into **pages** of [`PAGE_BLOCKS`] blocks. A page has one
//! frame of reference ([`Frame`]: a `min` and a bit `width`) and one
//! byte-aligned **piece** per block: the block's values minus `min`, packed
//! in `width` bits each ([`encode_piece`]). A float page is its blocks'
//! raw `f64`s back to back, which is the frame `(0, 64)`. A run of
//! consecutive blocks of one page decodes with one width-dispatched call
//! ([`decode_page`]), eight values per word load up to 8-bit widths.
//!
//! Everything here is deterministic: the same scramble always serializes to
//! the same bytes, so segment files can be compared and cached by content.

use std::ops::Range;
use std::path::Path;

use crate::column::{Column, ColumnData, DataType};
use crate::table::{StoreError, StoreResult};

/// Magic bytes opening the file and closing the footer.
pub const MAGIC: [u8; 8] = *b"FFSEGM01";

/// Current format version.
pub const VERSION: u32 = 2;

/// Size of the fixed header in bytes.
pub const HEADER_LEN: u64 = 16;

/// Size of the fixed footer in bytes.
pub const FOOTER_LEN: u64 = 32;

/// Blocks per page: the unit of a frame of reference and of one decode
/// call. 64 blocks, one word of a block bitmap, and one run of the paper's
/// 25-row blocks.
pub const PAGE_BLOCKS: usize = 64;

/// Blocks per row group: one planner batch. A multiple of [`PAGE_BLOCKS`],
/// so no page straddles two row groups.
pub const GROUP_BLOCKS: usize = 1_024;

/// Size in bytes of one page directory entry in the metadata section:
/// `u64 offset`, `u64 min`, `u8 width`.
pub const PAGE_ENTRY_LEN: usize = 17;

/// Sentinel column index for "no non-finite value" in the metadata's
/// non-finite record.
pub const NO_NON_FINITE: u32 = u32::MAX;

/// Bytes a decoder may load past the end of a page's last piece: values
/// are read with 8- and 16-byte word loads and the bits beyond a value
/// masked away. A caller handing [`decode_page`] this much slack after
/// the pieces keeps every load in place; without it the last pieces are
/// decoded from a zero-padded copy.
pub const DECODE_SLACK: usize = 16;

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
    crc_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The CRC-32s of four byte strings at once, each equal to [`crc32`] of its
/// lane. Over their common length the four table-lookup chains advance in
/// lockstep, eight bytes per step: the chains are independent, so their
/// lookups overlap instead of each waiting on its own previous step. Each
/// lane's tail beyond the shortest is finished alone.
fn crc32x4(lanes: [&[u8]; 4]) -> [u32; 4] {
    let common = lanes.iter().map(|lane| lane.len()).min().unwrap_or(0) / 8 * 8;
    let mut reg = [0xFFFF_FFFFu32; 4];
    let [l0, l1, l2, l3] = lanes.map(|lane| lane[..common].chunks_exact(8));
    for (((w0, w1), w2), w3) in l0.zip(l1).zip(l2).zip(l3) {
        reg[0] = crc_step8(reg[0], w0);
        reg[1] = crc_step8(reg[1], w1);
        reg[2] = crc_step8(reg[2], w2);
        reg[3] = crc_step8(reg[3], w3);
    }
    std::array::from_fn(|lane| crc_update(reg[lane], &lanes[lane][common..]) ^ 0xFFFF_FFFF)
}

/// Checks chunks against their stored CRC-32s, four at a time (four
/// lookup chains advancing in lockstep) and the remainder one by one with
/// [`crc32`]: the `(bytes, stored crc)` pairs a segment read verifies
/// before it decodes anything.
///
/// # Errors
///
/// The position in `chunks` and the computed CRC of the first chunk whose
/// CRC differs from the stored one.
pub fn check_crcs<'a>(
    chunks: impl IntoIterator<Item = (&'a [u8], u32)>,
) -> Result<(), (usize, u32)> {
    let mut batch: [(&[u8], u32); 4] = [(&[], 0); 4];
    let mut filled = 0;
    let mut start = 0;
    let check = |start: usize, batch: &[(&[u8], u32)], computed: &[u32]| {
        batch
            .iter()
            .zip(computed)
            .position(|(&(_, stored), &computed)| computed != stored)
            .map_or(Ok(()), |lane| Err((start + lane, computed[lane])))
    };
    for chunk in chunks {
        batch[filled] = chunk;
        filled += 1;
        if filled == 4 {
            check(start, &batch, &crc32x4(batch.map(|(bytes, _)| bytes)))?;
            start += 4;
            filled = 0;
        }
    }
    let rest = &batch[..filled];
    let computed: [u32; 4] = std::array::from_fn(|i| rest.get(i).map_or(0, |c| crc32(c.0)));
    check(start, rest, &computed[..filled])
}

/// Advances a CRC register over `bytes`: eight bytes per step, then at
/// most one four-byte step (slicing-by-4 over the first four tables) and a
/// bytewise tail of at most three, so a short piece's tail is not a long
/// serial chain. The register is not pre- or post-inverted here.
#[inline]
fn crc_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        c = crc_step8(c, word);
    }
    let mut rest = words.remainder();
    if let Some((word, tail)) = rest.split_first_chunk::<4>() {
        let t = &CRC_TABLES;
        let x = c ^ u32::from_le_bytes(*word);
        c = t[3][(x & 0xFF) as usize]
            ^ t[2][((x >> 8) & 0xFF) as usize]
            ^ t[1][((x >> 16) & 0xFF) as usize]
            ^ t[0][(x >> 24) as usize];
        rest = tail;
    }
    for &b in rest {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// One slicing-by-8 step: the register advanced over the 8 bytes of `word`.
#[inline(always)]
fn crc_step8(c: u32, word: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = c ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
    let hi = u32::from_le_bytes(word[4..8].try_into().expect("4 bytes"));
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
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

/// A page's frame of reference: every value of the page is stored as its
/// distance from `min` in `width` bits. `min` is a dictionary code for a
/// categorical page and an `i64`'s two's-complement bits for an integer
/// page; a float page has the frame [`Frame::FLOAT`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Frame {
    /// The value every stored delta is added to.
    pub min: u64,
    /// Bits per stored value.
    pub width: u8,
}

impl Frame {
    /// The frame of a float page: raw `f64` bits, 64 to a value.
    pub const FLOAT: Frame = Frame { min: 0, width: 64 };
}

/// Bytes of a piece of `rows` values `width` bits wide: pieces are
/// byte-aligned, so each block's piece starts on a byte.
pub fn piece_len(rows: usize, width: u8) -> usize {
    (rows * usize::from(width)).div_ceil(8)
}

/// Bytes of the consecutive pieces holding `rows` values of a page, every
/// piece but the last holding `block_rows` of them.
fn pieces_len(rows: usize, block_rows: usize, width: u8) -> usize {
    rows / block_rows * piece_len(block_rows, width) + piece_len(rows % block_rows, width)
}

/// Minimal bit width able to represent `max_delta`.
fn width_for(max_delta: u64) -> u8 {
    (64 - max_delta.leading_zeros()) as u8
}

/// The frame of reference of the page holding rows `rows` of `column`:
/// its smallest value and the width of its largest distance from it.
pub fn frame_of(column: &Column, rows: Range<usize>) -> Frame {
    match column.data() {
        ColumnData::Float64(_) => Frame::FLOAT,
        ColumnData::Int64(values) => {
            let slice = &values[rows];
            let min = slice.iter().copied().min().unwrap_or(0);
            let max_delta = slice
                .iter()
                .map(|&v| v.wrapping_sub(min) as u64)
                .max()
                .unwrap_or(0);
            Frame {
                min: min as u64,
                width: width_for(max_delta),
            }
        }
        ColumnData::Categorical { codes, .. } => {
            let slice = &codes[rows];
            let min = slice.iter().copied().min().unwrap_or(0);
            let max_delta = slice.iter().map(|&v| v - min).max().unwrap_or(0);
            Frame {
                min: u64::from(min),
                width: width_for(u64::from(max_delta)),
            }
        }
    }
}

/// Encodes rows `rows` of `column` as one piece of a page with frame
/// `frame` (from [`frame_of`] over the whole page), appending it to `out`.
pub fn encode_piece(column: &Column, rows: Range<usize>, frame: Frame, out: &mut Vec<u8>) {
    match column.data() {
        ColumnData::Float64(values) => {
            for &v in &values[rows] {
                put_f64(out, v);
            }
        }
        ColumnData::Int64(values) => {
            let min = frame.min as i64;
            let deltas = values[rows].iter().map(|&v| v.wrapping_sub(min) as u64);
            pack_bits(deltas, frame.width, out);
        }
        ColumnData::Categorical { codes, .. } => {
            let min = frame.min as u32;
            let deltas = codes[rows].iter().map(|&v| u64::from(v - min));
            pack_bits(deltas, frame.width, out);
        }
    }
}

/// Checks that `frame` can be the frame of a page of a `data_type` column:
/// a float page's frame is [`Frame::FLOAT`], an integer page's width is at
/// most 64, and a categorical page's width at most 32 with a `u32` minimum.
///
/// # Errors
///
/// [`StoreError::Corrupt`] naming the column `name` and what is wrong.
pub fn check_frame(frame: Frame, data_type: DataType, name: &str, path: &Path) -> StoreResult<()> {
    let Frame { min, width } = frame;
    let problem = match data_type {
        DataType::Float64 if frame != Frame::FLOAT => {
            format!("float page of `{name}`: frame ({min}, {width}) is not raw f64 bits")
        }
        DataType::Int64 if width > 64 => {
            format!("int page of `{name}`: impossible bit width {width}")
        }
        DataType::Categorical if width > 32 => {
            format!("code page of `{name}`: impossible bit width {width}")
        }
        DataType::Categorical if min > u64::from(u32::MAX) => {
            format!("code page of `{name}`: minimum code {min} overflows u32")
        }
        _ => return Ok(()),
    };
    Err(StoreError::corrupt(path, problem))
}

/// Decodes `rows` values of consecutive pieces of one page, appending them
/// to `out`: the pieces of consecutive blocks, starting at the start of
/// `bytes`, every piece but the last holding `block_rows` values (the last
/// may be a ragged final block). `bytes` may run past the last piece; with
/// [`DECODE_SLACK`] bytes after it, every value is one word load in place.
///
/// `out` is the destination column's storage and fixes the expected type:
/// `frame` must be a frame of it ([`check_frame`]), and categorical codes
/// are checked against its dictionary (which the segment stores once in
/// its metadata). Appending lets a run spanning pages decode into one
/// column buffer, page after page; the buffer is reused, so a scan
/// allocates only while it grows.
///
/// # Errors
///
/// [`StoreError::Corrupt`] for a frame that is not one of `out`'s type,
/// pieces shorter than their rows, or a code outside the dictionary.
pub fn decode_page(
    frame: Frame,
    bytes: &[u8],
    block_rows: usize,
    rows: usize,
    name: &str,
    out: &mut ColumnData,
    path: &Path,
) -> StoreResult<()> {
    let data_type = match out {
        ColumnData::Float64(_) => DataType::Float64,
        ColumnData::Int64(_) => DataType::Int64,
        ColumnData::Categorical { .. } => DataType::Categorical,
    };
    check_frame(frame, data_type, name, path)?;
    let needed = pieces_len(rows, block_rows.max(1), frame.width);
    if bytes.len() < needed {
        return Err(StoreError::corrupt(
            path,
            format!(
                "page of `{name}` truncated: {} bytes hold fewer than {rows} values of {} bits",
                bytes.len(),
                frame.width
            ),
        ));
    }
    match out {
        ColumnData::Float64(values) => values.extend(
            bytes[..needed]
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")))),
        ),
        ColumnData::Int64(values) => {
            let start = values.len();
            values.resize(start + rows, 0);
            let min = frame.min as i64;
            unpack_width(frame.width, bytes, block_rows, &mut values[start..], |d| {
                min.wrapping_add(d as i64)
            });
        }
        ColumnData::Categorical { dictionary, codes } => {
            let start = codes.len();
            codes.resize(start + rows, 0);
            let min = frame.min as u32;
            let decoded = &mut codes[start..];
            unpack_width(frame.width, bytes, block_rows, decoded, |d| {
                min.wrapping_add(d as u32)
            });
            // A delta of `width <= 32` bits may still carry a code past the
            // dictionary; the frame alone rules that out when its largest
            // delta cannot. Each code less `min` is its delta (it fits a
            // u32), so the largest delta decides, and the largest code is
            // computed without wrapping.
            let largest = frame.min + ((1u64 << frame.width) - 1);
            if rows > 0 && largest >= dictionary.len() as u64 {
                let max_delta = decoded.iter().fold(0, |m, &c| m.max(c.wrapping_sub(min)));
                let code = frame.min + u64::from(max_delta);
                if code >= dictionary.len() as u64 {
                    return Err(StoreError::corrupt(
                        path,
                        format!(
                            "code page of `{name}`: code {code} outside dictionary of {}",
                            dictionary.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// [`unpack`] with the width `width` as a compile-time constant: one match
/// per call, so a page's pieces run one monomorphized loop.
fn unpack_width<T>(
    width: u8,
    bytes: &[u8],
    block_rows: usize,
    out: &mut [T],
    map: impl Fn(u64) -> T,
) {
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                $($w => unpack::<$w, T>(bytes, block_rows, out, &map),)*
                _ => unreachable!("bit width {width} past 64 is refused by check_frame"),
            }
        };
    }
    dispatch!(
        0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62
        63 64
    )
}

/// Unpacks `out.len()` values of `W` bits from consecutive byte-aligned
/// pieces of `block_rows` values each (the last may be shorter), mapping
/// each stored delta through `map`. `bytes` holds at least the pieces;
/// a piece followed by fewer than [`DECODE_SLACK`] bytes is decoded from
/// a zero-padded copy.
fn unpack<const W: usize, T>(
    bytes: &[u8],
    block_rows: usize,
    out: &mut [T],
    map: &impl Fn(u64) -> T,
) {
    let stride = piece_len(block_rows, W as u8);
    for (i, values) in out.chunks_mut(block_rows.max(1)).enumerate() {
        let piece = &bytes[i * stride..];
        let len = piece_len(values.len(), W as u8);
        if piece.len() >= len + DECODE_SLACK {
            unpack_piece::<W, T>(piece, values, map);
        } else {
            let mut padded = piece[..len].to_vec();
            padded.resize(len + DECODE_SLACK, 0);
            unpack_piece::<W, T>(&padded, values, map);
        }
    }
}

/// Unpacks one piece into `out`, eight values at a time: eight `W`-bit
/// values fill `W` bytes, so every group of eight starts on a byte and its
/// values sit at bit offsets fixed at compile time. Up to 8 bits wide the
/// group is one word load. `piece` holds [`DECODE_SLACK`] bytes past the
/// piece's last value.
#[inline(always)]
fn unpack_piece<const W: usize, T>(piece: &[u8], out: &mut [T], map: &impl Fn(u64) -> T) {
    let mask = u64::MAX.checked_shr(64 - W as u32).unwrap_or(0);
    let whole = out.len() / 8 * 8;
    let (groups, tail) = out.split_at_mut(whole);
    for (g, eight) in groups.chunks_exact_mut(8).enumerate() {
        let at = g * W;
        if W <= 8 {
            let word = load_u64(piece, at);
            for (k, value) in eight.iter_mut().enumerate() {
                *value = map((word >> (k * W)) & mask);
            }
        } else {
            for (k, value) in eight.iter_mut().enumerate() {
                *value = map(extract::<W>(piece, at * 8 + k * W, mask));
            }
        }
    }
    for (i, value) in tail.iter_mut().enumerate() {
        *value = map(extract::<W>(piece, (whole + i) * W, mask));
    }
}

/// The `W`-bit value at bit `bit` of `bytes`: one shifted 8-byte load up to
/// 56 bits wide (at most 7 bits of shift plus the width), a 16-byte one
/// beyond.
#[inline(always)]
fn extract<const W: usize>(bytes: &[u8], bit: usize, mask: u64) -> u64 {
    if W <= 56 {
        (load_u64(bytes, bit / 8) >> (bit % 8)) & mask
    } else {
        let word = u128::from_le_bytes(bytes[bit / 8..bit / 8 + 16].try_into().expect("16 bytes"));
        (word >> (bit % 8)) as u64 & mask
    }
}

#[inline(always)]
fn load_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
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

    /// Decodes one piece of `count` values through the width-dispatched
    /// kernel, or `None` if `bytes` is too short for them.
    fn unpack_bits(bytes: &[u8], width: u8, count: usize) -> Option<Vec<u64>> {
        if bytes.len() < piece_len(count, width) {
            return None;
        }
        let mut out = vec![0; count];
        unpack_width(width, bytes, count, &mut out, |v| v);
        Some(out)
    }

    /// Encodes rows `rows` of `column` as one page of `block_rows`-row
    /// pieces, returning its frame and bytes.
    fn encode_page(column: &Column, rows: Range<usize>, block_rows: usize) -> (Frame, Vec<u8>) {
        let frame = frame_of(column, rows.clone());
        let mut bytes = Vec::new();
        for start in rows.clone().step_by(block_rows) {
            encode_piece(
                column,
                start..(start + block_rows).min(rows.end),
                frame,
                &mut bytes,
            );
        }
        (frame, bytes)
    }

    /// Decodes a page into a fresh column of `like`'s type, as a reader's
    /// reused buffer would be filled.
    fn decode(
        like: &Column,
        frame: Frame,
        bytes: &[u8],
        block_rows: usize,
        rows: usize,
    ) -> StoreResult<Column> {
        let mut column = match like.dictionary() {
            Some(d) => Column::categorical_from_codes(like.name(), Arc::clone(d), Vec::new()),
            None if like.data_type() == DataType::Int64 => Column::int(like.name(), Vec::new()),
            None => Column::float(like.name(), Vec::new()),
        };
        let path = PathBuf::from("<test>");
        super::decode_page(
            frame,
            bytes,
            block_rows,
            rows,
            like.name(),
            column.data_mut(),
            &path,
        )?;
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
        let f = Column::float("x", vec![1.5, f64::NAN, -0.0, 1e300, -7.0]);
        let (frame, bytes) = encode_page(&f, 0..5, 2);
        assert_eq!(frame, Frame::FLOAT);
        assert_eq!(bytes.len(), 5 * 8);
        let back = decode(&f, frame, &bytes, 2, 5).unwrap();
        // NaN and -0.0 must survive bitwise.
        for i in 0..5 {
            assert_eq!(
                f.numeric_value(i).unwrap().to_bits(),
                back.numeric_value(i).unwrap().to_bits()
            );
        }

        let ints = Column::int("t", vec![i64::MIN, -5, 0, 1_000, i64::MAX]);
        let (frame, bytes) = encode_page(&ints, 0..5, 2);
        assert_eq!((frame.min as i64, frame.width), (i64::MIN, 64));
        let back = decode(&ints, frame, &bytes, 2, 5).unwrap();
        for i in 0..5 {
            assert_eq!(ints.value(i), back.value(i));
        }

        // Three 3-row pieces of 2-bit deltas from code 0: each piece is one
        // byte, padded, so the second starts on the second byte.
        let cat = Column::categorical("g", &["b", "a", "b", "c", "a", "c", "b", "b", "a", "c"]);
        let (frame, bytes) = encode_page(&cat, 1..10, 3);
        assert_eq!(frame, Frame { min: 0, width: 2 });
        assert_eq!(bytes.len(), 3);
        let back = decode(&cat, frame, &bytes, 3, 9).unwrap();
        for i in 0..9 {
            assert_eq!(back.value(i), cat.value(i + 1));
        }
    }

    #[test]
    fn a_page_decodes_its_pieces_at_every_width_with_and_without_slack() {
        // 25-row blocks and a ragged 7-row last block, at every width: the
        // page decodes in one call to the values of its pieces, whether or
        // not the bytes after the last piece leave room for word loads.
        let rows = 3 * 25 + 7;
        for width in 0..=64u8 {
            let values: Vec<i64> = (0..rows as u64)
                .map(|i| {
                    let delta = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - width.max(1));
                    let delta = if width == 0 { 0 } else { delta };
                    (delta as i64).wrapping_add(-12_345)
                })
                .collect();
            let column = Column::int("t", values.clone());
            let (frame, bytes) = encode_page(&column, 0..rows, 25);
            assert!(frame.width <= width, "width {width}");
            let mut slack = bytes.clone();
            slack.resize(bytes.len() + DECODE_SLACK, 0xAB);
            let ints = |column: Column| match column.data() {
                ColumnData::Int64(values) => values.clone(),
                other => panic!("decoded into {other:?}"),
            };
            for bytes in [&bytes, &slack] {
                let back = ints(decode(&column, frame, bytes, 25, rows).unwrap());
                assert_eq!(back, values, "width {width}, {} bytes", bytes.len());
            }
            // A decode of a later block range starts at that block's piece.
            let skip = piece_len(25, frame.width);
            let tail = ints(decode(&column, frame, &bytes[2 * skip..], 25, 32).unwrap());
            assert_eq!(
                tail[..],
                values[50..],
                "width {width}, from the third block"
            );
        }
    }

    #[test]
    fn decode_rejects_malformed_chunks() {
        let path = PathBuf::from("<test>");
        let corrupt = |result: StoreResult<Column>, expect: &str| match result {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains(expect), "{expect}: {detail}")
            }
            other => panic!("{expect}: expected Corrupt, got {other:?}"),
        };
        let dict = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let cat = Column::categorical_from_codes("g", Arc::clone(&dict), vec![0, 1]);
        let ints = Column::int("t", vec![1, 2]);
        let floats = Column::float("x", vec![1.0]);
        let bytes = [0u8; 64];
        // A code page wider than 32 bits, an int page wider than 64.
        let wide = |width| Frame { min: 0, width };
        corrupt(
            decode(&cat, wide(33), &bytes, 2, 2),
            "impossible bit width 33",
        );
        corrupt(
            decode(&ints, wide(65), &bytes, 2, 2),
            "impossible bit width 65",
        );
        // Pieces shorter than their rows: 25 rows of 7 bits need 22 bytes
        // per piece, and two pieces of 8 rows of floats 128 bytes.
        corrupt(decode(&cat, wide(7), &bytes[..21], 25, 25), "truncated");
        corrupt(decode(&ints, wide(7), &bytes[..43], 25, 50), "truncated");
        corrupt(decode(&floats, Frame::FLOAT, &bytes, 8, 16), "truncated");
        // Out-of-dictionary code: min code 5 in a dictionary of 2.
        let high = Frame { min: 5, width: 0 };
        corrupt(decode(&cat, high, &[], 2, 2), "outside dictionary of 2");
        // Width checks hold at the frame level too, before any decode.
        assert!(check_frame(wide(32), DataType::Categorical, "g", &path).is_ok());
        assert!(check_frame(wide(64), DataType::Int64, "t", &path).is_ok());
        assert!(check_frame(wide(33), DataType::Categorical, "g", &path).is_err());
        assert!(check_frame(wide(65), DataType::Int64, "t", &path).is_err());
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
    fn four_lane_crc32_equals_the_bytewise_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let bytes: Vec<u8> = (0..600)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // Unequal lengths (the shortest lane anywhere, empty lanes, tails of
        // every length) at unequal alignments.
        let lens = [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 200, 201, 208];
        for (i, &a) in lens.iter().enumerate() {
            for (j, &b) in lens.iter().enumerate() {
                let c = lens[(i + 3 * j) % lens.len()];
                let d = lens[(5 * i + j + 1) % lens.len()];
                let lanes = [
                    &bytes[i % 8..i % 8 + a],
                    &bytes[100 + j % 8..100 + j % 8 + b],
                    &bytes[300 + (i + j) % 8..300 + (i + j) % 8 + c],
                    &bytes[380 + 3..380 + 3 + d],
                ];
                assert_eq!(
                    crc32x4(lanes),
                    lanes.map(crc32_bytewise),
                    "lengths {a}, {b}, {c}, {d}"
                );
            }
        }
    }

    #[test]
    fn check_crcs_names_the_first_mismatch_in_any_lane_or_the_remainder() {
        let chunks: Vec<Vec<u8>> = (0..11u8)
            .map(|i| (0..(i as usize * 13) % 40).map(|b| b as u8 ^ i).collect())
            .collect();
        let stored: Vec<u32> = chunks.iter().map(|c| crc32(c)).collect();
        let pairs = |stored: &[u32]| -> Vec<(&[u8], u32)> {
            chunks
                .iter()
                .map(Vec::as_slice)
                .zip(stored.iter().copied())
                .collect()
        };
        assert_eq!(check_crcs(pairs(&stored)), Ok(()));
        assert_eq!(check_crcs(pairs(&stored[..0])), Ok(()));
        // Every position: each lane of both four-chunk batches, and the
        // three-chunk remainder.
        for bad in 0..chunks.len() {
            let mut wrong = stored.clone();
            wrong[bad] ^= 1;
            assert_eq!(check_crcs(pairs(&wrong)), Err((bad, stored[bad])), "{bad}");
            // With a later chunk also wrong, the first one is named.
            if bad + 1 < chunks.len() {
                wrong[bad + 1] ^= 1;
                assert_eq!(check_crcs(pairs(&wrong)), Err((bad, stored[bad])));
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
        // A frame that is not one of the destination column's type: a
        // packed frame for a float column, a code minimum past u32::MAX.
        let mut floats = ColumnData::Float64(Vec::new());
        let packed = Frame { min: 0, width: 8 };
        assert!(super::decode_page(packed, &[0u8; 8], 1, 1, "x", &mut floats, &path).is_err());
        let mut codes = ColumnData::Categorical {
            dictionary: Arc::new(vec!["a".to_string()]),
            codes: Vec::new(),
        };
        let past = Frame {
            min: 1 << 32,
            width: 0,
        };
        assert!(super::decode_page(past, &[], 2, 2, "g", &mut codes, &path).is_err());
        // A code past u32::MAX: min u32::MAX, deltas 0 then 1.
        let top = Frame {
            min: u64::from(u32::MAX),
            width: 1,
        };
        assert!(super::decode_page(top, &[0b10], 2, 2, "g", &mut codes, &path).is_err());
    }
}
