//! Compact binary interchange format for sparse 0/1 matrices.
//!
//! The text format (`io`) is human-friendly; this one is for pipelines
//! that reload the same matrix many times (the experiment harness, CI
//! fixtures). Layout, all little-endian:
//!
//! ```text
//! magic   8 bytes  "DMCMAT01"
//! n_cols  u64
//! n_rows  u64
//! nnz     u64
//! offsets (n_rows + 1) x u64   row start offsets into the id array
//! ids     nnz x u32            concatenated sorted row column ids
//! ```
//!
//! Buffers are assembled with `to_le_bytes` and parsed through a slice
//! cursor that advances past every field it reads, which keeps the offset
//! arithmetic honest.

use crate::{ColumnId, MatrixBuilder, SparseMatrix};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"DMCMAT01";

/// Errors produced while decoding the binary format.
#[derive(Debug)]
pub enum BinaryError {
    Io(io::Error),
    /// The magic header did not match.
    BadMagic,
    /// Structural inconsistency; payload describes it.
    Corrupt(&'static str),
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryError::Io(e) => write!(f, "io error: {e}"),
            BinaryError::BadMagic => write!(f, "not a DMCMAT01 file"),
            BinaryError::Corrupt(what) => write!(f, "corrupt matrix file: {what}"),
        }
    }
}

impl std::error::Error for BinaryError {}

impl From<io::Error> for BinaryError {
    fn from(e: io::Error) -> Self {
        BinaryError::Io(e)
    }
}

/// Splits the next `N` bytes off the front of `data`. Callers check the
/// length first; a short buffer is a bug.
fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let (head, rest) = data.split_at(N);
    *data = rest;
    head.try_into().expect("split_at returned N bytes")
}

fn get_u64_le(data: &mut &[u8]) -> u64 {
    u64::from_le_bytes(take(data))
}

fn get_u32_le(data: &mut &[u8]) -> u32 {
    u32::from_le_bytes(take(data))
}

/// Encodes `matrix` into a byte vector.
#[must_use]
pub fn encode_matrix(matrix: &SparseMatrix) -> Vec<u8> {
    let n_rows = matrix.n_rows();
    let mut buf = Vec::with_capacity(8 + 24 + (n_rows + 1) * 8 + matrix.nnz() * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(matrix.n_cols() as u64).to_le_bytes());
    buf.extend_from_slice(&(n_rows as u64).to_le_bytes());
    buf.extend_from_slice(&(matrix.nnz() as u64).to_le_bytes());
    let mut offset = 0u64;
    buf.extend_from_slice(&0u64.to_le_bytes());
    for r in 0..n_rows {
        offset += matrix.row_len(r) as u64;
        buf.extend_from_slice(&offset.to_le_bytes());
    }
    for row in matrix.rows() {
        for &c in row {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    buf
}

/// Decodes a matrix from a byte slice.
///
/// # Errors
///
/// Returns [`BinaryError`] on truncation, bad magic, or inconsistent
/// structure (non-monotone offsets, unsorted rows, out-of-range ids).
pub fn decode_matrix(mut data: &[u8]) -> Result<SparseMatrix, BinaryError> {
    if data.len() < 8 + 24 {
        return Err(BinaryError::Corrupt("truncated header"));
    }
    let magic: [u8; 8] = take(&mut data);
    if &magic != MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let n_cols = get_u64_le(&mut data) as usize;
    let n_rows = get_u64_le(&mut data) as usize;
    let nnz = get_u64_le(&mut data) as usize;
    let need = n_rows
        .checked_add(1)
        .and_then(|r| r.checked_mul(8))
        .and_then(|o| o.checked_add(nnz.checked_mul(4)?))
        .ok_or(BinaryError::Corrupt("size overflow"))?;
    if data.len() < need {
        return Err(BinaryError::Corrupt("truncated body"));
    }
    let mut offsets = Vec::with_capacity(n_rows + 1);
    for _ in 0..=n_rows {
        offsets.push(get_u64_le(&mut data) as usize);
    }
    if offsets[0] != 0 || offsets[n_rows] != nnz {
        return Err(BinaryError::Corrupt("offset endpoints"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(BinaryError::Corrupt("offsets not monotone"));
    }
    let mut builder = MatrixBuilder::with_capacity(n_cols, n_rows, nnz);
    let mut row: Vec<ColumnId> = Vec::new();
    for r in 0..n_rows {
        let len = offsets[r + 1] - offsets[r];
        row.clear();
        for _ in 0..len {
            let id = get_u32_le(&mut data);
            if id as usize >= n_cols {
                return Err(BinaryError::Corrupt("column id out of range"));
            }
            row.push(id);
        }
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BinaryError::Corrupt("row not strictly increasing"));
        }
        builder.push_sorted_row(&row);
    }
    Ok(builder.finish())
}

/// Writes the binary encoding to `writer`.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_matrix_binary<W: Write>(matrix: &SparseMatrix, mut writer: W) -> io::Result<()> {
    writer.write_all(&encode_matrix(matrix))
}

/// Reads a binary matrix from `reader` (consumes to EOF).
///
/// # Errors
///
/// Returns [`BinaryError`] on IO failure or malformed content.
pub fn read_matrix_binary<R: Read>(mut reader: R) -> Result<SparseMatrix, BinaryError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    decode_matrix(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        SparseMatrix::from_rows(7, vec![vec![0, 3, 6], vec![], vec![2], vec![1, 2, 3, 4, 5]])
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = encode_matrix(&m);
        assert_eq!(&bytes[..8], b"DMCMAT01");
        let back = decode_matrix(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_through_writer_reader() {
        let m = sample();
        let mut buf = Vec::new();
        write_matrix_binary(&m, &mut buf).unwrap();
        let back = read_matrix_binary(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = SparseMatrix::from_rows(0, vec![]);
        assert_eq!(decode_matrix(&encode_matrix(&m)).unwrap(), m);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_matrix(&sample());
        bytes[0] = b'X';
        assert!(matches!(decode_matrix(&bytes), Err(BinaryError::BadMagic)));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode_matrix(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode_matrix(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_id() {
        let m = sample();
        let mut bytes = encode_matrix(&m);
        // Overwrite the last id with one beyond n_cols = 7.
        let last = bytes.len() - 4;
        bytes[last..].copy_from_slice(&100u32.to_le_bytes());
        assert!(matches!(
            decode_matrix(&bytes),
            Err(BinaryError::Corrupt("column id out of range"))
        ));
    }

    #[test]
    fn rejects_unsorted_row() {
        let m = SparseMatrix::from_rows(5, vec![vec![1, 3]]);
        let mut bytes = encode_matrix(&m);
        let len = bytes.len();
        // Swap the two ids.
        bytes.swap(len - 8, len - 4);
        bytes.swap(len - 7, len - 3);
        bytes.swap(len - 6, len - 2);
        bytes.swap(len - 5, len - 1);
        assert!(decode_matrix(&bytes).is_err());
    }

    #[test]
    fn error_display() {
        assert!(BinaryError::BadMagic.to_string().contains("DMCMAT01"));
        assert!(BinaryError::Corrupt("x").to_string().contains('x'));
    }
}
