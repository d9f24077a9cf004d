//! Train-ready mini-batch assembly (the "format conversion" step, ❸ in
//! Figure 1 of the paper).
//!
//! The output mirrors what TorchRec consumes: a row-major dense matrix, a
//! set of jagged (variable-length) id features — the layout of TorchRec's
//! `KeyedJaggedTensor` — and the label vector.

use std::fmt;

/// Error assembling a mini-batch from mismatched parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Description of the mismatched dimension.
    pub detail: String,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mini-batch shape error: {}", self.detail)
    }
}

impl std::error::Error for ShapeError {}

/// Row-major dense feature matrix (`rows × cols`).
///
/// Columns reach the row-major buffer through one tiled fill, in tiles of
/// 16 columns (one 64-byte line of a row) by a block of rows: the
/// executor's units fill their own emitted columns straight into the
/// matrix they hand to the mini-batch (a host pair's two threads each fill
/// their half), and [`DenseMatrix::from_columns`] fills all of its columns
/// at once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Matrix columns per tile of [`DenseMatrix::fill_tiled`]: one 64-byte
/// cache line of a row.
const TILE_COLS: usize = 16;

/// Rows per tile of [`DenseMatrix::fill_tiled`]: a tile reads 8 KiB of its
/// columns.
const TILE_ROWS: usize = 128;

impl DenseMatrix {
    /// Interleaves column-major normalized features into row-major layout.
    ///
    /// This transpose is the real work of format conversion: the GPU wants
    /// one contiguous per-sample feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when columns disagree in length.
    pub fn from_columns(columns: &[Vec<f32>], rows: usize) -> Result<Self, ShapeError> {
        let mut matrix = DenseMatrix::zeros(rows, columns.len());
        let columns: Vec<(usize, &[f32])> = columns.iter().map(Vec::as_slice).enumerate().collect();
        matrix.fill_tiled(&columns)?;
        Ok(matrix)
    }

    /// A `rows × cols` matrix of zeros, to fill.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Writes `(matrix column, values)` pairs into the row-major buffer one
    /// tile at a time: a block of [`TILE_ROWS`] rows, and within it the
    /// next [`TILE_COLS`] pairs. A tile reads 8 KiB of its columns and
    /// writes 16 values of each of its rows (one 64-byte stretch when the
    /// columns are contiguous), so both sides of the transpose stay in L1
    /// instead of striding the whole matrix once per column. Columns not
    /// named keep their values, so fills over disjoint column sets (a host
    /// pair's halves) build one matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`], before writing anything, when a column does
    /// not hold one value per row.
    ///
    /// # Panics
    ///
    /// Panics when a matrix column is `>= cols()`.
    pub(crate) fn fill_tiled(&mut self, columns: &[(usize, &[f32])]) -> Result<(), ShapeError> {
        let (rows, cols) = (self.rows, self.cols);
        if let Some((c, values)) = columns.iter().find(|(_, values)| values.len() != rows) {
            return Err(ShapeError {
                detail: format!("dense column {c} has {} rows, expected {rows}", values.len()),
            });
        }
        let blocks = self.data.chunks_mut((TILE_ROWS * cols).max(1));
        for (block, first) in blocks.zip((0..).step_by(TILE_ROWS)) {
            for tile in columns.chunks(TILE_COLS) {
                for (row, r) in block.chunks_exact_mut(cols).zip(first..) {
                    for &(c, values) in tile {
                        row[c] = values[r];
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of rows (samples).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of dense features.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One sample's dense feature vector.
    ///
    /// # Panics
    ///
    /// Panics when `row >= rows()`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// One jagged id feature: row `i` spans
/// `values[offsets[i] as usize..offsets[i+1] as usize]`.
#[derive(Debug, Clone, PartialEq)]
pub struct JaggedFeature {
    /// Feature name (embedding-table key).
    pub name: String,
    /// Row offsets, `len == rows + 1`.
    pub offsets: Vec<u32>,
    /// Flattened normalized ids.
    pub values: Vec<i64>,
}

impl JaggedFeature {
    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Ids of one row.
    ///
    /// # Panics
    ///
    /// Panics when `row >= rows()`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[i64] {
        &self.values[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// Internal consistency check.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] describing the violated invariant.
    pub fn validate(&self) -> Result<(), ShapeError> {
        if self.offsets.first() != Some(&0) {
            return Err(ShapeError { detail: format!("{}: offsets must start at 0", self.name) });
        }
        if self.offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(ShapeError { detail: format!("{}: offsets decrease", self.name) });
        }
        let last = *self.offsets.last().expect("checked first") as usize;
        if last != self.values.len() {
            return Err(ShapeError {
                detail: format!(
                    "{}: offsets end at {last} but {} values present",
                    self.name,
                    self.values.len()
                ),
            });
        }
        Ok(())
    }
}

/// A train-ready mini-batch: what the Load step ships to the trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniBatch {
    labels: Vec<i64>,
    dense: DenseMatrix,
    sparse: Vec<JaggedFeature>,
}

impl MiniBatch {
    /// Assembles and validates a mini-batch.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when any component disagrees on the row count
    /// or a jagged feature is internally inconsistent.
    pub fn new(
        labels: Vec<i64>,
        dense: DenseMatrix,
        sparse: Vec<JaggedFeature>,
    ) -> Result<Self, ShapeError> {
        let rows = labels.len();
        if dense.rows() != rows {
            return Err(ShapeError {
                detail: format!("dense matrix has {} rows, labels {rows}", dense.rows()),
            });
        }
        for feat in &sparse {
            if feat.rows() != rows {
                return Err(ShapeError {
                    detail: format!(
                        "feature {} has {} rows, labels {rows}",
                        feat.name,
                        feat.rows()
                    ),
                });
            }
            feat.validate()?;
        }
        Ok(MiniBatch { labels, dense, sparse })
    }

    /// Number of samples.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.labels.len()
    }

    /// The row window `start..start + rows` as a new mini-batch: labels and
    /// dense rows copied contiguously (the dense matrix is row-major),
    /// jagged features with rebased offsets.
    ///
    /// Preprocessing is row-wise, so a row group's mini-batch equals the
    /// matching window of its whole partition's mini-batch — the
    /// group-order normalization the shuffled-epoch determinism tests pin.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the window exceeds the batch.
    pub fn slice_rows(&self, start: usize, rows: usize) -> Result<MiniBatch, ShapeError> {
        let end =
            start.checked_add(rows).filter(|&e| e <= self.rows()).ok_or_else(|| ShapeError {
                detail: format!(
                    "row window {start}+{rows} exceeds mini-batch of {} rows",
                    self.rows()
                ),
            })?;
        let labels = self.labels[start..end].to_vec();
        let dense = DenseMatrix {
            rows,
            cols: self.dense.cols,
            data: self.dense.data[start * self.dense.cols..end * self.dense.cols].to_vec(),
        };
        let sparse = self
            .sparse
            .iter()
            .map(|f| {
                let base = f.offsets[start];
                JaggedFeature {
                    name: f.name.clone(),
                    offsets: f.offsets[start..=end].iter().map(|&o| o - base).collect(),
                    values: f.values[f.offsets[start] as usize..f.offsets[end] as usize].to_vec(),
                }
            })
            .collect();
        MiniBatch::new(labels, dense, sparse)
    }

    /// Click labels.
    #[must_use]
    pub fn labels(&self) -> &[i64] {
        &self.labels
    }

    /// The dense feature matrix.
    #[must_use]
    pub fn dense(&self) -> &DenseMatrix {
        &self.dense
    }

    /// All jagged id features (raw-normalized first, then generated).
    #[must_use]
    pub fn sparse(&self) -> &[JaggedFeature] {
        &self.sparse
    }

    /// Jagged feature by name.
    #[must_use]
    pub fn sparse_by_name(&self, name: &str) -> Option<&JaggedFeature> {
        self.sparse.iter().find(|f| f.name == name)
    }

    /// Approximate serialized size in bytes — the Load transfer volume.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.labels.len() * 8
            + self.dense.data().len() * 4
            + self.sparse.iter().map(|f| f.offsets.len() * 4 + f.values.len() * 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jagged(name: &str, lists: &[&[i64]]) -> JaggedFeature {
        let mut offsets = vec![0u32];
        let mut values = Vec::new();
        for l in lists {
            values.extend_from_slice(l);
            offsets.push(values.len() as u32);
        }
        JaggedFeature { name: name.into(), offsets, values }
    }

    #[test]
    fn dense_matrix_transposes_correctly() {
        let m = DenseMatrix::from_columns(&[vec![1.0, 2.0], vec![10.0, 20.0]], 2).unwrap();
        assert_eq!(m.row(0), &[1.0, 10.0]);
        assert_eq!(m.row(1), &[2.0, 20.0]);
        assert_eq!((m.rows(), m.cols()), (2, 2));
    }

    /// The fill's reference: one column at a time, one value at a time.
    fn scatter(data: &mut [f32], cols: usize, columns: &[(usize, Vec<f32>)]) {
        for (c, values) in columns {
            for (r, &v) in values.iter().enumerate() {
                data[r * cols + c] = v;
            }
        }
    }

    fn pairs(columns: &[(usize, Vec<f32>)]) -> Vec<(usize, &[f32])> {
        columns.iter().map(|(c, values)| (*c, values.as_slice())).collect()
    }

    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_fill_matches_a_scalar_scatter_bit_for_bit() {
        // Quiet and signalling NaNs with payloads, both zeros, infinities.
        const SPECIAL: [u32; 6] =
            [0x7fc0_1234, 0xffa0_0001, 0x8000_0000, 0x0000_0000, 0x7f80_0000, 0xff80_0000];
        let value = |r: usize, c: usize| {
            let h = (r as u32).wrapping_mul(0x9e37_79b9) ^ (c as u32).wrapping_mul(0x85eb_ca6b);
            f32::from_bits(if h.is_multiple_of(7) { SPECIAL[(h as usize / 7) % 6] } else { h })
        };
        for cols in [0, 1, 15, 16, 17, 504] {
            for rows in [0, 1, 127, 128, 129, 1024] {
                let column = |c: usize| (c, (0..rows).map(|r| value(r, c)).collect::<Vec<f32>>());
                // The pair's order: a run of every other 21 columns (thread
                // A's half), then the rest (thread B's) into the same buffer.
                let (a, b): (Vec<_>, Vec<_>) =
                    (0..cols).map(column).partition(|(c, _)| c / 21 % 2 == 0);
                let mut expected = vec![f32::from_bits(0x7fc0_dead); rows * cols];
                let mut tiled = DenseMatrix { rows, cols, data: expected.clone() };
                // One half alone leaves the other's columns untouched.
                scatter(&mut expected, cols, &a);
                tiled.fill_tiled(&pairs(&a)).unwrap();
                assert_eq!(bits(tiled.data()), bits(&expected), "{rows} x {cols}, first half");
                scatter(&mut expected, cols, &b);
                tiled.fill_tiled(&pairs(&b)).unwrap();
                assert_eq!(bits(tiled.data()), bits(&expected), "{rows} x {cols}, both halves");
                // All columns at once, as `from_columns` fills them.
                let all: Vec<Vec<f32>> = (0..cols).map(|c| column(c).1).collect();
                let m = DenseMatrix::from_columns(&all, rows).unwrap();
                assert_eq!(bits(m.data()), bits(&expected), "{rows} x {cols}, from_columns");
            }
        }
    }

    #[test]
    fn dense_matrix_rejects_ragged_columns() {
        assert!(DenseMatrix::from_columns(&[vec![1.0], vec![1.0, 2.0]], 1).is_err());
    }

    #[test]
    fn zero_column_matrix_is_fine() {
        let m = DenseMatrix::from_columns(&[], 3).unwrap();
        assert_eq!((m.rows(), m.cols()), (3, 0));
        assert_eq!(m.row(1), &[] as &[f32]);
    }

    #[test]
    fn minibatch_assembly_and_access() {
        let dense = DenseMatrix::from_columns(&[vec![0.5, 1.5]], 2).unwrap();
        let f = jagged("s0", &[&[1, 2], &[3]]);
        let mb = MiniBatch::new(vec![0, 1], dense, vec![f]).unwrap();
        assert_eq!(mb.rows(), 2);
        assert_eq!(mb.sparse_by_name("s0").unwrap().row(0), &[1, 2]);
        assert!(mb.sparse_by_name("missing").is_none());
        assert!(mb.byte_size() > 0);
    }

    #[test]
    fn minibatch_rejects_row_mismatch() {
        let dense = DenseMatrix::from_columns(&[vec![0.5]], 1).unwrap();
        assert!(MiniBatch::new(vec![0, 1], dense, vec![]).is_err());
        let dense = DenseMatrix::from_columns(&[vec![0.5, 1.0]], 2).unwrap();
        let f = jagged("s0", &[&[1]]);
        assert!(MiniBatch::new(vec![0, 1], dense, vec![f]).is_err());
    }

    #[test]
    fn jagged_validation_catches_corruption() {
        let mut f = jagged("s", &[&[1], &[2, 3]]);
        f.offsets[0] = 1;
        assert!(f.validate().is_err());
        let mut f = jagged("s", &[&[1], &[2]]);
        f.offsets[1] = 9;
        assert!(f.validate().is_err());
        let mut f = jagged("s", &[&[1, 2]]);
        f.values.pop();
        assert!(f.validate().is_err());
    }

    #[test]
    fn byte_size_tracks_components() {
        let dense = DenseMatrix::from_columns(&[vec![0.0; 4]], 4).unwrap();
        let f = jagged("s", &[&[1], &[], &[2, 3], &[]]);
        let mb = MiniBatch::new(vec![0; 4], dense, vec![f]).unwrap();
        assert_eq!(mb.byte_size(), 4 * 8 + 4 * 4 + 5 * 4 + 3 * 8);
    }
}
