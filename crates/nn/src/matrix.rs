//! Row-major `f32` matrices with the kernels reverse-mode autodiff needs.
//!
//! The QPPNet training loop spends essentially all of its time in four
//! kernels: `X·W` (forward), `dZ·Wᵀ` (input gradient), `Xᵀ·dZ` (weight
//! gradient) and horizontal concatenation / column slicing (assembling and
//! splitting neural-unit inputs). Each is implemented directly on the
//! row-major buffer with loop orders chosen for sequential access, following
//! the usual `ikj` blocking advice.

use serde::{Deserialize, Serialize};

/// A dense row-major `f32` matrix.
///
/// Rows are samples (batch dimension) and columns are features throughout
/// this workspace.
///
/// # Bounds-checking contract
///
/// Every method checks its preconditions, in one of two tiers:
///
/// * **element/row accessors** (`get`, `set`, `row`, `row_mut`) are on the
///   innermost hot path and `debug_assert!` their bounds with messages that
///   name the offending index and dimension; release builds fall back to
///   the underlying slice's bounds check (still a panic, never UB);
/// * **shape-checked kernels** (`matmul*`, `hcat`, `slice_cols`,
///   `gather_rows*`, `scatter_rows_into`, `add_scaled`, …) `assert!` their
///   shape preconditions unconditionally, with messages that name both
///   operand shapes.
///
/// `Default` is the empty `0 × 0` matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match dimensions");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices (all rows must share a length).
    ///
    /// # Panics
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn from_row(row: &[f32]) -> Self {
        Matrix { rows: 1, cols: row.len(), data: row.to_vec() }
    }

    /// Creates a single-column matrix from a slice.
    pub fn from_col(col: &[f32]) -> Self {
        Matrix { rows: col.len(), cols: 1, data: col.to_vec() }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `(i, j)`.
    ///
    /// # Panics
    /// Debug-asserted bounds (hot path); release builds panic via the slice
    /// index without the named message.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "element ({i}, {j}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j]
    }

    /// Writes element `(i, j)`.
    ///
    /// # Panics
    /// Debug-asserted bounds (hot path); release builds panic via the slice
    /// index without the named message.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(
            i < self.rows && j < self.cols,
            "element ({i}, {j}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j] = v;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    /// Debug-asserted bounds (hot path); release builds panic via the range
    /// slice without the named message.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows, "row {i} out of range for {}x{} matrix", self.rows, self.cols);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    /// Debug-asserted bounds (hot path); release builds panic via the range
    /// slice without the named message.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows, "row {i} out of range for {}x{} matrix", self.rows, self.cols);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows the whole row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the whole row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Extracts column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "column out of range");
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Matrix product `self · other` (`n×k · k×m = n×m`).
    ///
    /// Loop order is `ikj`, so both the `other` row and the output row are
    /// traversed sequentially; zero left-operands (common after ReLU) are
    /// skipped.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.assert_matmul_shapes(other);
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_accumulate(other, &mut out);
        out
    }

    /// Matrix product `self · other`, written into `out` (overwritten, not
    /// accumulated). The allocation-free twin of [`Matrix::matmul`] for
    /// callers that reuse buffers (the serving forward runs the packed
    /// [`crate::PackedDense::forward_into`] instead, which also folds in
    /// bias and activation).
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows` or `out` is not
    /// `self.rows × other.cols`, naming the offending shapes.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.assert_matmul_shapes(other);
        assert!(
            out.rows == self.rows && out.cols == other.cols,
            "matmul output shape mismatch: got {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            other.cols
        );
        out.fill_zero();
        self.matmul_accumulate(other, out);
    }

    #[inline]
    fn assert_matmul_shapes(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// The shared `ikj` accumulation core: `out += self · other`, assuming
    /// shapes already checked and `out` already initialized (zeros for a
    /// plain product). Skips zero left-operands (common after ReLU).
    fn matmul_accumulate(&self, other: &Matrix, out: &mut Matrix) {
        let oc = other.cols;
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = &mut out.data[i * oc..(i + 1) * oc];
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * oc..(k + 1) * oc];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self · otherᵀ` (`n×k · m×k = n×m`) without materializing a transpose.
    ///
    /// Used for the input gradient `dX = dZ · Wᵀ` when weights are stored
    /// `in×out`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into `out` (overwritten, not accumulated) —
    /// the allocation-free twin of [`Matrix::matmul_a_bt`]. One dot
    /// product per output element, `k` ascending. (The wavefront
    /// training backward runs the packed-panel twin,
    /// [`crate::PackedDense::backward_input_into`].)
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols` or `out` is not
    /// `self.rows × other.rows`, naming the offending shapes.
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(
            out.rows == self.rows && out.cols == other.rows,
            "matmul_a_bt output shape mismatch: got {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            other.rows
        );
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * other.rows..(i + 1) * other.rows];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &other.data[j * other.cols..(j + 1) * other.cols];
                let mut acc = 0.0f32;
                for (&a, &b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// `selfᵀ · other` (`n×r`ᵀ `· n×c = r×c`) without materializing a
    /// transpose; accumulates into `out` (callers reuse gradient buffers).
    ///
    /// Used for the weight gradient `dW += Xᵀ · dZ`. Zero left-operands
    /// (one-hot feature columns, post-ReLU activations) are skipped.
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b row mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(
            out.rows == self.cols && out.cols == other.cols,
            "matmul_at_b output shape mismatch: got {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.cols,
            other.cols
        );
        let oc = other.cols;
        for n in 0..self.rows {
            let arow = self.row(n);
            let brow = &other.data[n * oc..(n + 1) * oc];
            for (r, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[r * oc..(r + 1) * oc];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
    }

    /// `selfᵀ · other`, allocating the output.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_into(other, &mut out);
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Adds `row` to every row in place (bias broadcast).
    pub fn add_row_inplace(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.cols,
            "broadcast row length mismatch: row has {} elements, matrix is {}x{}",
            row.len(),
            self.rows,
            self.cols
        );
        for i in 0..self.rows {
            for (o, &b) in self.row_mut(i).iter_mut().zip(row) {
                *o += b;
            }
        }
    }

    /// Column sums (used for bias gradients), accumulated into `out`.
    pub fn col_sum_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.cols,
            "col_sum output length mismatch: output has {} slots, matrix is {}x{}",
            out.len(),
            self.rows,
            self.cols
        );
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
    }

    /// `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "add_scaled shape mismatch: {}x{} += {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        for (o, &v) in self.data.iter_mut().zip(&other.data) {
            *o += scale * v;
        }
    }

    /// Element-wise (Hadamard) product: `self ⊙ other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_elem(&self, other: &Matrix) -> Matrix {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "mul_elem shape mismatch: {}x{} ⊙ {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise product in place: `self ⊙= other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_elem_inplace(&mut self, other: &Matrix) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "mul_elem shape mismatch: {}x{} ⊙ {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_inplace(&mut self, scale: f32) {
        for v in &mut self.data {
            *v *= scale;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Horizontally concatenates matrices that share a row count.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat of zero matrices");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let orow = out.row_mut(i);
            let mut off = 0;
            for p in parts {
                assert_eq!(
                    p.rows, rows,
                    "hcat row count mismatch: part is {}x{}, expected {rows} rows",
                    p.rows, p.cols
                );
                orow[off..off + p.cols].copy_from_slice(p.row(i));
                off += p.cols;
            }
        }
        out
    }

    /// Copies columns `[start, start+width)` into a new matrix.
    ///
    /// # Panics
    /// Panics if the slice exceeds the column count, naming the range.
    pub fn slice_cols(&self, start: usize, width: usize) -> Matrix {
        assert!(
            start + width <= self.cols,
            "column slice [{start}, {}) out of range for {}x{} matrix",
            start + width,
            self.rows,
            self.cols
        );
        let mut out = Matrix::zeros(self.rows, width);
        for i in 0..self.rows {
            let src = &self.row(i)[start..start + width];
            out.row_mut(i).copy_from_slice(src);
        }
        out
    }

    /// Gathers the given rows into a new matrix (row `k` of the output is
    /// row `indices[k]` of `self`).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gathers the given rows into `out` (row `k` of `out` becomes row
    /// `indices[k]` of `self`). The allocation-free twin of
    /// [`Matrix::gather_rows`]; the inverse routing of
    /// [`Matrix::scatter_rows_into`], which the inference engine uses to
    /// write wavefront results (child-column gathers copy sub-row slices,
    /// so they use `row`/`row_mut` directly).
    ///
    /// # Panics
    /// Panics if `out` is not `indices.len() × self.cols` or an index is out
    /// of range, naming the offending shapes/index.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert!(
            out.rows == indices.len() && out.cols == self.cols,
            "gather_rows output shape mismatch: got {}x{}, need {}x{}",
            out.rows,
            out.cols,
            indices.len(),
            self.cols
        );
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                i < self.rows,
                "gather_rows index {i} out of range for {}x{} matrix",
                self.rows,
                self.cols
            );
            out.row_mut(k).copy_from_slice(self.row(i));
        }
    }

    /// Scatters this matrix's rows into `out`: row `k` of `self` overwrites
    /// row `indices[k]` of `out`. The inverse routing of
    /// [`Matrix::gather_rows_into`]; later duplicates win.
    ///
    /// # Panics
    /// Panics if `indices.len() != self.rows`, the column counts differ, or
    /// an index is out of range, naming the offending shapes/index.
    pub fn scatter_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(
            indices.len(),
            self.rows,
            "scatter_rows index count mismatch: {} indices for {}x{} matrix",
            indices.len(),
            self.rows,
            self.cols
        );
        assert_eq!(
            self.cols, out.cols,
            "scatter_rows column mismatch: source is {}x{}, target is {}x{}",
            self.rows, self.cols, out.rows, out.cols
        );
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                i < out.rows,
                "scatter_rows index {i} out of range for {}x{} target",
                out.rows,
                out.cols
            );
            out.row_mut(i).copy_from_slice(self.row(k));
        }
    }

    /// Adds this matrix's rows into rows of `out`: row `k` of `self` is
    /// **accumulated** into row `indices[k]` of `out` — the adjoint of
    /// [`Matrix::gather_rows_into`] (a gather reads each source row into
    /// one output slot; its transpose sums every slot's gradient back into
    /// the source row). Unlike [`Matrix::scatter_rows_into`], duplicate
    /// indices accumulate instead of last-write-wins — exactly what a
    /// gradient scatter needs when several gathered rows alias one source.
    ///
    /// # Panics
    /// Panics if `indices.len() != self.rows`, the column counts differ, or
    /// an index is out of range, naming the offending shapes/index.
    pub fn scatter_add_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(
            self.cols, out.cols,
            "scatter_add_rows column mismatch: source is {}x{}, target is {}x{}",
            self.rows, self.cols, out.rows, out.cols
        );
        self.scatter_add_cols_into(0, indices, out);
    }

    /// Adds an `out.cols()`-wide column block of `self` (starting at column
    /// `start`) into the given rows of `out`:
    /// `out.row(indices[k]) += self[k, start..start + out.cols()]`.
    ///
    /// This is the adjoint of the serving/training engines' *child-column
    /// gather* (which copies whole child-output rows into column blocks of
    /// a wavefront step's input): the backward pass routes each member's
    /// input-gradient block back onto its child's output-gradient row.
    /// Duplicate indices accumulate.
    ///
    /// # Panics
    /// Panics if `indices.len() != self.rows`, the block exceeds `self`'s
    /// columns, or an index is out of range, naming the offending
    /// shapes/index.
    pub fn scatter_add_cols_into(&self, start: usize, indices: &[usize], out: &mut Matrix) {
        let width = out.cols;
        assert_eq!(
            indices.len(),
            self.rows,
            "scatter_add index count mismatch: {} indices for {}x{} matrix",
            indices.len(),
            self.rows,
            self.cols
        );
        assert!(
            start + width <= self.cols,
            "scatter_add column block [{start}, {}) out of range for {}x{} matrix",
            start + width,
            self.rows,
            self.cols
        );
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                i < out.rows,
                "scatter_add index {i} out of range for {}x{} target",
                out.rows,
                out.cols
            );
            let src = &self.data[k * self.cols + start..k * self.cols + start + width];
            let dst = &mut out.data[i * width..(i + 1) * width];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Reshapes the matrix to `rows × cols`, reusing the existing
    /// allocation when it is large enough. Contents are reset to zero.
    /// See [`Matrix::resize_for_overwrite`] for the memset-free variant
    /// the buffer pool uses.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Like [`Matrix::resize_zeroed`] but leaves existing element values
    /// **unspecified** (only newly grown elements are zeroed) — for
    /// callers that overwrite every element anyway, skipping the memset.
    ///
    /// This is the resize primitive behind [`crate::pool::BufferPool`]:
    /// repeated inference passes with varying batch sizes never reallocate
    /// (or redundantly zero) once a buffer has grown to its high-water
    /// mark.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        self.rows = rows;
        self.cols = cols;
        if self.data.len() > n {
            self.data.truncate(n);
        } else {
            self.data.resize(n, 0.0);
        }
    }

    /// An empty (`0 × cols`) matrix whose buffer is pre-reserved for
    /// `row_capacity` rows, so up to that many [`Matrix::push_zero_row`]s
    /// never reallocate. The incremental serving engine sizes each
    /// wavefront chunk's input this way (capacity = chunk size) so
    /// admitting a plan touches no allocator in steady state.
    pub fn with_row_capacity(row_capacity: usize, cols: usize) -> Matrix {
        Matrix { rows: 0, cols, data: Vec::with_capacity(row_capacity * cols) }
    }

    /// Ensures the buffer can hold at least `rows` total rows at the
    /// current column width without reallocating — the in-place analogue
    /// of [`Matrix::with_row_capacity`] for recycled buffers whose shape
    /// changed.
    pub fn reserve_row_capacity(&mut self, rows: usize) {
        let want = rows * self.cols;
        if want > self.data.len() {
            self.data.reserve(want - self.data.len());
        }
    }

    /// Appends one zeroed row, returning its index.
    pub fn push_zero_row(&mut self) -> usize {
        self.data.resize(self.data.len() + self.cols, 0.0);
        self.rows += 1;
        self.rows - 1
    }

    /// Removes row `i` by moving the last row into its place (order is not
    /// preserved), shrinking the matrix by one row. The serving engine's
    /// retire path compacts wavefront chunks with this — O(cols), no
    /// reallocation.
    ///
    /// # Panics
    /// Panics (debug-asserted, like the row accessors) if `i` is out of
    /// range.
    pub fn swap_remove_row(&mut self, i: usize) {
        debug_assert!(i < self.rows, "row {i} out of range for {}x{} matrix", self.rows, self.cols);
        let last = self.rows - 1;
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.cols);
            head[i * self.cols..(i + 1) * self.cols].copy_from_slice(tail);
        }
        self.data.truncate(last * self.cols);
        self.rows = last;
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn zeros_has_expected_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_elements() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.25], &[0.0, 3.0, 9.0]]);
        let id = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hcat_concatenates_columns() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Matrix::hcat(&[&a, &b]);
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_cols_inverts_hcat() {
        let a = Matrix::from_rows(&[&[1.0, 9.0], &[2.0, 8.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[5.0]]);
        let c = Matrix::hcat(&[&a, &b]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 1), b);
    }

    #[test]
    fn gather_rows_picks_rows_in_order() {
        let a = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.col(0), vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn scatter_inverts_gather() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]]);
        let idx = [2usize, 0];
        let g = a.gather_rows(&idx);
        let mut back = Matrix::zeros(3, 2);
        g.scatter_rows_into(&idx, &mut back);
        assert_eq!(back.row(0), a.row(0));
        assert_eq!(back.row(2), a.row(2));
        assert_eq!(back.row(1), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "scatter_rows index 5 out of range")]
    fn scatter_rejects_out_of_range_index() {
        let a = Matrix::from_rows(&[&[1.0]]);
        let mut out = Matrix::zeros(2, 1);
        a.scatter_rows_into(&[5], &mut out);
    }

    #[test]
    fn scatter_add_accumulates_duplicates_and_inverts_gather() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[4.0, 40.0]]);
        // Duplicate target rows must sum, not overwrite.
        let mut out = Matrix::zeros(2, 2);
        a.scatter_add_rows_into(&[1, 0, 1], &mut out);
        assert_eq!(out.row(0), &[2.0, 20.0]);
        assert_eq!(out.row(1), &[5.0, 50.0]);
        // Adjoint property: for a duplicate-free gather, scatter-add of the
        // gathered rows into zeros restores them in place.
        let idx = [2usize, 0];
        let g = a.gather_rows(&idx);
        let mut back = Matrix::zeros(3, 2);
        g.scatter_add_rows_into(&idx, &mut back);
        assert_eq!(back.row(0), a.row(0));
        assert_eq!(back.row(2), a.row(2));
        assert_eq!(back.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_add_cols_routes_a_column_block() {
        // Rows hold [feat | child block]; only the child block (cols 1..3)
        // is routed back.
        let d_in = Matrix::from_rows(&[&[9.0, 1.0, 2.0], &[9.0, 3.0, 4.0]]);
        let mut out = Matrix::from_rows(&[&[0.5, 0.5], &[0.0, 0.0], &[0.0, 0.0]]);
        d_in.scatter_add_cols_into(1, &[0, 2], &mut out);
        assert_eq!(out.row(0), &[1.5, 2.5]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "scatter_add index 7 out of range")]
    fn scatter_add_rejects_out_of_range_index() {
        let a = Matrix::from_rows(&[&[1.0]]);
        let mut out = Matrix::zeros(2, 1);
        a.scatter_add_rows_into(&[7], &mut out);
    }

    #[test]
    fn matmul_a_bt_into_matches_allocating_version() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, -1.0, 0.5]]);
        let b = Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[1.0, 1.0, 1.0], &[0.0, 3.0, -2.0], &[4.0, 0.5, 0.25]]);
        let mut out = Matrix::from_fn(2, 4, |_, _| 55.0); // stale contents
        a.matmul_a_bt_into(&b, &mut out);
        assert_eq!(out, a.matmul_a_bt(&b));
    }

    #[test]
    fn matmul_into_matches_matmul_and_overwrites() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::from_fn(2, 2, |_, _| 99.0); // stale contents
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch: 2x2 · 3x1")]
    fn matmul_names_shapes_on_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 1);
        let _ = a.matmul(&b);
    }

    #[test]
    fn resize_zeroed_reuses_capacity_and_clears() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let cap = m.data.capacity();
        m.resize_zeroed(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.data.capacity(), cap, "shrinking must not reallocate");
    }

    #[test]
    fn row_capacity_push_and_swap_remove() {
        let mut m = Matrix::with_row_capacity(4, 3);
        assert_eq!((m.rows(), m.cols()), (0, 3));
        let cap = m.data.capacity();
        for v in 0..4 {
            let i = m.push_zero_row();
            assert_eq!(i, v);
            m.row_mut(i).fill(v as f32);
        }
        assert_eq!(m.data.capacity(), cap, "pushes within capacity must not reallocate");
        // Remove row 1: row 3 moves into its slot.
        m.swap_remove_row(1);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(0), &[0.0; 3]);
        assert_eq!(m.row(1), &[3.0; 3]);
        assert_eq!(m.row(2), &[2.0; 3]);
        // Removing the last row is a plain truncate.
        m.swap_remove_row(2);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0; 3]);
        // Freed capacity is reusable without reallocation.
        m.push_zero_row();
        m.push_zero_row();
        assert_eq!(m.data.capacity(), cap);
    }

    #[test]
    fn add_row_broadcasts_bias() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_inplace(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sum_accumulates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut out = vec![10.0, 0.0];
        a.col_sum_into(&mut out);
        assert_eq!(out, vec![14.0, 6.0]);
    }

    proptest! {
        #[test]
        fn matmul_matches_naive(
            n in 1usize..6, k in 1usize..6, m in 1usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(n, k, |_, _| rng.gen_range(-2.0..2.0));
            let b = Matrix::from_fn(k, m, |_, _| rng.gen_range(-2.0..2.0));
            prop_assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-5));
        }

        #[test]
        fn matmul_a_bt_matches_explicit_transpose(
            n in 1usize..6, k in 1usize..6, m in 1usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(n, k, |_, _| rng.gen_range(-2.0..2.0));
            let b = Matrix::from_fn(m, k, |_, _| rng.gen_range(-2.0..2.0));
            prop_assert!(approx_eq(&a.matmul_a_bt(&b), &a.matmul(&b.transpose()), 1e-4));
        }

        #[test]
        fn matmul_at_b_matches_explicit_transpose(
            n in 1usize..6, r in 1usize..6, c in 1usize..6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(n, r, |_, _| rng.gen_range(-2.0..2.0));
            let b = Matrix::from_fn(n, c, |_, _| rng.gen_range(-2.0..2.0));
            prop_assert!(approx_eq(&a.matmul_at_b(&b), &a.transpose().matmul(&b), 1e-4));
        }

        #[test]
        fn hcat_then_slice_round_trips(
            rows in 1usize..5, c1 in 1usize..5, c2 in 1usize..5,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(rows, c1, |_, _| rng.gen_range(-1.0..1.0));
            let b = Matrix::from_fn(rows, c2, |_, _| rng.gen_range(-1.0..1.0));
            let cat = Matrix::hcat(&[&a, &b]);
            prop_assert_eq!(cat.slice_cols(0, c1), a);
            prop_assert_eq!(cat.slice_cols(c1, c2), b);
        }
    }
}
