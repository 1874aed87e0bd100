/**
 * @file
 * Sparse-matrix formats: CSR (the reference format) and LIL (the
 * list-of-lists format the paper streams through the tree).
 *
 * LIL compresses non-zeros along one dimension only — each row is a list
 * of (column, value) pairs — which makes splitting a matrix through its
 * non-compressed (column) dimension trivial: exactly the property
 * Section IV-D relies on to stream column chunks through Fafnir in
 * rounds.
 */

#ifndef FAFNIR_SPARSE_MATRIX_HH
#define FAFNIR_SPARSE_MATRIX_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace fafnir::sparse
{

/** A single non-zero element. */
struct Triplet
{
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    float value = 0.0f;
};

/** Dense vector type used by SpMV. */
using DenseVector = std::vector<float>;

/** Compressed sparse row matrix. */
class CsrMatrix
{
  public:
    CsrMatrix(std::uint32_t rows, std::uint32_t cols,
              std::vector<std::uint32_t> row_ptr,
              std::vector<std::uint32_t> col_idx,
              std::vector<float> values);

    /** Build from unordered triplets (duplicates summed). */
    static CsrMatrix fromTriplets(std::uint32_t rows, std::uint32_t cols,
                                  std::vector<Triplet> triplets);

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }
    std::size_t nnz() const { return values_.size(); }

    const std::vector<std::uint32_t> &rowPtr() const { return rowPtr_; }
    const std::vector<std::uint32_t> &colIdx() const { return colIdx_; }
    const std::vector<float> &values() const { return values_; }

    /** Reference y = A * x. */
    DenseVector multiply(const DenseVector &x) const;

    /** A^T (rows and columns swapped). */
    CsrMatrix transpose() const;

    /** Average non-zeros per row. */
    double
    density() const
    {
        return rows_ == 0 ? 0.0
                          : static_cast<double>(nnz()) /
                  (static_cast<double>(rows_) * cols_);
    }

  private:
    std::uint32_t rows_;
    std::uint32_t cols_;
    std::vector<std::uint32_t> rowPtr_;
    std::vector<std::uint32_t> colIdx_;
    std::vector<float> values_;
};

/** List-of-lists matrix: per-row (column, value) pairs, column-sorted. */
class LilMatrix
{
  public:
    using Entry = std::pair<std::uint32_t, float>;

    LilMatrix(std::uint32_t rows, std::uint32_t cols)
        : rows_(rows), cols_(cols), lists_(rows)
    {}

    static LilMatrix fromCsr(const CsrMatrix &csr);
    CsrMatrix toCsr() const;

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }
    std::size_t nnz() const;

    const std::vector<Entry> &rowList(std::uint32_t row) const
    {
        FAFNIR_ASSERT(row < rows_, "row out of range");
        return lists_[row];
    }

    /** Append an entry; columns must arrive in increasing order per row. */
    void push(std::uint32_t row, std::uint32_t col, float value);

  private:
    std::uint32_t rows_;
    std::uint32_t cols_;
    std::vector<std::vector<Entry>> lists_;
};

/** Element-wise comparison with tolerance. */
bool denseEqual(const DenseVector &a, const DenseVector &b,
                float tolerance = 1e-2f);

} // namespace fafnir::sparse

#endif // FAFNIR_SPARSE_MATRIX_HH
