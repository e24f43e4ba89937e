// Dense 2-D float32 tensor with the small kernel set the GTV stack needs:
// elementwise arithmetic with row/column/scalar broadcasting, threaded
// matmul, transpose, reductions, and row gather/concat utilities used by
// the VFL Split/Concat operators.
//
// Shapes are always (rows, cols); a vector is represented as 1xC or Nx1.
// Broadcasting rule for binary ops: shapes must match, or the rhs (or lhs)
// may be 1xC (broadcast across rows), Nx1 (broadcast across columns), or
// 1x1 (scalar).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/memory.h"
#include "tensor/rng.h"

namespace gtv {

namespace bytes {
struct Reader;
}

// Element storage for Tensor. The tracking allocator charges every buffer
// to the gtv::obs memory ledger (live/peak/alloc-count gauges); build
// buffers as FloatVec when handing them to Tensor so the move constructor
// applies.
using FloatVec = std::vector<float, obs::TrackingAllocator<float>>;

class Tensor {
 public:
  Tensor() = default;
  // Zero-initialized tensor of the given shape.
  Tensor(std::size_t rows, std::size_t cols);
  Tensor(std::size_t rows, std::size_t cols, float fill);
  // Takes ownership of `values`; values.size() must equal rows * cols.
  Tensor(std::size_t rows, std::size_t cols, FloatVec values);
  // Convenience overload for plain vectors; copies into tracked storage.
  Tensor(std::size_t rows, std::size_t cols, const std::vector<float>& values);

  static Tensor zeros(std::size_t rows, std::size_t cols);
  static Tensor ones(std::size_t rows, std::size_t cols);
  static Tensor full(std::size_t rows, std::size_t cols, float value);
  static Tensor scalar(float value);
  // Row-major literal, e.g. Tensor::of({{1,2},{3,4}}).
  static Tensor of(std::initializer_list<std::initializer_list<float>> rows);
  static Tensor uniform(std::size_t rows, std::size_t cols, float lo, float hi, Rng& rng);
  static Tensor normal(std::size_t rows, std::size_t cols, float mean, float stddev, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  // Bounds-checked access.
  float at(std::size_t r, std::size_t c) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const FloatVec& values() const { return data_; }

  // --- elementwise / broadcasting arithmetic -------------------------------
  Tensor operator+(const Tensor& rhs) const;
  Tensor operator-(const Tensor& rhs) const;
  Tensor operator*(const Tensor& rhs) const;  // Hadamard
  Tensor operator/(const Tensor& rhs) const;
  Tensor operator-() const;
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);

  Tensor add_scalar(float s) const;
  Tensor mul_scalar(float s) const;

  // Applies f to every element.
  Tensor map(const std::function<float(float)>& f) const;

  // --- linear algebra -------------------------------------------------------
  // Matrix product; this->cols() must equal rhs.rows(). Tiled + threaded,
  // bit-identical to the naive i-k-j reference (see tensor/gemm.h).
  Tensor matmul(const Tensor& rhs) const;
  // this * rhs^T without materializing the transpose; cols() must match
  // rhs.cols(). Bit-identical to matmul(rhs.transpose()).
  Tensor matmul_nt(const Tensor& rhs) const;
  // this^T * rhs without materializing the transpose; rows() must match
  // rhs.rows(). Bit-identical to transpose().matmul(rhs).
  Tensor matmul_tn(const Tensor& rhs) const;
  Tensor transpose() const;

  // --- reductions -----------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  // Column sums -> 1 x cols.
  Tensor sum_rows() const;
  // Row sums -> rows x 1.
  Tensor sum_cols() const;
  Tensor mean_rows() const;  // 1 x cols
  Tensor mean_cols() const;  // rows x 1
  // Row-wise L2 norm -> rows x 1.
  Tensor row_norms() const;

  // --- structural -----------------------------------------------------------
  // Columns [c0, c1) as a new tensor.
  Tensor slice_cols(std::size_t c0, std::size_t c1) const;
  // Rows [r0, r1) as a new tensor.
  Tensor slice_rows(std::size_t r0, std::size_t r1) const;
  // Rows selected by index (with repetition allowed).
  Tensor gather_rows(const std::vector<std::size_t>& indices) const;
  // Horizontal concatenation; all parts must share rows().
  static Tensor concat_cols(const std::vector<Tensor>& parts);
  // Vertical concatenation; all parts must share cols().
  static Tensor concat_rows(const std::vector<Tensor>& parts);
  // Pads `left` zero columns before and `right` after.
  Tensor pad_cols(std::size_t left, std::size_t right) const;
  Tensor reshape(std::size_t rows, std::size_t cols) const;

  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }
  // Max absolute elementwise difference; shapes must match.
  float max_abs_diff(const Tensor& other) const;
  bool all_finite() const;

  std::string shape_str() const;

 private:
  enum class BinOp { kAdd, kSub, kMul, kDiv };
  Tensor binary(const Tensor& rhs, BinOp op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  FloatVec data_;
};

std::ostream& operator<<(std::ostream& os, const Tensor& t);

// The one byte layout of a tensor, on the wire and in checkpoints (all
// little-endian): u64 rows | u64 cols | rows*cols f32, row-major.
void put_tensor(std::vector<std::uint8_t>& out, const Tensor& t);
// Reads one tensor at the cursor. The shape is checked against the bytes
// left before anything is allocated, so rows * cols * 4 cannot overflow;
// throws std::runtime_error when they fall short.
Tensor read_tensor(bytes::Reader& r);

}  // namespace gtv
