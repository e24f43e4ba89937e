#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "tensor/bytes.h"
#include "tensor/gemm.h"

namespace gtv {

namespace {

[[noreturn]] void shape_error(const std::string& what, const Tensor& a, const Tensor& b) {
  throw std::invalid_argument("Tensor::" + what + ": incompatible shapes " + a.shape_str() +
                              " vs " + b.shape_str());
}

}  // namespace

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, FloatVec values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Tensor: values size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_str());
  }
}

Tensor::Tensor(std::size_t rows, std::size_t cols, const std::vector<float>& values)
    : Tensor(rows, cols, FloatVec(values.begin(), values.end())) {}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) { return Tensor(rows, cols); }
Tensor Tensor::ones(std::size_t rows, std::size_t cols) { return Tensor(rows, cols, 1.0f); }
Tensor Tensor::full(std::size_t rows, std::size_t cols, float value) {
  return Tensor(rows, cols, value);
}
Tensor Tensor::scalar(float value) { return Tensor(1, 1, value); }

Tensor Tensor::of(std::initializer_list<std::initializer_list<float>> rows) {
  const std::size_t r = rows.size();
  const std::size_t c = r == 0 ? 0 : rows.begin()->size();
  FloatVec values;
  values.reserve(r * c);
  for (const auto& row : rows) {
    if (row.size() != c) throw std::invalid_argument("Tensor::of: ragged rows");
    values.insert(values.end(), row.begin(), row.end());
  }
  return Tensor(r, c, std::move(values));
}

Tensor Tensor::uniform(std::size_t rows, std::size_t cols, float lo, float hi, Rng& rng) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::normal(std::size_t rows, std::size_t cols, float mean, float stddev, Rng& rng) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

float Tensor::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Tensor::at(" + std::to_string(r) + "," + std::to_string(c) +
                            ") out of " + shape_str());
  }
  return (*this)(r, c);
}

Tensor Tensor::binary(const Tensor& rhs, BinOp op) const {
  auto apply = [op](float a, float b) -> float {
    switch (op) {
      case BinOp::kAdd: return a + b;
      case BinOp::kSub: return a - b;
      case BinOp::kMul: return a * b;
      case BinOp::kDiv: return a / b;
    }
    return 0.0f;
  };
  // Same shape: direct.
  if (same_shape(rhs)) {
    Tensor out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = apply(data_[i], rhs.data_[i]);
    return out;
  }
  // rhs broadcast over lhs.
  if (rhs.rows_ == 1 && rhs.cols_ == 1) {
    const float s = rhs.data_[0];
    Tensor out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = apply(data_[i], s);
    return out;
  }
  if (rhs.rows_ == 1 && rhs.cols_ == cols_) {
    Tensor out(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c)
        out(r, c) = apply((*this)(r, c), rhs.data_[c]);
    return out;
  }
  if (rhs.cols_ == 1 && rhs.rows_ == rows_) {
    Tensor out(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const float s = rhs.data_[r];
      for (std::size_t c = 0; c < cols_; ++c) out(r, c) = apply((*this)(r, c), s);
    }
    return out;
  }
  // lhs broadcast over rhs (e.g. scalar - tensor).
  if (rows_ == 1 && cols_ == 1) {
    const float s = data_[0];
    Tensor out(rhs.rows_, rhs.cols_);
    for (std::size_t i = 0; i < rhs.data_.size(); ++i) out.data_[i] = apply(s, rhs.data_[i]);
    return out;
  }
  if (rows_ == 1 && cols_ == rhs.cols_) {
    Tensor out(rhs.rows_, rhs.cols_);
    for (std::size_t r = 0; r < rhs.rows_; ++r)
      for (std::size_t c = 0; c < rhs.cols_; ++c)
        out(r, c) = apply(data_[c], rhs(r, c));
    return out;
  }
  if (cols_ == 1 && rows_ == rhs.rows_) {
    Tensor out(rhs.rows_, rhs.cols_);
    for (std::size_t r = 0; r < rhs.rows_; ++r) {
      const float s = data_[r];
      for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) = apply(s, rhs(r, c));
    }
    return out;
  }
  shape_error("binary", *this, rhs);
}

Tensor Tensor::operator+(const Tensor& rhs) const { return binary(rhs, BinOp::kAdd); }
Tensor Tensor::operator-(const Tensor& rhs) const { return binary(rhs, BinOp::kSub); }
Tensor Tensor::operator*(const Tensor& rhs) const { return binary(rhs, BinOp::kMul); }
Tensor Tensor::operator/(const Tensor& rhs) const { return binary(rhs, BinOp::kDiv); }

Tensor Tensor::operator-() const {
  Tensor out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = -data_[i];
  return out;
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  if (!same_shape(rhs)) {
    *this = *this + rhs;
    return *this;
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  if (!same_shape(rhs)) {
    *this = *this - rhs;
    return *this;
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor Tensor::add_scalar(float s) const {
  Tensor out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + s;
  return out;
}

Tensor Tensor::mul_scalar(float s) const {
  Tensor out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

Tensor Tensor::map(const std::function<float(float)>& f) const {
  Tensor out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = f(data_[i]);
  return out;
}

Tensor Tensor::matmul(const Tensor& rhs) const {
  if (cols_ != rhs.rows_) shape_error("matmul", *this, rhs);
  Tensor out(rows_, rhs.cols_);
  detail::gemm_nn(data_.data(), rhs.data_.data(), out.data_.data(), rows_, cols_, rhs.cols_);
  return out;
}

Tensor Tensor::matmul_nt(const Tensor& rhs) const {
  if (cols_ != rhs.cols_) shape_error("matmul_nt", *this, rhs);
  Tensor out(rows_, rhs.rows_);
  detail::gemm_nt(data_.data(), rhs.data_.data(), out.data_.data(), rows_, cols_, rhs.rows_);
  return out;
}

Tensor Tensor::matmul_tn(const Tensor& rhs) const {
  if (rows_ != rhs.rows_) shape_error("matmul_tn", *this, rhs);
  Tensor out(cols_, rhs.cols_);
  detail::gemm_tn(data_.data(), rhs.data_.data(), out.data_.data(), cols_, rows_, rhs.cols_);
  return out;
}

Tensor Tensor::transpose() const {
  Tensor out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  if (data_.empty()) throw std::logic_error("Tensor::mean of empty tensor");
  return static_cast<float>(sum() / static_cast<double>(data_.size()));
}

float Tensor::min() const {
  if (data_.empty()) throw std::logic_error("Tensor::min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  if (data_.empty()) throw std::logic_error("Tensor::max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

Tensor Tensor::sum_rows() const {
  // Accumulates in double like sum_cols: float32 accumulation drifts at
  // large row counts and skews the BatchNorm statistics built on top.
  Tensor out(1, cols_);
  std::vector<double> acc(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) acc[c] += (*this)(r, c);
  for (std::size_t c = 0; c < cols_; ++c) out.data_[c] = static_cast<float>(acc[c]);
  return out;
}

Tensor Tensor::sum_cols() const {
  Tensor out(rows_, 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c);
    out.data_[r] = static_cast<float>(acc);
  }
  return out;
}

Tensor Tensor::mean_rows() const {
  if (rows_ == 0) throw std::logic_error("Tensor::mean_rows of empty tensor");
  return sum_rows().mul_scalar(1.0f / static_cast<float>(rows_));
}

Tensor Tensor::mean_cols() const {
  if (cols_ == 0) throw std::logic_error("Tensor::mean_cols of empty tensor");
  return sum_cols().mul_scalar(1.0f / static_cast<float>(cols_));
}

Tensor Tensor::row_norms() const {
  Tensor out(rows_, 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      const float v = (*this)(r, c);
      acc += static_cast<double>(v) * v;
    }
    out.data_[r] = static_cast<float>(std::sqrt(acc));
  }
  return out;
}

Tensor Tensor::slice_cols(std::size_t c0, std::size_t c1) const {
  if (c0 > c1 || c1 > cols_) {
    throw std::out_of_range("Tensor::slice_cols [" + std::to_string(c0) + "," +
                            std::to_string(c1) + ") of " + shape_str());
  }
  Tensor out(rows_, c1 - c0);
  for (std::size_t r = 0; r < rows_; ++r)
    std::copy(data_.begin() + r * cols_ + c0, data_.begin() + r * cols_ + c1,
              out.data_.begin() + r * out.cols_);
  return out;
}

Tensor Tensor::slice_rows(std::size_t r0, std::size_t r1) const {
  if (r0 > r1 || r1 > rows_) {
    throw std::out_of_range("Tensor::slice_rows [" + std::to_string(r0) + "," +
                            std::to_string(r1) + ") of " + shape_str());
  }
  Tensor out(r1 - r0, cols_);
  std::copy(data_.begin() + r0 * cols_, data_.begin() + r1 * cols_, out.data_.begin());
  return out;
}

Tensor Tensor::gather_rows(const std::vector<std::size_t>& indices) const {
  Tensor out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t r = indices[i];
    if (r >= rows_) throw std::out_of_range("Tensor::gather_rows index " + std::to_string(r));
    std::copy(data_.begin() + r * cols_, data_.begin() + (r + 1) * cols_,
              out.data_.begin() + i * cols_);
  }
  return out;
}

Tensor Tensor::concat_cols(const std::vector<Tensor>& parts) {
  if (parts.empty()) return Tensor();
  const std::size_t rows = parts.front().rows_;
  std::size_t cols = 0;
  for (const auto& p : parts) {
    if (p.rows_ != rows) shape_error("concat_cols", parts.front(), p);
    cols += p.cols_;
  }
  Tensor out(rows, cols);
  std::size_t offset = 0;
  for (const auto& p : parts) {
    for (std::size_t r = 0; r < rows; ++r)
      std::copy(p.data_.begin() + r * p.cols_, p.data_.begin() + (r + 1) * p.cols_,
                out.data_.begin() + r * cols + offset);
    offset += p.cols_;
  }
  return out;
}

Tensor Tensor::concat_rows(const std::vector<Tensor>& parts) {
  if (parts.empty()) return Tensor();
  const std::size_t cols = parts.front().cols_;
  std::size_t rows = 0;
  for (const auto& p : parts) {
    if (p.cols_ != cols) shape_error("concat_rows", parts.front(), p);
    rows += p.rows_;
  }
  Tensor out(rows, cols);
  std::size_t offset = 0;
  for (const auto& p : parts) {
    std::copy(p.data_.begin(), p.data_.end(), out.data_.begin() + offset);
    offset += p.data_.size();
  }
  return out;
}

Tensor Tensor::pad_cols(std::size_t left, std::size_t right) const {
  Tensor out(rows_, left + cols_ + right);
  for (std::size_t r = 0; r < rows_; ++r)
    std::copy(data_.begin() + r * cols_, data_.begin() + (r + 1) * cols_,
              out.data_.begin() + r * out.cols_ + left);
  return out;
}

Tensor Tensor::reshape(std::size_t rows, std::size_t cols) const {
  if (rows * cols != data_.size()) {
    throw std::invalid_argument("Tensor::reshape to " + std::to_string(rows) + "x" +
                                std::to_string(cols) + " from " + shape_str());
  }
  Tensor out = *this;
  out.rows_ = rows;
  out.cols_ = cols;
  return out;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  if (!same_shape(other)) shape_error("max_abs_diff", *this, other);
  float worst = 0.0f;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

bool Tensor::all_finite() const {
  return std::all_of(data_.begin(), data_.end(), [](float v) { return std::isfinite(v); });
}

std::string Tensor::shape_str() const {
  return "(" + std::to_string(rows_) + "x" + std::to_string(cols_) + ")";
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor" << t.shape_str() << "[";
  const std::size_t max_show = 8;
  for (std::size_t r = 0; r < std::min(t.rows(), max_show); ++r) {
    os << (r == 0 ? "[" : " [");
    for (std::size_t c = 0; c < std::min(t.cols(), max_show); ++c) {
      os << t(r, c) << (c + 1 < std::min(t.cols(), max_show) ? ", " : "");
    }
    if (t.cols() > max_show) os << ", ...";
    os << "]";
    if (r + 1 < std::min(t.rows(), max_show)) os << "\n";
  }
  if (t.rows() > max_show) os << "\n ...";
  os << "]";
  return os;
}

void put_tensor(std::vector<std::uint8_t>& out, const Tensor& t) {
  bytes::put_u64(out, t.rows());
  bytes::put_u64(out, t.cols());
  bytes::put_f32s(out, t.data(), t.size());
}

Tensor read_tensor(bytes::Reader& r) {
  const std::uint64_t rows = r.u64("tensor rows");
  const std::uint64_t cols = r.u64("tensor cols");
  if (cols != 0 && rows > r.remaining() / 4 / cols) r.fail("tensor shape exceeds the input");
  Tensor t(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  r.f32s(t.data(), t.size(), "tensor values");
  return t;
}

}  // namespace gtv
