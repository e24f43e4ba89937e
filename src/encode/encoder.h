// Feature engineering for tabular GANs (CT-GAN / CTAB-GAN):
//
//   categorical column  -> one-hot                        [softmax span]
//   continuous column   -> mode-specific normalization:
//                          scalar alpha in [-1,1]         [tanh span]
//                          + one-hot over GMM modes       [softmax span]
//   mixed column        -> alpha                          [tanh span]
//                          + one-hot over (special values
//                            U GMM modes of the
//                            continuous part)             [softmax span]
//
// The encoder records a span layout so the generator knows which output
// activation to apply where, and so the conditional-vector machinery can
// find the categorical one-hot spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"
#include "encode/gmm.h"
#include "tensor/tensor.h"

namespace gtv::encode {

enum class Activation { kTanh, kSoftmax };

struct Span {
  std::size_t offset = 0;  // first encoded column of the span
  std::size_t width = 0;
  Activation activation = Activation::kTanh;
  std::size_t source_column = 0;  // index into the source table schema
};

struct EncoderOptions {
  GmmOptions gmm;
  // alpha = (x - mu_m) / (normalization_factor * sigma_m), clipped to [-1,1].
  double normalization_factor = 4.0;
};

class TableEncoder {
 public:
  TableEncoder() = default;

  // Fits per-column statistics (GMMs for continuous parts).
  void fit(const data::Table& table, const EncoderOptions& options, Rng& rng);

  bool fitted() const { return !column_spans_.empty() || total_width_ == 0; }
  std::size_t total_width() const { return total_width_; }
  const std::vector<Span>& spans() const { return spans_; }
  // Spans belonging to a given source column (1 for categorical, 2 otherwise).
  const std::vector<std::size_t>& spans_of_column(std::size_t column) const {
    return column_spans_.at(column);
  }
  const data::Table& schema_table() const { return schema_; }

  // Encodes rows into a (n_rows x total_width) tensor. Mode assignment for
  // continuous values is sampled from the GMM responsibilities (CT-GAN).
  Tensor encode(const data::Table& table, Rng& rng) const;
  // Inverse transform: alpha is clamped to [-1,1], one-hot spans decoded by
  // argmax. Produces a table with the fitted schema.
  data::Table decode(const Tensor& encoded) const;

  // One-hot spans usable as conditional-vector targets (categorical columns
  // only, matching CT-GAN's conditional generator).
  struct DiscreteSpan {
    std::size_t source_column = 0;
    std::size_t span_offset = 0;   // offset of the one-hot span in the encoding
    std::size_t cardinality = 0;
    std::vector<std::size_t> frequencies;  // training counts per category
  };
  const std::vector<DiscreteSpan>& discrete_spans() const { return discrete_spans_; }

  // Appends the full fitted state (schema, codecs, span layout, discrete
  // spans) to `out` as a little-endian byte blob, so a checkpoint can
  // rebuild the encoder without the training data. The inverse parses the
  // blob at the cursor (stepping past it) and throws std::runtime_error on
  // malformed input.
  void serialize(std::vector<std::uint8_t>& out) const;
  static TableEncoder deserialize(bytes::Reader& r);

 private:
  struct ColumnCodec {
    data::ColumnType type = data::ColumnType::kContinuous;
    GaussianMixture1D gmm;              // continuous / mixed continuous part
    std::vector<double> special_values; // mixed
    std::size_t cardinality = 0;        // categorical
    double normalization_factor = 4.0;
  };

  data::Table schema_;  // zero-row table carrying the fitted schema
  std::vector<ColumnCodec> codecs_;
  std::vector<Span> spans_;
  std::vector<std::vector<std::size_t>> column_spans_;
  std::vector<DiscreteSpan> discrete_spans_;
  std::size_t total_width_ = 0;
};

}  // namespace gtv::encode
