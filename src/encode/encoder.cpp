#include "encode/encoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/bytes.h"

namespace gtv::encode {

using data::ColumnType;

void TableEncoder::fit(const data::Table& table, const EncoderOptions& options, Rng& rng) {
  if (table.n_rows() == 0) throw std::invalid_argument("TableEncoder::fit: empty table");
  schema_ = data::Table(table.schema());
  codecs_.clear();
  spans_.clear();
  column_spans_.assign(table.n_cols(), {});
  discrete_spans_.clear();
  total_width_ = 0;

  for (std::size_t c = 0; c < table.n_cols(); ++c) {
    const auto& spec = table.spec(c);
    ColumnCodec codec;
    codec.type = spec.type;
    codec.normalization_factor = options.normalization_factor;
    switch (spec.type) {
      case ColumnType::kCategorical: {
        codec.cardinality = spec.cardinality();
        Span onehot{total_width_, codec.cardinality, Activation::kSoftmax, c};
        column_spans_[c].push_back(spans_.size());
        spans_.push_back(onehot);
        total_width_ += onehot.width;

        DiscreteSpan ds;
        ds.source_column = c;
        ds.span_offset = onehot.offset;
        ds.cardinality = codec.cardinality;
        ds.frequencies = table.class_counts(c);
        discrete_spans_.push_back(std::move(ds));
        break;
      }
      case ColumnType::kContinuous: {
        codec.gmm.fit(table.column(c), options.gmm, rng);
        Span alpha{total_width_, 1, Activation::kTanh, c};
        column_spans_[c].push_back(spans_.size());
        spans_.push_back(alpha);
        total_width_ += 1;
        Span modes{total_width_, codec.gmm.n_modes(), Activation::kSoftmax, c};
        column_spans_[c].push_back(spans_.size());
        spans_.push_back(modes);
        total_width_ += modes.width;
        break;
      }
      case ColumnType::kMixed: {
        codec.special_values = spec.special_values;
        // Fit the GMM on the non-special portion only.
        std::vector<double> continuous_part;
        for (double v : table.column(c)) {
          const bool special =
              std::any_of(codec.special_values.begin(), codec.special_values.end(),
                          [v](double s) { return v == s; });
          if (!special) continuous_part.push_back(v);
        }
        if (continuous_part.empty()) {
          // Column is all special values; treat the first special as mean.
          continuous_part.push_back(codec.special_values.empty() ? 0.0
                                                                 : codec.special_values[0]);
        }
        codec.gmm.fit(continuous_part, options.gmm, rng);
        Span alpha{total_width_, 1, Activation::kTanh, c};
        column_spans_[c].push_back(spans_.size());
        spans_.push_back(alpha);
        total_width_ += 1;
        Span modes{total_width_, codec.special_values.size() + codec.gmm.n_modes(),
                   Activation::kSoftmax, c};
        column_spans_[c].push_back(spans_.size());
        spans_.push_back(modes);
        total_width_ += modes.width;
        break;
      }
    }
    codecs_.push_back(std::move(codec));
  }
}

Tensor TableEncoder::encode(const data::Table& table, Rng& rng) const {
  if (!table.same_schema(schema_)) {
    throw std::invalid_argument("TableEncoder::encode: schema mismatch with fitted table");
  }
  Tensor out(table.n_rows(), total_width_);
  for (std::size_t c = 0; c < table.n_cols(); ++c) {
    const auto& codec = codecs_[c];
    const auto& span_ids = column_spans_[c];
    for (std::size_t r = 0; r < table.n_rows(); ++r) {
      const double v = table.cell(r, c);
      switch (codec.type) {
        case ColumnType::kCategorical: {
          const Span& onehot = spans_[span_ids[0]];
          out(r, onehot.offset + static_cast<std::size_t>(v)) = 1.0f;
          break;
        }
        case ColumnType::kContinuous: {
          const Span& alpha = spans_[span_ids[0]];
          const Span& modes = spans_[span_ids[1]];
          const auto resp = codec.gmm.responsibilities(v);
          const std::size_t mode = rng.categorical(resp);
          const double normalized =
              (v - codec.gmm.means()[mode]) /
              (codec.normalization_factor * codec.gmm.stds()[mode]);
          out(r, alpha.offset) = static_cast<float>(std::clamp(normalized, -1.0, 1.0));
          out(r, modes.offset + mode) = 1.0f;
          break;
        }
        case ColumnType::kMixed: {
          const Span& alpha = spans_[span_ids[0]];
          const Span& modes = spans_[span_ids[1]];
          const std::size_t n_special = codec.special_values.size();
          std::size_t special_idx = n_special;
          for (std::size_t s = 0; s < n_special; ++s) {
            if (v == codec.special_values[s]) {
              special_idx = s;
              break;
            }
          }
          if (special_idx < n_special) {
            // Point-mass mode: alpha pinned to 0 as in CTAB-GAN.
            out(r, alpha.offset) = 0.0f;
            out(r, modes.offset + special_idx) = 1.0f;
          } else {
            const auto resp = codec.gmm.responsibilities(v);
            const std::size_t mode = rng.categorical(resp);
            const double normalized =
                (v - codec.gmm.means()[mode]) /
                (codec.normalization_factor * codec.gmm.stds()[mode]);
            out(r, alpha.offset) = static_cast<float>(std::clamp(normalized, -1.0, 1.0));
            out(r, modes.offset + n_special + mode) = 1.0f;
          }
          break;
        }
      }
    }
  }
  return out;
}

data::Table TableEncoder::decode(const Tensor& encoded) const {
  if (encoded.cols() != total_width_) {
    throw std::invalid_argument("TableEncoder::decode: width " +
                                std::to_string(encoded.cols()) + " != fitted " +
                                std::to_string(total_width_));
  }
  data::Table out(schema_.schema());
  out.reserve(encoded.rows());
  std::vector<double> row(schema_.n_cols());
  for (std::size_t r = 0; r < encoded.rows(); ++r) {
    for (std::size_t c = 0; c < schema_.n_cols(); ++c) {
      const auto& codec = codecs_[c];
      const auto& span_ids = column_spans_[c];
      auto argmax_span = [&](const Span& span) {
        std::size_t best = 0;
        float best_v = encoded(r, span.offset);
        for (std::size_t k = 1; k < span.width; ++k) {
          if (encoded(r, span.offset + k) > best_v) {
            best_v = encoded(r, span.offset + k);
            best = k;
          }
        }
        return best;
      };
      switch (codec.type) {
        case ColumnType::kCategorical: {
          row[c] = static_cast<double>(argmax_span(spans_[span_ids[0]]));
          break;
        }
        case ColumnType::kContinuous: {
          const Span& alpha_span = spans_[span_ids[0]];
          const std::size_t mode = argmax_span(spans_[span_ids[1]]);
          const double alpha =
              std::clamp<double>(encoded(r, alpha_span.offset), -1.0, 1.0);
          row[c] = alpha * codec.normalization_factor * codec.gmm.stds()[mode] +
                   codec.gmm.means()[mode];
          break;
        }
        case ColumnType::kMixed: {
          const Span& alpha_span = spans_[span_ids[0]];
          const std::size_t mode = argmax_span(spans_[span_ids[1]]);
          const std::size_t n_special = codec.special_values.size();
          if (mode < n_special) {
            row[c] = codec.special_values[mode];
          } else {
            const double alpha =
                std::clamp<double>(encoded(r, alpha_span.offset), -1.0, 1.0);
            const std::size_t g = mode - n_special;
            row[c] = alpha * codec.normalization_factor * codec.gmm.stds()[g] +
                     codec.gmm.means()[g];
          }
          break;
        }
      }
    }
    out.append_row(row);
  }
  return out;
}

namespace {

constexpr std::uint32_t kEncoderMagic = 0x45565447;  // "GTVE"
constexpr std::uint32_t kEncoderVersion = 1;
// Sanity bound on every element count in the blob; real tables are far
// smaller and this keeps a corrupt length from driving a huge allocation.
constexpr std::uint64_t kMaxEncoderItems = 1ull << 24;

std::uint64_t checked_count(bytes::Reader& r, const char* what) {
  const std::uint64_t n = r.u64(what);
  if (n > kMaxEncoderItems) {
    throw std::runtime_error(std::string("TableEncoder::deserialize: implausible count (") +
                             what + ")");
  }
  return n;
}

void put_doubles(std::vector<std::uint8_t>& out, const std::vector<double>& values) {
  bytes::put_u64(out, values.size());
  bytes::put_f64s(out, values.data(), values.size());
}

std::vector<double> read_doubles(bytes::Reader& r, const char* what) {
  const std::uint64_t n = checked_count(r, what);
  std::vector<double> values(static_cast<std::size_t>(n));
  r.f64s(values.data(), values.size(), what);
  return values;
}

}  // namespace

void TableEncoder::serialize(std::vector<std::uint8_t>& out) const {
  bytes::put_u32(out, kEncoderMagic);
  bytes::put_u32(out, kEncoderVersion);
  // Schema (zero-row table: only the column specs matter).
  bytes::put_u64(out, schema_.n_cols());
  for (const auto& spec : schema_.schema()) {
    bytes::put_string(out, spec.name);
    bytes::put_u32(out, static_cast<std::uint32_t>(spec.type));
    bytes::put_u64(out, spec.categories.size());
    for (const auto& cat : spec.categories) bytes::put_string(out, cat);
    put_doubles(out, spec.special_values);
  }
  // Per-column codecs.
  bytes::put_u64(out, codecs_.size());
  for (const auto& codec : codecs_) {
    bytes::put_u32(out, static_cast<std::uint32_t>(codec.type));
    bytes::put_u64(out, codec.gmm.n_modes());
    const GaussianMixture1D& gmm = codec.gmm;
    bytes::put_f64s(out, gmm.weights().data(), gmm.weights().size());
    bytes::put_f64s(out, gmm.means().data(), gmm.means().size());
    bytes::put_f64s(out, gmm.stds().data(), gmm.stds().size());
    put_doubles(out, codec.special_values);
    bytes::put_u64(out, codec.cardinality);
    bytes::put_f64(out, codec.normalization_factor);
  }
  // Span layout.
  bytes::put_u64(out, spans_.size());
  for (const auto& span : spans_) {
    bytes::put_u64(out, span.offset);
    bytes::put_u64(out, span.width);
    bytes::put_u32(out, static_cast<std::uint32_t>(span.activation));
    bytes::put_u64(out, span.source_column);
  }
  bytes::put_u64(out, column_spans_.size());
  for (const auto& ids : column_spans_) {
    bytes::put_u64(out, ids.size());
    for (std::size_t id : ids) bytes::put_u64(out, id);
  }
  // Conditional-vector metadata.
  bytes::put_u64(out, discrete_spans_.size());
  for (const auto& ds : discrete_spans_) {
    bytes::put_u64(out, ds.source_column);
    bytes::put_u64(out, ds.span_offset);
    bytes::put_u64(out, ds.cardinality);
    bytes::put_u64(out, ds.frequencies.size());
    for (std::size_t f : ds.frequencies) bytes::put_u64(out, f);
  }
  bytes::put_u64(out, total_width_);
}

TableEncoder TableEncoder::deserialize(bytes::Reader& r) {
  if (r.u32("magic") != kEncoderMagic) {
    throw std::runtime_error("TableEncoder::deserialize: bad magic");
  }
  if (r.u32("version") != kEncoderVersion) {
    throw std::runtime_error("TableEncoder::deserialize: unsupported version");
  }
  TableEncoder enc;
  const std::uint64_t n_cols = checked_count(r, "schema columns");
  std::vector<data::ColumnSpec> schema;
  schema.reserve(static_cast<std::size_t>(n_cols));
  for (std::uint64_t c = 0; c < n_cols; ++c) {
    data::ColumnSpec spec;
    spec.name = r.str("column name");
    const std::uint32_t type = r.u32("column type");
    if (type > 2) throw std::runtime_error("TableEncoder::deserialize: bad column type");
    spec.type = static_cast<ColumnType>(type);
    const std::uint64_t n_cats = checked_count(r, "categories");
    spec.categories.reserve(static_cast<std::size_t>(n_cats));
    for (std::uint64_t i = 0; i < n_cats; ++i) spec.categories.push_back(r.str("category"));
    spec.special_values = read_doubles(r, "schema special values");
    schema.push_back(std::move(spec));
  }
  enc.schema_ = data::Table(std::move(schema));
  const std::uint64_t n_codecs = checked_count(r, "codecs");
  for (std::uint64_t c = 0; c < n_codecs; ++c) {
    ColumnCodec codec;
    const std::uint32_t type = r.u32("codec type");
    if (type > 2) throw std::runtime_error("TableEncoder::deserialize: bad codec type");
    codec.type = static_cast<ColumnType>(type);
    const std::uint64_t n_modes = checked_count(r, "gmm modes");
    if (n_modes > 0) {
      std::vector<double> weights(static_cast<std::size_t>(n_modes));
      std::vector<double> means(static_cast<std::size_t>(n_modes));
      std::vector<double> stds(static_cast<std::size_t>(n_modes));
      r.f64s(weights.data(), weights.size(), "gmm weight");
      r.f64s(means.data(), means.size(), "gmm mean");
      r.f64s(stds.data(), stds.size(), "gmm std");
      codec.gmm = GaussianMixture1D::from_components(std::move(weights), std::move(means),
                                                     std::move(stds));
    }
    codec.special_values = read_doubles(r, "codec special values");
    codec.cardinality = static_cast<std::size_t>(r.u64("cardinality"));
    codec.normalization_factor = r.f64("normalization factor");
    enc.codecs_.push_back(std::move(codec));
  }
  const std::uint64_t n_spans = checked_count(r, "spans");
  for (std::uint64_t i = 0; i < n_spans; ++i) {
    Span span;
    span.offset = static_cast<std::size_t>(r.u64("span offset"));
    span.width = static_cast<std::size_t>(r.u64("span width"));
    const std::uint32_t act = r.u32("span activation");
    if (act > 1) throw std::runtime_error("TableEncoder::deserialize: bad activation");
    span.activation = static_cast<Activation>(act);
    span.source_column = static_cast<std::size_t>(r.u64("span source column"));
    enc.spans_.push_back(span);
  }
  const std::uint64_t n_col_spans = checked_count(r, "column spans");
  for (std::uint64_t i = 0; i < n_col_spans; ++i) {
    const std::uint64_t n_ids = checked_count(r, "column span ids");
    std::vector<std::size_t> ids;
    ids.reserve(static_cast<std::size_t>(n_ids));
    for (std::uint64_t k = 0; k < n_ids; ++k) {
      const std::uint64_t id = r.u64("span id");
      if (id >= enc.spans_.size()) {
        throw std::runtime_error("TableEncoder::deserialize: span id out of range");
      }
      ids.push_back(static_cast<std::size_t>(id));
    }
    enc.column_spans_.push_back(std::move(ids));
  }
  const std::uint64_t n_discrete = checked_count(r, "discrete spans");
  for (std::uint64_t i = 0; i < n_discrete; ++i) {
    DiscreteSpan ds;
    ds.source_column = static_cast<std::size_t>(r.u64("discrete source column"));
    ds.span_offset = static_cast<std::size_t>(r.u64("discrete span offset"));
    ds.cardinality = static_cast<std::size_t>(r.u64("discrete cardinality"));
    const std::uint64_t n_freq = checked_count(r, "discrete frequencies");
    if (n_freq != ds.cardinality) {
      throw std::runtime_error("TableEncoder::deserialize: frequency count mismatch");
    }
    ds.frequencies.reserve(static_cast<std::size_t>(n_freq));
    for (std::uint64_t k = 0; k < n_freq; ++k) {
      ds.frequencies.push_back(static_cast<std::size_t>(r.u64("frequency")));
    }
    enc.discrete_spans_.push_back(std::move(ds));
  }
  enc.total_width_ = static_cast<std::size_t>(r.u64("total width"));
  if (enc.codecs_.size() != enc.schema_.n_cols() ||
      enc.column_spans_.size() != enc.schema_.n_cols()) {
    throw std::runtime_error("TableEncoder::deserialize: inconsistent column counts");
  }
  return enc;
}

}  // namespace gtv::encode
