#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "autograd/autograd.h"

namespace gtv::serve {

Synthesizer::Synthesizer(const Checkpoint& checkpoint)
    : model_hash_(checkpoint.model_hash),
      noise_dim_(static_cast<std::size_t>(checkpoint.noise_dim)),
      gumbel_tau_(checkpoint.gumbel_tau) {
  if (checkpoint.clients.empty()) throw CheckpointError("Synthesizer: checkpoint has no clients");
  if (noise_dim_ == 0) throw CheckpointError("Synthesizer: zero noise_dim");
  if (!(gumbel_tau_ > 0.0f)) throw CheckpointError("Synthesizer: non-positive gumbel_tau");

  g_top_ = build_generator(checkpoint.g_top);

  std::size_t g_total = 0;
  for (const auto& part : checkpoint.clients) {
    ClientModel client;
    client.cv_width = static_cast<std::size_t>(part.cv_width);
    client.g_slice_width = static_cast<std::size_t>(part.g_slice_width);
    client.cv_offset = total_cv_;
    client.g_bottom = build_generator(part.g_bottom);
    client.encoder = part.encoder;
    if (client.g_bottom->out_features() != client.encoder.total_width()) {
      throw CheckpointError("Synthesizer: G^b output width does not match encoder width");
    }
    if (part.g_bottom.arch.in_features != part.g_slice_width) {
      throw CheckpointError("Synthesizer: G^b input width does not match slice width");
    }
    // CV layout inside this client's segment: cumulative cardinalities in
    // discrete-span order, matching ConditionalSampler's cv_offsets.
    std::size_t local_cv = 0;
    for (const auto& ds : client.encoder.discrete_spans()) {
      client.span_cv_offsets.push_back(local_cv);
      local_cv += ds.cardinality;
      std::vector<double> freq(ds.frequencies.size());
      for (std::size_t k = 0; k < freq.size(); ++k) {
        freq[k] = static_cast<double>(ds.frequencies[k]);
      }
      client.span_frequencies.push_back(std::move(freq));
    }
    if (local_cv != client.cv_width) {
      throw CheckpointError("Synthesizer: discrete spans do not match cv_width");
    }
    total_cv_ += client.cv_width;
    g_total += client.g_slice_width;
    client_weights_.push_back(static_cast<double>(client.g_slice_width));

    const std::size_t client_index = clients_.size();
    const auto& shard_schema = client.encoder.schema_table().schema();
    for (std::size_t c = 0; c < shard_schema.size(); ++c) {
      schema_.push_back(shard_schema[c]);
      column_owner_.emplace_back(client_index, c);
    }
    clients_.push_back(std::move(client));
  }
  if (g_top_->out_features() != g_total) {
    throw CheckpointError("Synthesizer: G^t output width does not match slice widths");
  }
  if (checkpoint.g_top.arch.in_features != noise_dim_ + total_cv_) {
    throw CheckpointError("Synthesizer: G^t input width does not match noise_dim + cv");
  }
}

void Synthesizer::fill_cv_draws(Tensor& input, std::size_t row, Rng& rng) const {
  // Mirrors the trainer's synthesis path: pick the CV-contributing client
  // p ~ P_r, then draw span + category from the training frequencies
  // (ConditionalSampler::sample_original). A client without discrete
  // columns leaves its segment all-zero, like an empty local CV.
  const std::size_t p = rng.categorical(client_weights_);
  const ClientModel& client = clients_[p];
  if (client.span_frequencies.empty()) return;
  const std::size_t span = rng.uniform_index(client.span_frequencies.size());
  const std::size_t category = rng.categorical(client.span_frequencies[span]);
  input(row, noise_dim_ + client.cv_offset + client.span_cv_offsets[span] + category) = 1.0f;
}

Synthesizer::Plan Synthesizer::plan(std::size_t rows, std::uint64_t seed,
                                    const Condition* cond) const {
  // Resolve the condition before drawing anything so a bad request fails
  // without consuming entropy.
  std::size_t cond_position = 0;
  if (cond != nullptr) {
    std::size_t joined = schema_.size();
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      if (schema_[c].name == cond->column) {
        joined = c;
        break;
      }
    }
    if (joined == schema_.size()) {
      throw std::invalid_argument("sample: unknown condition column '" + cond->column + "'");
    }
    const auto [client_index, local_col] = column_owner_[joined];
    const ClientModel& client = clients_[client_index];
    const auto& discrete = client.encoder.discrete_spans();
    std::size_t span = discrete.size();
    for (std::size_t s = 0; s < discrete.size(); ++s) {
      if (discrete[s].source_column == local_col) {
        span = s;
        break;
      }
    }
    if (span == discrete.size()) {
      throw std::invalid_argument("sample: condition column '" + cond->column +
                                  "' is not categorical");
    }
    const auto& categories = schema_[joined].categories;
    const auto cat_it = std::find(categories.begin(), categories.end(), cond->category);
    if (cat_it == categories.end()) {
      throw std::invalid_argument("sample: unknown category '" + cond->category +
                                  "' for column '" + cond->column + "'");
    }
    cond_position = client.cv_offset + client.span_cv_offsets[span] +
                    static_cast<std::size_t>(cat_it - categories.begin());
  }

  Plan out;
  out.rows = rows;
  out.input = Tensor::zeros(rows, noise_dim_ + total_cv_);
  out.gumbel.reserve(clients_.size());
  for (const auto& client : clients_) {
    out.gumbel.push_back(Tensor::zeros(rows, client.encoder.total_width()));
  }

  // Fixed per-row draw order: (1) conditional vector, (2) generator noise,
  // (3) gumbel noise per client in span order. Everything a row needs
  // comes from this one stream, so coalescing cannot perturb it.
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    if (cond != nullptr) {
      out.input(r, noise_dim_ + cond_position) = 1.0f;
    } else {
      fill_cv_draws(out.input, r, rng);
    }
    for (std::size_t d = 0; d < noise_dim_; ++d) {
      out.input(r, d) = static_cast<float>(rng.normal());
    }
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      for (const auto& span : clients_[i].encoder.spans()) {
        if (span.activation != encode::Activation::kSoftmax) continue;
        for (std::size_t c = 0; c < span.width; ++c) {
          // Same rejection loop as gan::gumbel_softmax.
          double u = 0.0;
          do {
            u = rng.uniform();
          } while (u <= 1e-12);
          out.gumbel[i](r, span.offset + c) = static_cast<float>(-std::log(-std::log(u)));
        }
      }
    }
  }
  return out;
}

data::Table Synthesizer::run(const Tensor& input, const std::vector<Tensor>& gumbel) {
  if (gumbel.size() != clients_.size()) {
    throw std::invalid_argument("Synthesizer::run: gumbel tensor per client required");
  }
  const std::size_t rows = input.rows();
  ag::NoGradGuard no_grad;
  Tensor interface = g_top_->forward(ag::Var(input)).value();

  std::vector<data::Table> shards;
  shards.reserve(clients_.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ClientModel& client = clients_[i];
    Tensor slice = interface.slice_cols(offset, offset + client.g_slice_width);
    offset += client.g_slice_width;
    Tensor logits = client.g_bottom->forward(ag::Var(std::move(slice))).value();

    // Per-span activations with the pre-drawn gumbel noise. Row-wise plain
    // tensor math — no RNG on this path.
    Tensor activated(rows, client.encoder.total_width());
    for (const auto& span : client.encoder.spans()) {
      if (span.activation == encode::Activation::kTanh) {
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = span.offset; c < span.offset + span.width; ++c) {
            activated(r, c) = std::tanh(logits(r, c));
          }
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          float max_z = -std::numeric_limits<float>::infinity();
          for (std::size_t c = span.offset; c < span.offset + span.width; ++c) {
            const float z = (logits(r, c) + gumbel[i](r, c)) / gumbel_tau_;
            activated(r, c) = z;
            max_z = std::max(max_z, z);
          }
          float total = 0.0f;
          for (std::size_t c = span.offset; c < span.offset + span.width; ++c) {
            activated(r, c) = std::exp(activated(r, c) - max_z);
            total += activated(r, c);
          }
          for (std::size_t c = span.offset; c < span.offset + span.width; ++c) {
            activated(r, c) /= total;
          }
        }
      }
    }
    shards.push_back(client.encoder.decode(activated));
  }
  return data::Table::concat_columns(shards);
}

data::Table Synthesizer::sample(std::size_t rows, std::uint64_t seed, const Condition* cond) {
  Plan p = plan(rows, seed, cond);
  return run(p.input, p.gumbel);
}

std::uint64_t model_hash_of(const Checkpoint& checkpoint) {
  return hash_table(Synthesizer(checkpoint).sample(64, checkpoint.seed));
}

}  // namespace gtv::serve
