// gtv::serve — checkpoint-backed batched synthesis engine.
//
// A Synthesizer rebuilds the split generator stack (G^t + per-client
// G^b_i + encoders) from a Checkpoint and samples joined tables from it.
// Sampling is split in two halves so a serving daemon can coalesce many
// requests into one generator forward:
//
//   plan(rows, seed[, cond]) — draws EVERY random value the request will
//     ever consume (conditional-vector choices, generator noise, gumbel
//     noise for the one-hot spans) from a private Rng(seed), in a fixed
//     per-row order. Thread-safe: reads only immutable model state.
//
//   run(input, gumbel) — one batched forward + activation + decode over
//     pre-planned rows. Every op on this path is row-independent
//     (eval-mode batchnorm uses running statistics, activations and
//     decode work row-by-row, the tiled gemm is bit-identical per output
//     element), so row r of the output depends only on row r of the
//     inputs. That is the determinism contract: a seeded request yields
//     byte-identical rows whether it runs alone or coalesced into any
//     batch, in-process or over TCP.
//
//   sample(rows, seed[, cond]) = plan + run — the single-client
//     reference path the parity tests compare against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/checkpoint.h"

namespace gtv::serve {

class Synthesizer {
 public:
  // Rebuilds all nets and encoders. Throws CheckpointError when any
  // weight set does not fit its declared architecture or the parts are
  // mutually inconsistent (slice widths vs G^t output width).
  explicit Synthesizer(const Checkpoint& checkpoint);

  std::uint64_t model_hash() const { return model_hash_; }
  std::size_t noise_dim() const { return noise_dim_; }
  std::size_t n_clients() const { return clients_.size(); }
  // Joined output schema (clients' shards concatenated in client order).
  const std::vector<data::ColumnSpec>& schema() const { return schema_; }
  std::size_t n_cols() const { return schema_.size(); }

  // Optional conditioning: pin the conditional vector to one category of
  // one categorical column for every row of the request.
  struct Condition {
    std::string column;
    std::string category;
  };

  // Pre-drawn randomness for one request. `input` is rows x
  // (noise_dim + total_cv); `gumbel` holds one rows x encoded_width
  // tensor per client (zeros on tanh spans).
  struct Plan {
    std::size_t rows = 0;
    Tensor input;
    std::vector<Tensor> gumbel;
  };

  // Draws the request's full random stream from Rng(seed). Throws
  // std::invalid_argument for an unknown column/category or a
  // non-categorical condition column.
  Plan plan(std::size_t rows, std::uint64_t seed, const Condition* cond = nullptr) const;

  // One batched generator pass over pre-planned rows; returns the decoded
  // joined table. Not thread-safe — call from one thread (the batcher).
  data::Table run(const Tensor& input, const std::vector<Tensor>& gumbel);

  // Reference path: plan + run in one call.
  data::Table sample(std::size_t rows, std::uint64_t seed, const Condition* cond = nullptr);

 private:
  struct ClientModel {
    std::unique_ptr<gan::GeneratorNet> g_bottom;
    encode::TableEncoder encoder;
    std::size_t cv_width = 0;
    std::size_t g_slice_width = 0;
    std::size_t cv_offset = 0;  // this client's segment in the global CV
    // Per discrete span: offset inside the client's CV segment and the
    // training category frequencies (ConditionalSampler::sample_original
    // draws from exactly these weights).
    std::vector<std::size_t> span_cv_offsets;
    std::vector<std::vector<double>> span_frequencies;
  };

  void fill_cv_draws(Tensor& input, std::size_t row, Rng& rng) const;

  std::uint64_t model_hash_ = 0;
  std::size_t noise_dim_ = 0;
  float gumbel_tau_ = 0.2f;
  std::size_t total_cv_ = 0;
  std::unique_ptr<gan::GeneratorNet> g_top_;
  std::vector<ClientModel> clients_;
  std::vector<double> client_weights_;  // P_r reconstructed from slice widths
  std::vector<data::ColumnSpec> schema_;
  // Joined column index -> (client, column inside the client's shard).
  std::vector<std::pair<std::size_t, std::size_t>> column_owner_;
};

// The model identity a checkpoint is stamped with and gtv-node reports:
// hash_table of the 64 rows Synthesizer(checkpoint) samples with the
// checkpoint's own seed. It fingerprints the assembled weights + encoders,
// so the same training gets the same hash in process and over TCP.
std::uint64_t model_hash_of(const Checkpoint& checkpoint);

}  // namespace gtv::serve
