// A GTV client: owns one vertical shard of the training table, the bottom
// generator G^b_i and bottom discriminator D^b_i, its local encoder and
// conditional-vector sampler, and the shared-seed Shuffle.
//
// All tensors returned by / passed into the forward/backward methods are
// plain values — the trainer routes them through the TrafficMeter, which is
// the simulated network boundary. Autograd graphs never cross parties;
// backward passes resume from explicit gradient seeds received over the
// wire (split backprop).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/options.h"
#include "data/table.h"
#include "encode/cond.h"
#include "encode/encoder.h"
#include "gan/ctabgan.h"
#include "nn/adam.h"

namespace gtv::core {

class GtvClient {
 public:
  GtvClient(std::size_t id, data::Table local, const GtvOptions& options,
            std::size_t g_slice_width, std::size_t d_out_width, std::uint64_t seed);

  std::size_t id() const { return id_; }
  std::size_t n_features() const { return table_.n_cols(); }
  std::size_t n_rows() const { return table_.n_rows(); }
  std::size_t encoded_width() const { return encoder_.total_width(); }
  std::size_t cv_width() const { return cond_->cv_width(); }
  std::size_t d_out_width() const { return d_out_width_; }

  // --- conditional-vector duty (when this client is the selected p) ---------
  encode::ConditionalSampler::Sample sample_cv(std::size_t batch);
  void set_pending_condition(const encode::ConditionalSampler::Sample& sample);

  // --- generator path ----------------------------------------------------------
  Tensor forward_fake(const Tensor& g_slice, bool train_generator);
  Tensor backward_generator(const Tensor& grad_d_out);
  void backward_fake_discriminator(const Tensor& grad_d_out);

  // --- real path (discriminator phase) -------------------------------------------
  Tensor forward_real_all();
  Tensor forward_real_selected(const std::vector<std::size_t>& idx);
  void backward_real(const Tensor& grad_d_out);

  // --- optimization ----------------------------------------------------------------
  void zero_grad_discriminator() { adam_d_->zero_grad(); }
  void zero_grad_generator() { adam_g_->zero_grad(); }
  void step_discriminator() { adam_d_->step(); }
  void step_generator() { adam_g_->step(); }

  // --- training-with-shuffling --------------------------------------------------------
  void shuffle_local_data(std::uint64_t round_seed);

  // --- differential privacy ------------------------------------------------------------
  // Adds Gaussian noise (options.dp_noise_std) to an outbound activation or
  // gradient, drawn from this client's own dp stream — never from a shared
  // trainer-owned RNG, so inproc and TCP runs privatize identically. No-op
  // when dp_noise_std == 0.
  Tensor privatize(Tensor t);

  // --- elastic federation (train-resume) ----------------------------------------------
  // Reorders the current rows so row r holds original row target[r] again —
  // a rejoining client rebuilds its shard from data (identity order) and
  // replays the net effect of every pre-crash shuffle in one permutation.
  void restore_row_order(const std::vector<std::size_t>& target);
  // Drops any half-finished split-backprop state (a crash can interrupt a
  // round between forward and backward; resume restarts the whole round).
  void clear_pending();

  // --- evaluation and checkpoint access (not part of the deployed protocol) ---
  // Bottom modules, exposed for checkpointing (serve::snapshot_net, resume).
  nn::Module& discriminator_bottom() { return *d_bottom_; }
  nn::Module& generator_bottom() { return *g_bottom_; }
  std::vector<ag::Var> discriminator_parameters() { return d_bottom_->parameters(); }
  // Maps current row indices to the pre-training ("original") row identity.
  // Clients can always do this because they know every shuffle seed — which
  // is exactly why P2P index sharing leaks (§3.1.6).
  std::vector<std::size_t> original_rows(const std::vector<std::size_t>& idx) const;
  const data::Table& local_table() const { return table_; }
  const encode::TableEncoder& encoder() const { return encoder_; }
  // Optimizer handles for health monitoring (last_step_stats of G^b / D^b).
  nn::Adam& adam_generator() { return *adam_g_; }
  nn::Adam& adam_discriminator() { return *adam_d_; }
  // Local RNG, exposed for train-resume state capture.
  Rng& rng() { return rng_; }
  // DP noise stream, exposed for train-resume state capture.
  Rng& dp_rng() { return dp_rng_; }
  const std::vector<std::size_t>& original_row_order() const { return original_row_; }
  std::size_t generator_parameter_count();
  std::size_t discriminator_parameter_count();

 private:
  ag::Var run_generator_bottom(const ag::Var& slice_in, ag::Var* raw_logits);

  std::size_t id_;
  data::Table table_;
  GtvOptions options_;
  std::size_t d_out_width_;
  Rng rng_;
  Rng dp_rng_;  // per-client DP noise stream, derived from the party seed
  encode::TableEncoder encoder_;
  std::unique_ptr<encode::ConditionalSampler> cond_;
  Tensor encoded_;

  std::unique_ptr<gan::GeneratorNet> g_bottom_;
  std::unique_ptr<gan::DiscriminatorNet> d_bottom_;
  std::unique_ptr<nn::Adam> adam_g_;
  std::unique_ptr<nn::Adam> adam_d_;

  // Split-backprop state retained between forward and backward calls.
  struct PendingGenerator {
    ag::Var slice_in;  // leaf over the received split
    ag::Var logits;    // raw generator output (conditional loss target)
    ag::Var d_out;
  };
  std::optional<PendingGenerator> pending_generator_;
  std::optional<ag::Var> pending_fake_d_;
  std::optional<ag::Var> pending_real_;
  std::vector<std::size_t> original_row_;  // original identity of each current row
  std::optional<encode::ConditionalSampler::Sample> pending_condition_;
};

}  // namespace gtv::core
