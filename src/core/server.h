// The GTV server (trusted third party): owns the top generator G^t, top
// discriminator D^t, the conditional-vector filter D^s, and the Split /
// Concat bookkeeping. It selects the CV-contributing client each step
// (weighted by the feature-ratio vector P_r) and assembles the global
// conditional vector from the selected client's local CV.
//
// The server never sees raw client rows, client encoders, or the shuffle
// seed — only intermediate logits, conditional vectors and the selected
// data indices, exactly as in Algorithm 1.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/options.h"
#include "gan/ctabgan.h"
#include "nn/adam.h"

namespace gtv::core {

class GtvServer {
 public:
  struct ClientInfo {
    std::size_t cv_width = 0;       // width of the client's local CV segment
    std::size_t g_slice_width = 0;  // share of the split generator logits
    std::size_t d_out_width = 0;    // width of the client's D^b output
  };

  GtvServer(const GtvOptions& options, std::vector<ClientInfo> clients, std::uint64_t seed);

  std::size_t n_clients() const { return clients_.size(); }
  std::size_t total_cv_width() const { return total_cv_; }
  const std::vector<double>& ratio() const { return ratio_; }

  // CVGeneration: pick the contributing client p ~ P_r.
  std::size_t select_cv_client();

  // Places client p's local CV rows into the global CV layout (zeros for
  // all other clients' segments).
  Tensor assemble_global_cv(std::size_t p, const Tensor& cv_p, std::size_t batch) const;

  // --- generator top -------------------------------------------------------------
  // Runs G^t(noise ++ cv) and splits the interface logits by P_r. With
  // retain_graph the split Vars are kept so generator_backward can resume
  // from the slice gradients returned by the clients.
  std::vector<Tensor> generator_forward(const Tensor& global_cv, bool retain_graph);
  void generator_backward(const std::vector<Tensor>& slice_grads);

  // --- discriminator top ----------------------------------------------------------
  // D^t(Concat(client logits ..., D^s(cv))) -> batch x 1 critic scores.
  // Graph flows through D^t / D^s parameters and through the given Vars.
  ag::Var critic_top(const std::vector<ag::Var>& client_logits, const ag::Var& global_cv);

  // --- optimization ------------------------------------------------------------------
  void zero_grad_generator() { adam_g_->zero_grad(); }
  void step_generator() { adam_g_->step(); }
  void zero_grad_discriminator() { adam_d_->zero_grad(); }
  void step_discriminator() { adam_d_->step(); }

  // Optimizer handles for health monitoring (last_step_stats of G^t / D^t+D^s).
  nn::Adam& adam_generator() { return *adam_g_; }
  nn::Adam& adam_discriminator() { return *adam_d_; }

  Rng& rng() { return rng_; }
  // Top generator module, exposed for checkpointing (serve::snapshot_net).
  nn::Module& generator_top() { return *g_top_; }
  // Top discriminator / CV filter, exposed for train-resume state capture.
  // d_s() is null when the run has no discrete columns.
  nn::Module& discriminator_top() { return *d_top_; }
  nn::Linear* d_s() { return d_s_.get(); }
  // Drops half-finished split state; resume restarts the whole round.
  void clear_pending() { pending_slices_.reset(); }
  std::size_t generator_parameter_count() { return g_top_->parameter_count(); }
  std::size_t discriminator_parameter_count();
  // All top-side critic parameters (D^t and D^s), for weight clipping.
  std::vector<ag::Var> discriminator_parameters();

 private:
  GtvOptions options_;
  std::vector<ClientInfo> clients_;
  std::vector<double> ratio_;
  std::size_t total_cv_ = 0;
  Rng rng_;

  std::unique_ptr<gan::GeneratorNet> g_top_;
  std::unique_ptr<gan::DiscriminatorNet> d_top_;
  std::unique_ptr<nn::Linear> d_s_;  // null when there are no discrete columns
  std::unique_ptr<nn::Adam> adam_g_;
  std::unique_ptr<nn::Adam> adam_d_;

  // Split state retained between generator_forward and generator_backward.
  std::optional<std::vector<ag::Var>> pending_slices_;
};

}  // namespace gtv::core
