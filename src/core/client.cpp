#include "core/client.h"

#include <stdexcept>

#include "gan/losses.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gtv::core {

using ag::Var;

namespace {

// Gated instrumentation (only samples the clock under GTV_METRICS /
// GTV_TRACE): per-call duration histograms for the client-side hot paths.
// Aggregated across clients — per-client breakdown lives in the trace.
obs::Histogram& client_histogram(const char* name) {
  return obs::MetricsRegistry::instance().histogram(std::string("gtv.client.") + name +
                                                    "_ms");
}

}  // namespace

GtvClient::GtvClient(std::size_t id, data::Table local, const GtvOptions& options,
                     std::size_t g_slice_width, std::size_t d_out_width, std::uint64_t seed)
    : id_(id),
      table_(std::move(local)),
      options_(options),
      d_out_width_(d_out_width),
      rng_(seed),
      dp_rng_(seed ^ 0xd9b0a5e5ULL) {
  if (table_.n_rows() == 0 || table_.n_cols() == 0) {
    throw std::invalid_argument("GtvClient: empty local table");
  }
  encoder_.fit(table_, options_.gan.encoder, rng_);
  cond_ = std::make_unique<encode::ConditionalSampler>(encoder_, table_);
  encoded_ = encoder_.encode(table_, rng_);
  original_row_.resize(table_.n_rows());
  for (std::size_t r = 0; r < original_row_.size(); ++r) original_row_[r] = r;

  g_bottom_ = std::make_unique<gan::GeneratorNet>(g_slice_width, g_slice_width,
                                                  options_.partition.g_bottom,
                                                  encoder_.total_width(), rng_);
  d_bottom_ = std::make_unique<gan::DiscriminatorNet>(
      encoder_.total_width(), d_out_width, options_.partition.d_bottom, d_out_width, rng_,
      options_.gan.leaky_slope, options_.gan.dropout);
  adam_g_ = std::make_unique<nn::Adam>(g_bottom_->parameters(), options_.gan.adam);
  adam_d_ = std::make_unique<nn::Adam>(d_bottom_->parameters(), options_.gan.adam);
}

encode::ConditionalSampler::Sample GtvClient::sample_cv(std::size_t batch) {
  return cond_->sample_train(batch, rng_);
}

void GtvClient::set_pending_condition(const encode::ConditionalSampler::Sample& sample) {
  pending_condition_ = sample;
}

Var GtvClient::run_generator_bottom(const Var& slice_in, Var* raw_logits) {
  Var logits = g_bottom_->forward(slice_in);
  if (raw_logits != nullptr) *raw_logits = logits;
  return gan::apply_output_activations(logits, encoder_.spans(), options_.gan.gumbel_tau,
                                       rng_);
}

Tensor GtvClient::forward_fake(const Tensor& g_slice, bool train_generator) {
  obs::PartyScope party(static_cast<int>(id_) + 1);
  static obs::Histogram& hist = client_histogram("forward_fake");
  obs::ScopedTimer timer("client.forward_fake", &hist);
  if (train_generator) {
    if (pending_generator_) {
      throw std::logic_error("GtvClient::forward_fake: generator backward still pending");
    }
    PendingGenerator pending;
    pending.slice_in = Var(g_slice, /*requires_grad=*/true);
    Var fake = run_generator_bottom(pending.slice_in, &pending.logits);
    pending.d_out = d_bottom_->forward(fake);
    Tensor out = pending.d_out.value();
    pending_generator_ = std::move(pending);
    return out;
  }
  // Discriminator phase: the generator is frozen; only D^b needs a graph.
  Tensor fake_value;
  {
    ag::NoGradGuard no_grad;
    fake_value = run_generator_bottom(Var(g_slice), nullptr).value();
  }
  if (pending_fake_d_) {
    throw std::logic_error("GtvClient::forward_fake: discriminator backward still pending");
  }
  pending_fake_d_ = d_bottom_->forward(ag::constant(fake_value));
  return pending_fake_d_->value();
}

Tensor GtvClient::backward_generator(const Tensor& grad_d_out) {
  obs::PartyScope party(static_cast<int>(id_) + 1);
  static obs::Histogram& hist = client_histogram("backward_generator");
  obs::ScopedTimer timer("client.backward_generator", &hist);
  if (!pending_generator_) {
    throw std::logic_error("GtvClient::backward_generator: no pending forward");
  }
  PendingGenerator pending = std::move(*pending_generator_);
  pending_generator_.reset();
  ag::backward(pending.d_out, Var(grad_d_out));
  if (pending_condition_ && cond_->has_discrete()) {
    Var cond_term = gan::conditional_loss(
        pending.logits, cond_->target_mask(*pending_condition_), encoder_.discrete_spans());
    ag::backward(cond_term);
  }
  pending_condition_.reset();
  return pending.slice_in.grad();
}

void GtvClient::backward_fake_discriminator(const Tensor& grad_d_out) {
  obs::PartyScope party(static_cast<int>(id_) + 1);
  static obs::Histogram& hist = client_histogram("backward_fake_discriminator");
  obs::ScopedTimer timer("client.backward_fake_discriminator", &hist);
  if (!pending_fake_d_) {
    throw std::logic_error("GtvClient::backward_fake_discriminator: no pending forward");
  }
  Var d_out = std::move(*pending_fake_d_);
  pending_fake_d_.reset();
  ag::backward(d_out, Var(grad_d_out));
}

Tensor GtvClient::forward_real_all() {
  obs::PartyScope party(static_cast<int>(id_) + 1);
  static obs::Histogram& hist = client_histogram("forward_real");
  obs::ScopedTimer timer("client.forward_real_all", &hist);
  if (pending_real_) {
    throw std::logic_error("GtvClient::forward_real_all: real backward still pending");
  }
  pending_real_ = d_bottom_->forward(ag::constant(encoded_));
  return pending_real_->value();
}

Tensor GtvClient::forward_real_selected(const std::vector<std::size_t>& idx) {
  obs::PartyScope party(static_cast<int>(id_) + 1);
  static obs::Histogram& hist = client_histogram("forward_real");
  obs::ScopedTimer timer("client.forward_real_selected", &hist);
  if (pending_real_) {
    throw std::logic_error("GtvClient::forward_real_selected: real backward still pending");
  }
  pending_real_ = d_bottom_->forward(ag::constant(encoded_.gather_rows(idx)));
  return pending_real_->value();
}

void GtvClient::backward_real(const Tensor& grad_d_out) {
  obs::PartyScope party(static_cast<int>(id_) + 1);
  static obs::Histogram& hist = client_histogram("backward_real");
  obs::ScopedTimer timer("client.backward_real", &hist);
  if (!pending_real_) {
    throw std::logic_error("GtvClient::backward_real: no pending forward");
  }
  Var d_out = std::move(*pending_real_);
  pending_real_.reset();
  ag::backward(d_out, Var(grad_d_out));
}

Tensor GtvClient::privatize(Tensor t) {
  if (options_.dp_noise_std <= 0.0f) return t;
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] += static_cast<float>(dp_rng_.normal(0.0, options_.dp_noise_std));
  }
  return t;
}

void GtvClient::restore_row_order(const std::vector<std::size_t>& target) {
  if (target.size() != original_row_.size()) {
    throw std::invalid_argument("GtvClient::restore_row_order: row count mismatch");
  }
  // Current row r holds original row original_row_[r]; we want row r to hold
  // original row target[r]. perm[r] = invP[target[r]] with invP the inverse
  // of the current placement, so new[r] = old[perm[r]] lands correctly.
  std::vector<std::size_t> inverse(original_row_.size());
  for (std::size_t r = 0; r < original_row_.size(); ++r) {
    const std::size_t original = original_row_[r];
    if (original >= inverse.size()) {
      throw std::invalid_argument("GtvClient::restore_row_order: corrupt current order");
    }
    inverse[original] = r;
  }
  std::vector<std::size_t> perm(target.size());
  for (std::size_t r = 0; r < target.size(); ++r) {
    if (target[r] >= inverse.size()) {
      throw std::invalid_argument("GtvClient::restore_row_order: row index out of range");
    }
    perm[r] = inverse[target[r]];
  }
  table_.permute_rows(perm);
  encoded_ = encoded_.gather_rows(perm);
  original_row_.assign(target.begin(), target.end());
  cond_ = std::make_unique<encode::ConditionalSampler>(encoder_, table_);
}

void GtvClient::clear_pending() {
  pending_generator_.reset();
  pending_fake_d_.reset();
  pending_real_.reset();
  pending_condition_.reset();
}

void GtvClient::shuffle_local_data(std::uint64_t round_seed) {
  Rng shuffle_rng(round_seed);
  const auto perm = shuffle_rng.permutation(table_.n_rows());
  table_.permute_rows(perm);
  encoded_ = encoded_.gather_rows(perm);
  std::vector<std::size_t> next(original_row_.size());
  for (std::size_t r = 0; r < perm.size(); ++r) next[r] = original_row_[perm[r]];
  original_row_ = std::move(next);
  // Category -> row-index buckets must track the new order.
  cond_ = std::make_unique<encode::ConditionalSampler>(encoder_, table_);
}

std::vector<std::size_t> GtvClient::original_rows(const std::vector<std::size_t>& idx) const {
  std::vector<std::size_t> out;
  out.reserve(idx.size());
  for (std::size_t r : idx) out.push_back(original_row_.at(r));
  return out;
}

std::size_t GtvClient::generator_parameter_count() { return g_bottom_->parameter_count(); }
std::size_t GtvClient::discriminator_parameter_count() { return d_bottom_->parameter_count(); }

}  // namespace gtv::core
