#include "core/server.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gtv::core {

using ag::Var;

namespace {

// Gated instrumentation (only samples the clock under GTV_METRICS /
// GTV_TRACE): per-call duration histograms for the server-side hot paths.
obs::Histogram& server_histogram(const char* name) {
  return obs::MetricsRegistry::instance().histogram(std::string("gtv.server.") + name +
                                                    "_ms");
}

}  // namespace

GtvServer::GtvServer(const GtvOptions& options, std::vector<ClientInfo> clients,
                     std::uint64_t seed)
    : options_(options), clients_(std::move(clients)), rng_(seed) {
  if (clients_.empty()) throw std::invalid_argument("GtvServer: no clients");
  std::vector<std::size_t> g_widths, d_widths;
  std::size_t g_total = 0, d_total = 0;
  for (const auto& c : clients_) {
    total_cv_ += c.cv_width;
    g_total += c.g_slice_width;
    d_total += c.d_out_width;
    g_widths.push_back(c.g_slice_width);
    d_widths.push_back(c.d_out_width);
  }
  // P_r is reconstructed from the g-slice widths (they were computed from
  // feature counts by the trainer).
  std::vector<std::size_t> feature_like(g_widths.begin(), g_widths.end());
  ratio_ = ratio_vector(feature_like);

  g_top_ = std::make_unique<gan::GeneratorNet>(options_.gan.noise_dim + total_cv_,
                                               options_.generator_hidden,
                                               options_.partition.g_top, g_total, rng_);
  if (total_cv_ > 0) d_s_ = std::make_unique<nn::Linear>(total_cv_, total_cv_, rng_);
  d_top_ = std::make_unique<gan::DiscriminatorNet>(
      d_total + (d_s_ ? total_cv_ : 0), options_.gan.hidden, options_.partition.d_top, 1, rng_,
      options_.gan.leaky_slope, options_.gan.dropout);

  adam_g_ = std::make_unique<nn::Adam>(g_top_->parameters(), options_.gan.adam);
  std::vector<Var> d_params = d_top_->parameters();
  if (d_s_) {
    auto ds_params = d_s_->parameters();
    d_params.insert(d_params.end(), ds_params.begin(), ds_params.end());
  }
  adam_d_ = std::make_unique<nn::Adam>(std::move(d_params), options_.gan.adam);
}

std::size_t GtvServer::select_cv_client() { return rng_.categorical(ratio_); }

Tensor GtvServer::assemble_global_cv(std::size_t p, const Tensor& cv_p,
                                     std::size_t batch) const {
  if (p >= clients_.size()) throw std::out_of_range("assemble_global_cv: bad client index");
  if (cv_p.cols() != clients_[p].cv_width || (cv_p.cols() > 0 && cv_p.rows() != batch)) {
    throw std::invalid_argument("assemble_global_cv: CV shape mismatch");
  }
  Tensor cv(batch, total_cv_);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < p; ++i) offset += clients_[i].cv_width;
  for (std::size_t r = 0; r < cv_p.rows(); ++r) {
    for (std::size_t c = 0; c < cv_p.cols(); ++c) cv(r, offset + c) = cv_p(r, c);
  }
  return cv;
}

std::vector<Tensor> GtvServer::generator_forward(const Tensor& global_cv, bool retain_graph) {
  obs::PartyScope party(0);
  static obs::Histogram& hist = server_histogram("generator_forward");
  obs::ScopedTimer timer("server.generator_forward", &hist);
  if (pending_slices_) {
    throw std::logic_error("GtvServer::generator_forward: backward still pending");
  }
  Tensor noise = Tensor::normal(global_cv.rows(), options_.gan.noise_dim, 0.0f, 1.0f, rng_);
  Tensor input =
      global_cv.cols() > 0 ? Tensor::concat_cols({noise, global_cv}) : std::move(noise);

  std::vector<Tensor> values;
  values.reserve(clients_.size());
  if (!retain_graph) {
    ag::NoGradGuard no_grad;
    Var h = g_top_->forward(Var(std::move(input)));
    std::size_t offset = 0;
    for (const auto& c : clients_) {
      values.push_back(h.value().slice_cols(offset, offset + c.g_slice_width));
      offset += c.g_slice_width;
    }
    return values;
  }
  Var h = g_top_->forward(Var(std::move(input)));
  std::vector<Var> slices;
  std::size_t offset = 0;
  for (const auto& c : clients_) {
    slices.push_back(ag::slice_cols(h, offset, offset + c.g_slice_width));
    values.push_back(slices.back().value());
    offset += c.g_slice_width;
  }
  pending_slices_ = std::move(slices);
  return values;
}

void GtvServer::generator_backward(const std::vector<Tensor>& slice_grads) {
  obs::PartyScope party(0);
  static obs::Histogram& hist = server_histogram("generator_backward");
  obs::ScopedTimer timer("server.generator_backward", &hist);
  if (!pending_slices_) {
    throw std::logic_error("GtvServer::generator_backward: no pending forward");
  }
  std::vector<Var> slices = std::move(*pending_slices_);
  pending_slices_.reset();
  if (slice_grads.size() != slices.size()) {
    throw std::invalid_argument("generator_backward: grad count mismatch");
  }
  for (std::size_t i = 0; i < slices.size(); ++i) {
    ag::backward(slices[i], Var(slice_grads[i]));
  }
}

Var GtvServer::critic_top(const std::vector<Var>& client_logits, const Var& global_cv) {
  obs::PartyScope party(0);
  static obs::Histogram& hist = server_histogram("critic_top");
  obs::ScopedTimer timer("server.critic_top", &hist);
  if (client_logits.size() != clients_.size()) {
    throw std::invalid_argument("critic_top: expected one logits block per client");
  }
  std::vector<Var> parts = client_logits;
  if (d_s_) parts.push_back(d_s_->forward(global_cv));
  return d_top_->forward(ag::concat_cols(parts));
}

std::size_t GtvServer::discriminator_parameter_count() {
  return d_top_->parameter_count() + (d_s_ ? d_s_->parameter_count() : 0);
}

std::vector<Var> GtvServer::discriminator_parameters() {
  std::vector<Var> params = d_top_->parameters();
  if (d_s_) {
    auto ds = d_s_->parameters();
    params.insert(params.end(), ds.begin(), ds.end());
  }
  return params;
}

}  // namespace gtv::core
