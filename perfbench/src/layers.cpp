// Per-layer probes for a traced run: each times calls into one layer's
// public functions at the calling workload's shapes.
#include <algorithm>

#include "autograd/autograd.h"
#include "common.h"
#include "gan/ctabgan.h"
#include "gan/losses.h"
#include "net/wire.h"
#include "nn/module.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace perfbench {

namespace ag = gtv::ag;
using gtv::Rng;
using gtv::Tensor;

namespace {

constexpr std::size_t kBatch = 128;       // every workload's training batch
constexpr std::size_t kServeRows = 1024;  // a full coalesced serve batch

// Keeps results observable so the timed calls cannot be optimized away.
volatile float g_sink = 0;

void span(const char* name, Clock::time_point t0) {
  SpanLog::instance().record(name, "layers", 0, t0, Clock::now());
}

void measure_tensor(const LayerShapes& s, Report& report, Rng& rng) {
  const std::size_t m = s.gemm_rows, k = s.d_hidden, n = s.d_hidden;
  const Tensor a = Tensor::normal(m, k, 0, 1, rng);
  const Tensor b = Tensor::normal(k, n, 0, 1, rng);
  const Tensor bt = Tensor::normal(n, k, 0, 1, rng);
  const Tensor c = Tensor::normal(m, n, 0, 1, rng);
  auto t0 = Clock::now();
  const double mm = time_ms([&] { g_sink = a.matmul(b)(0, 0); });
  const double nt = time_ms([&] { g_sink = a.matmul_nt(bt)(0, 0); });
  const double tn = time_ms([&] { g_sink = a.matmul_tn(c)(0, 0); });
  span("tensor.gemm", t0);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  report.layer("tensor.gemm_gflops", 3.0 * flops / ((mm + nt + tn) * 1e6), "GFLOP/s");

  // leaky_relu -> dropout -> add -> mul, forward and backward.
  const Tensor xv = Tensor::normal(m, k, 0, 1, rng);
  const Tensor seed_grad = Tensor::ones(m, k);
  gtv::nn::Dropout dropout(0.5f, rng);
  t0 = Clock::now();
  const double elem_ms = time_ms([&] {
    ag::Var x(xv, /*requires_grad=*/true);
    const ag::Var y = ag::leaky_relu(x, 0.2f);
    const ag::Var out = ag::mul(ag::add(dropout.forward(y), x), y);
    ag::backward(out, ag::constant(seed_grad));
    g_sink = x.grad()(0, 0);
  });
  span("tensor.elementwise", t0);
  report.layer("tensor.elementwise_ns_per_elem",
               elem_ms * 1e6 / (4.0 * static_cast<double>(m * k)), "ns");
}

void measure_nn(const LayerShapes& s, Report& report, Rng& rng) {
  const std::size_t batch = kBatch, dh = s.d_hidden, gh = s.g_hidden;
  gtv::nn::FNBlock fn(dh, dh, rng);
  const Tensor fn_in = Tensor::normal(batch, dh, 0, 1, rng);
  auto t0 = Clock::now();
  report.layer("nn.fn_block_fwd_bwd_ms", time_ms([&] {
                 ag::Var x(fn_in, true);
                 ag::backward(fn.forward(x), ag::constant(Tensor::ones(batch, dh)));
                 g_sink = x.grad()(0, 0);
               }),
               "ms");
  span("nn.fn_block", t0);

  gtv::nn::ResidualBlock rn(gh, gh, rng);
  const Tensor rn_in = Tensor::normal(batch, gh, 0, 1, rng);
  t0 = Clock::now();
  report.layer("nn.rn_block_fwd_bwd_ms", time_ms([&] {
                 ag::Var x(rn_in, true);
                 ag::backward(rn.forward(x), ag::constant(Tensor::ones(batch, 2 * gh)));
                 g_sink = x.grad()(0, 0);
               }),
               "ms");
  span("nn.rn_block", t0);

  gtv::gan::DiscriminatorNet critic(dh, dh, 2, 1, rng);
  const Tensor real = Tensor::normal(batch, dh, 0, 1, rng);
  const Tensor fake = Tensor::normal(batch, dh, 0, 1, rng);
  t0 = Clock::now();
  report.layer("gan.gradient_penalty_ms", time_ms([&] {
                 const ag::Var gp = gtv::gan::gradient_penalty(
                     [&](const ag::Var& v) { return critic.forward(v); }, real, fake, rng);
                 ag::backward(gp);
                 g_sink = gp.value()(0, 0);
               }),
               "ms");
  span("gan.gradient_penalty", t0);

  rn.set_training(false);
  const Tensor serve_in = Tensor::normal(kServeRows, gh, 0, 1, rng);
  t0 = Clock::now();
  report.layer("nn.rn_block_fwd_ms", time_ms([&] {
                 ag::NoGradGuard no_grad;
                 g_sink = rn.forward(ag::constant(serve_in)).value()(0, 0);
               }),
               "ms");
  span("nn.rn_block_eval", t0);
}

void measure_net(const LayerShapes& s, Report& report, Rng& rng) {
  // serialize_tensor -> encode_frame -> decode_frame -> deserialize_tensor
  // on a tensor whose frame is the workload's median frame size.
  const std::size_t cols = 64;
  const std::size_t rows = std::max<std::size_t>(1, s.frame_bytes / (4 * cols));
  const Tensor t = Tensor::normal(rows, cols, 0, 1, rng);
  std::size_t frame_bytes = 0;
  const auto t0 = Clock::now();
  const double ms = time_ms([&] {
    gtv::net::Frame frame;
    frame.link = "client0->server";
    frame.payload = gtv::net::serialize_tensor(t);
    const auto bytes = gtv::net::encode_frame(frame);
    frame_bytes = bytes.size();
    g_sink = gtv::net::deserialize_tensor(gtv::net::decode_frame(bytes).payload)(0, 0);
  });
  span("net.codec", t0);
  report.layer("net.codec_mb_per_s", static_cast<double>(frame_bytes) / 1e6 / (ms / 1e3), "MB/s");
}

void measure_encode(const std::vector<gtv::data::Table>& shards,
                    const gtv::encode::EncoderOptions& options, Report& report) {
  Rng rng(0xf17ULL);
  const auto t0 = Clock::now();
  for (const auto& shard : shards) {
    gtv::encode::TableEncoder encoder;
    encoder.fit(shard, options, rng);
  }
  span("encode.fit", t0);
  report.layer("encode.fit_s", seconds_since(t0), "s");
}

void measure_serve(const gtv::serve::Checkpoint& checkpoint, Report& report) {
  gtv::serve::Synthesizer synth(checkpoint);
  auto t0 = Clock::now();
  report.layer("serve.plan_ms_per_krow",
               time_ms([&] { g_sink = synth.plan(kServeRows, 7).input(0, 0); }) / 1.024, "ms");
  span("serve.plan", t0);
  for (const std::size_t rows : {std::size_t{64}, kServeRows}) {
    const auto plan = synth.plan(rows, 11);
    t0 = Clock::now();
    const double ms = time_ms([&] { g_sink = static_cast<float>(synth.run(plan.input, plan.gumbel).cell(0, 0)); });
    span("serve.run", t0);
    report.layer("serve.run_ms_per_krow_" + std::to_string(rows),
                 ms * 1000.0 / static_cast<double>(rows), "ms");
  }
  const gtv::data::Table table = synth.sample(kServeRows, 13);
  gtv::serve::RowBatch batch;
  batch.request_id = 1;
  batch.n_rows = table.n_rows();
  batch.n_cols = table.n_cols();
  batch.done = true;
  for (std::size_t r = 0; r < table.n_rows(); ++r) {
    for (std::size_t c = 0; c < table.n_cols(); ++c) batch.cells.push_back(table.cell(r, c));
  }
  std::size_t bytes = 0;
  t0 = Clock::now();
  const double ms = time_ms([&] {
    const auto encoded = gtv::serve::encode_row_batch(batch);
    bytes = encoded.size();
    g_sink = static_cast<float>(gtv::serve::decode_row_batch(encoded).cells[0]);
  });
  span("serve.rowbatch_codec", t0);
  report.layer("serve.rowbatch_codec_mb_per_s", static_cast<double>(bytes) / 1e6 / (ms / 1e3),
               "MB/s");
}

}  // namespace

void measure_layers(const LayerShapes& shapes, const std::vector<gtv::data::Table>& shards,
                    const gtv::encode::EncoderOptions& encoder_options,
                    const gtv::serve::Checkpoint& checkpoint, Report& report) {
  Rng rng(0x1a7e55ULL);
  measure_tensor(shapes, report, rng);
  measure_nn(shapes, report, rng);
  measure_net(shapes, report, rng);
  measure_encode(shards, encoder_options, report);
  measure_serve(checkpoint, report);
}

}  // namespace perfbench
