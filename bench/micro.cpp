// Microbenchmarks + ablations (google-benchmark): substrate throughput
// (matmul, autograd, GMM, encoder) and GTV per-round latency ablations
// (clients, shuffling on/off) that back the design choices called out in
// DESIGN.md.
#include <benchmark/benchmark.h>

#include "core/gtv.h"
#include "data/datasets.h"
#include "encode/encoder.h"
#include "gan/losses.h"
#include "nn/module.h"

namespace gtv {
namespace {

void BM_MatmulSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::normal(n, n, 0.0f, 1.0f, rng);
  Tensor b = Tensor::normal(n, n, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatmulSquare)->Arg(64)->Arg(256)->Iterations(20);

// The transpose-free backward variants (a·bT and aT·b) at the same square
// shapes; parity with BM_MatmulSquare shows the backward pass no longer
// pays a transpose copy on top of the contraction.
void BM_MatmulNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::normal(n, n, 0.0f, 1.0f, rng);
  Tensor b = Tensor::normal(n, n, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul_nt(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatmulNT)->Arg(64)->Arg(256)->Iterations(20);

void BM_MatmulTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::normal(n, n, 0.0f, 1.0f, rng);
  Tensor b = Tensor::normal(n, n, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul_tn(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatmulTN)->Arg(64)->Arg(256)->Iterations(20);

void BM_AutogradMlpBackward(benchmark::State& state) {
  Rng rng(2);
  nn::Sequential mlp;
  mlp.emplace<nn::Linear>(128, 256, rng);
  mlp.emplace<nn::ReLU>();
  mlp.emplace<nn::Linear>(256, 1, rng);
  Tensor x = Tensor::normal(64, 128, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    mlp.zero_grad();
    ag::backward(ag::mean_all(mlp.forward(ag::Var(x))));
  }
}
BENCHMARK(BM_AutogradMlpBackward)->Iterations(50);

void BM_GradientPenaltySecondOrder(benchmark::State& state) {
  Rng rng(3);
  gan::DiscriminatorNet d(64, 128, 2, 1, rng);
  Tensor real = Tensor::normal(64, 64, 0.0f, 1.0f, rng);
  Tensor fake = Tensor::normal(64, 64, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    d.zero_grad();
    ag::Var gp = gan::gradient_penalty([&](const ag::Var& x) { return d.forward(x); }, real,
                                       fake, rng);
    ag::backward(gp);
  }
}
BENCHMARK(BM_GradientPenaltySecondOrder)->Iterations(20);

void BM_GmmFit(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) {
    values.push_back(rng.uniform() < 0.5 ? rng.normal(-3, 1) : rng.normal(5, 2));
  }
  for (auto _ : state) {
    encode::GaussianMixture1D gmm;
    gmm.fit(values, encode::GmmOptions{}, rng);
    benchmark::DoNotOptimize(gmm.n_modes());
  }
}
BENCHMARK(BM_GmmFit)->Iterations(5);

void BM_EncodeAdult(benchmark::State& state) {
  Rng rng(5);
  data::Table t = data::make_adult(2000, rng);
  encode::TableEncoder enc;
  enc.fit(t, encode::EncoderOptions{}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(t, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_EncodeAdult)->Iterations(5);

core::GtvOptions tiny_gtv_options() {
  core::GtvOptions options;
  options.gan.noise_dim = 16;
  options.gan.hidden = 64;
  options.generator_hidden = 64;
  options.gan.batch_size = 32;
  options.gan.d_steps_per_round = 2;
  return options;
}

void BM_GtvRoundByClients(benchmark::State& state) {
  const auto n_clients = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  data::Table t = data::make_loan(300, rng);
  std::vector<std::vector<std::size_t>> groups(n_clients);
  for (std::size_t c = 0; c < t.n_cols(); ++c) groups[c % n_clients].push_back(c);
  core::GtvTrainer trainer(data::vertical_split(t, groups), tiny_gtv_options(), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train_round());
  }
}
BENCHMARK(BM_GtvRoundByClients)->Arg(2)->Arg(3)->Arg(5)->Iterations(3);

// Ablation: cost of the training-with-shuffling defence.
void BM_GtvRoundShuffling(benchmark::State& state) {
  const bool shuffling = state.range(0) == 1;
  Rng rng(8);
  data::Table t = data::make_loan(300, rng);
  core::GtvOptions options = tiny_gtv_options();
  options.training_with_shuffling = shuffling;
  core::GtvTrainer trainer(
      data::vertical_split(t, {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11, 12}}), options, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train_round());
  }
  state.SetLabel(shuffling ? "with_shuffling" : "no_shuffling");
}
BENCHMARK(BM_GtvRoundShuffling)->Arg(1)->Arg(0)->Iterations(3);

}  // namespace
}  // namespace gtv

BENCHMARK_MAIN();
