// Unit tests for GtvClient / GtvServer in isolation (the integration suite
// covers the full protocol; these pin down the split-backprop mechanics and
// state-machine guards of the individual parties).
#include <gtest/gtest.h>

#include <cmath>

#include "core/client.h"
#include "core/server.h"

namespace gtv::core {
namespace {

using data::ColumnType;
using data::Table;

Table client_table(std::size_t rows, Rng& rng) {
  Table t({{"v1", ColumnType::kContinuous, {}, {}},
           {"c1", ColumnType::kCategorical, {"a", "b", "c"}, {}}});
  for (std::size_t i = 0; i < rows; ++i) {
    t.append_row({rng.normal(), static_cast<double>(rng.categorical({5, 3, 2}))});
  }
  return t;
}

GtvOptions tiny_options() {
  GtvOptions options;
  options.gan.noise_dim = 8;
  options.gan.hidden = 12;
  options.generator_hidden = 12;
  options.gan.batch_size = 8;
  return options;
}

TEST(GtvClientTest, ConstructionExposesWidths) {
  Rng rng(1);
  GtvClient client(0, client_table(40, rng), tiny_options(), /*g_slice=*/6, /*d_out=*/5, 7);
  EXPECT_EQ(client.id(), 0u);
  EXPECT_EQ(client.n_features(), 2u);
  EXPECT_EQ(client.n_rows(), 40u);
  EXPECT_EQ(client.cv_width(), 3u);  // one 3-way categorical
  EXPECT_GT(client.encoded_width(), 4u);
  EXPECT_EQ(client.d_out_width(), 5u);
  EXPECT_GT(client.generator_parameter_count(), 0u);
  EXPECT_GT(client.discriminator_parameter_count(), 0u);
}

TEST(GtvClientTest, RejectsEmptyTable) {
  Rng rng(2);
  Table empty({{"v", ColumnType::kContinuous, {}, {}}});
  EXPECT_THROW(GtvClient(0, empty, tiny_options(), 4, 4, 1), std::invalid_argument);
}

TEST(GtvClientTest, ForwardFakeShapes) {
  Rng rng(3);
  GtvClient client(0, client_table(40, rng), tiny_options(), 6, 5, 7);
  Tensor slice = Tensor::normal(8, 6, 0.0f, 1.0f, rng);
  Tensor d_out = client.forward_fake(slice, /*train_generator=*/false);
  EXPECT_EQ(d_out.rows(), 8u);
  EXPECT_EQ(d_out.cols(), 5u);
  client.backward_fake_discriminator(Tensor::ones(8, 5));
}

TEST(GtvClientTest, PendingStateGuards) {
  Rng rng(4);
  GtvClient client(0, client_table(40, rng), tiny_options(), 6, 5, 7);
  Tensor slice = Tensor::normal(8, 6, 0.0f, 1.0f, rng);
  // Backward without forward.
  EXPECT_THROW(client.backward_generator(Tensor::ones(8, 5)), std::logic_error);
  EXPECT_THROW(client.backward_fake_discriminator(Tensor::ones(8, 5)), std::logic_error);
  EXPECT_THROW(client.backward_real(Tensor::ones(8, 5)), std::logic_error);
  // Double forward without backward.
  client.forward_fake(slice, true);
  EXPECT_THROW(client.forward_fake(slice, true), std::logic_error);
  client.backward_generator(Tensor::ones(8, 5));
  client.forward_real_all();
  EXPECT_THROW(client.forward_real_all(), std::logic_error);
  client.backward_real(Tensor::ones(40, 5));
}

TEST(GtvClientTest, GeneratorBackwardReturnsSliceGradient) {
  Rng rng(5);
  GtvClient client(0, client_table(60, rng), tiny_options(), 6, 5, 7);
  Tensor slice = Tensor::normal(8, 6, 0.0f, 1.0f, rng);
  client.forward_fake(slice, /*train_generator=*/true);
  Tensor grad = client.backward_generator(Tensor::ones(8, 5));
  EXPECT_EQ(grad.rows(), 8u);
  EXPECT_EQ(grad.cols(), 6u);
  EXPECT_TRUE(grad.all_finite());
  // Some gradient must flow (the stack is dense).
  EXPECT_GT(std::abs(grad.sum()), 0.0f);
}

TEST(GtvClientTest, ConditionalLossOnlyWhenPending) {
  Rng rng(6);
  GtvClient client(0, client_table(60, rng), tiny_options(), 6, 5, 7);
  Tensor slice = Tensor::normal(8, 6, 0.0f, 1.0f, rng);

  // Without a pending condition, the returned gradient comes from the
  // adversarial seed only. Zero seed -> zero gradient.
  client.forward_fake(slice, true);
  Tensor grad_plain = client.backward_generator(Tensor::zeros(8, 5));
  EXPECT_NEAR(grad_plain.max_abs_diff(Tensor::zeros(8, 6)), 0.0f, 1e-12f);

  // With a pending condition, the conditional cross-entropy adds gradient
  // even under a zero adversarial seed.
  auto sample = client.sample_cv(8);
  client.set_pending_condition(sample);
  client.forward_fake(slice, true);
  Tensor grad_cond = client.backward_generator(Tensor::zeros(8, 5));
  EXPECT_GT(std::abs(grad_cond.sum()), 0.0f);
}

TEST(GtvClientTest, RealForwardSelectedMatchesEncodedRows) {
  Rng rng(7);
  GtvClient client(0, client_table(50, rng), tiny_options(), 6, 5, 7);
  const std::vector<std::size_t> idx = {3, 3, 10};
  Tensor d_out = client.forward_real_selected(idx);
  EXPECT_EQ(d_out.rows(), 3u);
  EXPECT_EQ(d_out.cols(), 5u);
  client.backward_real(Tensor::ones(3, 5));
}

TEST(GtvClientTest, ShuffleChangesOrderButKeepsMultiset) {
  Rng rng(8);
  Table original = client_table(30, rng);
  GtvClient client(0, original, tiny_options(), 6, 5, 7);
  client.shuffle_local_data(12345);
  const Table& after = client.local_table();
  std::multiset<double> before_vals(original.column(0).begin(), original.column(0).end());
  std::multiset<double> after_vals(after.column(0).begin(), after.column(0).end());
  EXPECT_EQ(before_vals, after_vals);
  // Two clients with the same seed produce identical orders.
  GtvClient other(1, original, tiny_options(), 6, 5, 7);
  other.shuffle_local_data(12345);
  for (std::size_t r = 0; r < 30; ++r) {
    EXPECT_DOUBLE_EQ(other.local_table().cell(r, 0), after.cell(r, 0));
  }
}

// --- server ----------------------------------------------------------------------

GtvServer::ClientInfo info(std::size_t cv, std::size_t g, std::size_t d) {
  return {cv, g, d};
}

TEST(GtvServerTest, ConstructionAndRatio) {
  GtvServer server(tiny_options(), {info(3, 8, 4), info(2, 4, 8)}, 11);
  EXPECT_EQ(server.n_clients(), 2u);
  EXPECT_EQ(server.total_cv_width(), 5u);
  EXPECT_NEAR(server.ratio()[0], 8.0 / 12.0, 1e-9);
  EXPECT_THROW(GtvServer(tiny_options(), {}, 1), std::invalid_argument);
}

TEST(GtvServerTest, SelectCvClientFollowsRatio) {
  GtvServer server(tiny_options(), {info(2, 9, 6), info(2, 1, 6)}, 13);
  std::size_t picks0 = 0;
  for (int i = 0; i < 2000; ++i) picks0 += server.select_cv_client() == 0;
  EXPECT_NEAR(picks0 / 2000.0, 0.9, 0.04);
}

TEST(GtvServerTest, AssembleGlobalCvPlacesSegment) {
  GtvServer server(tiny_options(), {info(2, 6, 6), info(3, 6, 6)}, 17);
  Tensor cv_p(4, 3);
  cv_p(0, 1) = 1.0f;
  Tensor global = server.assemble_global_cv(1, cv_p, 4);
  EXPECT_EQ(global.cols(), 5u);
  EXPECT_FLOAT_EQ(global(0, 2 + 1), 1.0f);
  for (std::size_t c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(global(0, c), 0.0f);
  EXPECT_THROW(server.assemble_global_cv(2, cv_p, 4), std::out_of_range);
  EXPECT_THROW(server.assemble_global_cv(0, cv_p, 4), std::invalid_argument);
}

TEST(GtvServerTest, GeneratorForwardSplitsByWidths) {
  GtvServer server(tiny_options(), {info(2, 8, 6), info(2, 4, 6)}, 19);
  Tensor cv(5, 4);
  auto slices = server.generator_forward(cv, /*retain_graph=*/false);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].rows(), 5u);
  EXPECT_EQ(slices[0].cols(), 8u);
  EXPECT_EQ(slices[1].cols(), 4u);
}

TEST(GtvServerTest, GeneratorBackwardStateMachine) {
  GtvServer server(tiny_options(), {info(2, 8, 6), info(2, 4, 6)}, 23);
  Tensor cv(5, 4);
  EXPECT_THROW(server.generator_backward({Tensor(5, 8), Tensor(5, 4)}), std::logic_error);
  auto slices = server.generator_forward(cv, /*retain_graph=*/true);
  EXPECT_THROW(server.generator_forward(cv, true), std::logic_error);
  EXPECT_THROW(server.generator_backward({Tensor(5, 8)}), std::invalid_argument);
  // Arity error above cleared the pending state; run a full cycle.
  slices = server.generator_forward(cv, /*retain_graph=*/true);
  server.generator_backward({Tensor::ones(5, 8), Tensor::ones(5, 4)});
  server.step_generator();
}

TEST(GtvServerTest, CriticTopShapeAndGradFlow) {
  GtvServer server(tiny_options(), {info(2, 6, 6), info(2, 6, 6)}, 29);
  Rng rng(1);
  ag::Var a(Tensor::normal(4, 6, 0.0f, 1.0f, rng), true);
  ag::Var b(Tensor::normal(4, 6, 0.0f, 1.0f, rng), true);
  ag::Var cv = ag::constant(Tensor(4, 4));
  ag::Var out = server.critic_top({a, b}, cv);
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 1u);
  ag::backward(ag::sum_all(out));
  EXPECT_FALSE(a.grad().empty());
  EXPECT_FALSE(b.grad().empty());
  EXPECT_THROW(server.critic_top({a}, cv), std::invalid_argument);
}

TEST(GtvServerTest, NoDiscreteColumnsMeansNoCvFilter) {
  GtvServer server(tiny_options(), {info(0, 6, 6), info(0, 6, 6)}, 31);
  EXPECT_EQ(server.total_cv_width(), 0u);
  ag::Var a(Tensor(4, 6));
  ag::Var b(Tensor(4, 6));
  ag::Var out = server.critic_top({a, b}, ag::constant(Tensor(4, 0)));
  EXPECT_EQ(out.cols(), 1u);
}

}  // namespace
}  // namespace gtv::core
