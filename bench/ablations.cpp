// Design-choice ablations called out in DESIGN.md:
//
//   A. WGAN-GP vs WGAN weight clipping (critic regularization)
//   B. generator conditional loss on/off: minority-category coverage
//   C. DP noise on intermediate logits: the utility cost the paper cites
//      when rejecting DP (§3.3 "Further protection methods")
//   D. server vs peer-to-peer index sharing: the co-selection leak that
//      motivates the paper's server-side design (§3.1.6)
#include <iostream>

#include "bench/bench_common.h"

namespace gtv::bench {
namespace {

int run() {
  BenchConfig config = BenchConfig::from_env();
  const std::size_t rounds = std::max<std::size_t>(20, config.rounds / 2);
  std::cout << "=== Ablations (loan, 2 clients, " << rounds << " rounds) ===\n\n";
  PreparedData data = prepare_dataset("loan", config.rows, config.seed);
  const auto groups = even_split_columns(data.train.n_cols(), 2);
  std::vector<std::vector<std::string>> csv_rows;

  auto report = [&](const std::string& name, const MetricRow& m) {
    std::printf("%-24s f1=%.4f auc=%.4f jsd=%.4f wd=%.4f corr=%.3f\n", name.c_str(),
                m.f1_diff, m.auc_diff, m.avg_jsd, m.avg_wd, m.diff_corr);
    csv_rows.push_back({name, format_double(m.f1_diff), format_double(m.auc_diff),
                        format_double(m.avg_jsd), format_double(m.avg_wd),
                        format_double(m.diff_corr)});
  };

  // --- A + B + C: quality grid --------------------------------------------------
  struct Variant {
    std::string name;
    std::function<void(core::GtvOptions&)> apply;
  };
  const std::vector<Variant> variants = {
      {"baseline_wgan_gp", [](core::GtvOptions&) {}},
      {"weight_clipping",
       [](core::GtvOptions& o) {
         o.gan.critic_mode = gan::CriticMode::kWeightClipping;
       }},
      {"no_conditional_loss",
       [](core::GtvOptions& o) { o.gan.use_conditional_loss = false; }},
      {"dp_noise_0.1", [](core::GtvOptions& o) { o.dp_noise_std = 0.1f; }},
      {"dp_noise_0.5", [](core::GtvOptions& o) { o.dp_noise_std = 0.5f; }},
  };
  std::vector<MetricRow> results(variants.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    tasks.push_back([&, v] {
      core::GtvOptions options = default_gtv_options(config);
      variants[v].apply(options);
      results[v] = gtv_experiment(data, groups, options, rounds, config.seed);
    });
  }
  parallel_tasks(std::move(tasks));
  for (std::size_t v = 0; v < variants.size(); ++v) report(variants[v].name, results[v]);

  // --- B: minority coverage with/without the conditional vector ------------------
  {
    std::cout << "\n--- conditional vector vs minority-class coverage (loan target) ---\n";
    const std::size_t target = data.target;
    const auto real_counts = data.train.class_counts(target);
    for (const bool use_cv : {true, false}) {
      core::GtvOptions options = default_gtv_options(config);
      options.gan.use_conditional_loss = use_cv;
      auto shards = data::vertical_split(data.train, groups);
      data::Table synth = restore_column_order(
          run_gtv(shards, options, rounds, data.train.n_rows(), config.seed), groups);
      const auto synth_counts = synth.class_counts(target);
      const double real_rate =
          static_cast<double>(real_counts[1]) / static_cast<double>(data.train.n_rows());
      const double synth_rate =
          static_cast<double>(synth_counts[1]) / static_cast<double>(synth.n_rows());
      std::printf("  cond_loss=%-5s real minority rate=%.3f synthetic=%.3f\n",
                  use_cv ? "on" : "off", real_rate, synth_rate);
      csv_rows.push_back({use_cv ? "cv_on_minority" : "cv_off_minority",
                          format_double(real_rate), format_double(synth_rate), "", "", ""});
    }
  }

  // --- D: peer-to-peer index sharing leak ------------------------------------------
  {
    std::cout << "\n--- P2P index sharing: selection-frequency leak ---\n";
    core::GtvOptions options = default_gtv_options(config);
    options.index_sharing = core::IndexSharing::kPeerToPeer;
    auto shards = data::vertical_split(data.train, groups);
    core::GtvTrainer trainer(std::move(shards), options, config.seed);
    trainer.train(rounds);
    // Score the leak on a categorical column of the CV-contributing side;
    // the loan target (a minority-heavy binary column) is the paper's case.
    const auto eval = trainer.peer_attack_evaluation(data.target);
    std::printf("  selections per minority row: %.2f\n", eval.minority_rate);
    std::printf("  selections per majority row: %.2f\n", eval.majority_rate);
    std::printf("  lift: %.2fx  auc: %.3f  (1.0x / 0.5 = no leak; log-frequency\n"
                "  oversampling makes minority rows visibly hot to any counting peer,\n"
                "  and shuffling cannot hide it because peers know the seed)\n",
                eval.lift, eval.auc);
    csv_rows.push_back({"p2p_leak", format_double(eval.lift, 2), format_double(eval.auc, 3),
                        format_double(eval.minority_rate, 2),
                        format_double(eval.majority_rate, 2), ""});
  }

  write_csv(config.out_dir, "ablations.csv",
            {"variant", "f1_or_v1", "auc_or_v2", "jsd_or_v3", "wd", "diff_corr"}, csv_rows);
  std::cout << "\ncsv: " << config.out_dir << "/ablations.csv\n";
  return 0;
}

}  // namespace
}  // namespace gtv::bench

int main() { return gtv::bench::run(); }
