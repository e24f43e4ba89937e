#include "core/attack.h"

#include <set>
#include <stdexcept>

namespace gtv::core {

void ServerInferenceAttack::observe(const std::vector<std::size_t>& idx,
                                    const Tensor& global_cv) {
  if (global_cv.cols() != bits_.size()) {
    throw std::invalid_argument("ServerInferenceAttack::observe: CV width mismatch");
  }
  if (idx.size() != global_cv.rows()) {
    throw std::invalid_argument("ServerInferenceAttack::observe: index count mismatch");
  }
  for (std::size_t b = 0; b < idx.size(); ++b) {
    for (std::size_t c = 0; c < bits_.size(); ++c) {
      if (global_cv(b, c) == 1.0f) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(idx[b]) << 20) | bits_[c].joined_column;
        claims_[key] = bits_[c].category;
      }
    }
  }
  ++observations_;
}

ServerInferenceAttack::Evaluation ServerInferenceAttack::evaluate(
    const data::Table& reference) const {
  Evaluation eval;
  std::set<std::size_t> columns_claimed;
  for (const auto& [key, category] : claims_) {
    const std::size_t row = static_cast<std::size_t>(key >> 20);
    const std::size_t col = static_cast<std::size_t>(key & ((1u << 20) - 1));
    if (row >= reference.n_rows() || col >= reference.n_cols()) continue;
    columns_claimed.insert(col);
    ++eval.claims;
    if (static_cast<std::size_t>(reference.cell(row, col)) == category) ++eval.correct;
  }
  eval.accuracy = eval.claims > 0 ? static_cast<double>(eval.correct) / eval.claims : 0.0;
  const double cells =
      static_cast<double>(reference.n_rows()) * static_cast<double>(columns_claimed.size());
  eval.coverage = cells > 0 ? static_cast<double>(eval.claims) / cells : 0.0;
  return eval;
}

void PeerSelectionFrequencyAttack::observe(const std::vector<std::size_t>& original_rows) {
  for (std::size_t row : original_rows) ++counts_[row];
  ++observations_;
}

void PeerSelectionFrequencyAttack::merge(const PeerSelectionFrequencyAttack& other) {
  for (const auto& [row, count] : other.counts_) counts_[row] += count;
  observations_ += other.observations_;
}

PeerSelectionFrequencyAttack::Evaluation PeerSelectionFrequencyAttack::evaluate(
    const std::vector<std::size_t>& categories) const {
  // Identify the minority class.
  std::unordered_map<std::size_t, std::size_t> class_sizes;
  for (std::size_t c : categories) ++class_sizes[c];
  std::size_t minority = 0;
  std::size_t smallest = static_cast<std::size_t>(-1);
  for (const auto& [cls, size] : class_sizes) {
    if (size < smallest) {
      smallest = size;
      minority = cls;
    }
  }

  std::vector<double> minority_counts, other_counts;
  for (std::size_t r = 0; r < categories.size(); ++r) {
    const auto it = counts_.find(r);
    const double count = it == counts_.end() ? 0.0 : static_cast<double>(it->second);
    (categories[r] == minority ? minority_counts : other_counts).push_back(count);
  }

  Evaluation eval;
  auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
  };
  eval.minority_rate = mean(minority_counts);
  eval.majority_rate = mean(other_counts);
  eval.lift = eval.majority_rate > 1e-12 ? eval.minority_rate / eval.majority_rate
                                         : (eval.minority_rate > 0 ? 1e9 : 1.0);
  // Mann-Whitney separability.
  if (!minority_counts.empty() && !other_counts.empty()) {
    double wins = 0.0;
    for (double m : minority_counts) {
      for (double o : other_counts) {
        if (m > o) {
          wins += 1.0;
        } else if (m == o) {
          wins += 0.5;
        }
      }
    }
    eval.auc = wins / (static_cast<double>(minority_counts.size()) *
                       static_cast<double>(other_counts.size()));
  }
  return eval;
}

}  // namespace gtv::core
