// The semi-honest server's inference attack of Fig. 5: the server records
// every (selected data index, conditional vector) pair it legitimately
// observes during training and builds an "inference table" mapping row
// indices to claimed categories of the clients' categorical columns.
//
// Without training-with-shuffling the claims stay valid and the server
// reconstructs the categorical part of the clients' data almost perfectly;
// with shuffling each round invalidates earlier claims and accuracy falls
// to chance. The evaluate() helper (which needs ground truth) exists only
// to *measure* the attack in experiments — the attacker itself only uses
// server-visible data.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "tensor/tensor.h"

namespace gtv::core {

class ServerInferenceAttack {
 public:
  // What one bit of the global CV means: a (column, category) claim against
  // the joined table. The paper argues the server can infer this layout
  // from the one-hot structure of observed CVs; we grant it directly.
  struct CvBit {
    std::size_t joined_column = 0;
    std::size_t category = 0;
  };

  void set_layout(std::vector<CvBit> bits) { bits_ = std::move(bits); }

  // Records one training step's observation: for each batch row b with a
  // hot CV bit, claim (idx[b], bit.column) = bit.category. Later claims for
  // the same cell overwrite earlier ones (the server keeps the freshest).
  void observe(const std::vector<std::size_t>& idx, const Tensor& global_cv);

  std::size_t observation_count() const { return observations_; }
  std::size_t claim_count() const { return claims_.size(); }

  struct Evaluation {
    std::size_t claims = 0;
    std::size_t correct = 0;
    double accuracy = 0.0;  // correct / claims (0 when no claims)
    double coverage = 0.0;  // claims / (rows * categorical columns claimed about)
  };
  // Scores the inference table against a reference joined table (the
  // clients' data as the attacker believes it to be ordered).
  Evaluation evaluate(const data::Table& reference) const;

 private:
  std::vector<CvBit> bits_;
  // (row << 20 | column) -> claimed category. Column count is far below 2^20.
  std::unordered_map<std::uint64_t, std::size_t> claims_;
  std::size_t observations_ = 0;
};

// The curious *client* in the peer-to-peer index-sharing variant
// (§3.1.6): a non-contributing client receives idx_p every step and — since
// it knows every shuffle seed — it can map the indices back to stable
// original row identities. The CV construction samples categories by
// log-frequency, which deliberately over-selects minority-category rows;
// a peer that simply counts how often each row is selected can therefore
// separate minority from majority rows of the CV contributor's column.
// Training-with-shuffling cannot defend here because the clients know the
// shuffle seed — which is exactly why the paper rejects the P2P variant.
class PeerSelectionFrequencyAttack {
 public:
  // One observed batch of ORIGINAL row identities.
  void observe(const std::vector<std::size_t>& original_rows);
  // Adds another peer's observations (the coalition of all curious peers).
  void merge(const PeerSelectionFrequencyAttack& other);

  std::size_t observation_count() const { return observations_; }
  const std::unordered_map<std::size_t, std::size_t>& selection_counts() const {
    return counts_;
  }

  struct Evaluation {
    double minority_rate = 0.0;  // mean selections per minority-class row
    double majority_rate = 0.0;  // mean selections per other row
    double lift = 1.0;           // minority / majority (1.0 = no leak)
    // P(count of a random minority row > count of a random other row); the
    // Mann-Whitney separability of the two groups. 0.5 = no leak.
    double auc = 0.5;
  };
  // `categories[r]` is the true category of original row r in the victim's
  // column (ground truth, used only to score the attack). The minority is
  // the least frequent category.
  Evaluation evaluate(const std::vector<std::size_t>& categories) const;

 private:
  std::unordered_map<std::size_t, std::size_t> counts_;  // row -> selections
  std::size_t observations_ = 0;
};

}  // namespace gtv::core
