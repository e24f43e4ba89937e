#include "psi/psi.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "tensor/bytes.h"

namespace gtv::psi {

std::uint64_t salted_hash(const std::string& id, std::uint64_t salt) {
  // FNV-1a over the bytes, then SplitMix64 finalization keyed by the salt.
  std::uint64_t h = bytes::fnv1a64(id.data(), id.size(), bytes::kFnv1aOffset ^ salt);
  h += 0x9e3779b97f4a7c15ULL + salt;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::vector<std::uint64_t> hash_intersection(const std::vector<Party>& parties,
                                             std::uint64_t salt) {
  if (parties.empty()) throw std::invalid_argument("psi: no parties");
  std::unordered_set<std::uint64_t> common;
  for (std::size_t p = 0; p < parties.size(); ++p) {
    std::unordered_set<std::uint64_t> hashes;
    hashes.reserve(parties[p].ids.size());
    for (const auto& id : parties[p].ids) {
      if (!hashes.insert(salted_hash(id, salt)).second) {
        throw std::invalid_argument("psi: duplicate identifier in party " + std::to_string(p));
      }
    }
    if (p == 0) {
      common = std::move(hashes);
    } else {
      std::unordered_set<std::uint64_t> kept;
      for (std::uint64_t h : common) {
        if (hashes.count(h) != 0) kept.insert(h);
      }
      common = std::move(kept);
    }
  }
  std::vector<std::uint64_t> sorted(common.begin(), common.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

AlignmentResult align_by_intersection(const std::vector<Party>& parties, std::uint64_t salt) {
  for (const auto& party : parties) {
    if (party.ids.size() != party.table.n_rows()) {
      throw std::invalid_argument("psi: ids/table row mismatch");
    }
  }
  const auto intersection = hash_intersection(parties, salt);
  if (intersection.empty()) throw std::invalid_argument("psi: empty intersection");

  AlignmentResult result;
  result.matched_rows = intersection.size();
  result.tables.reserve(parties.size());
  for (const auto& party : parties) {
    std::unordered_map<std::uint64_t, std::size_t> row_of_hash;
    row_of_hash.reserve(party.ids.size());
    for (std::size_t r = 0; r < party.ids.size(); ++r) {
      row_of_hash.emplace(salted_hash(party.ids[r], salt), r);
    }
    std::vector<std::size_t> rows;
    rows.reserve(intersection.size());
    for (std::uint64_t h : intersection) rows.push_back(row_of_hash.at(h));
    result.tables.push_back(party.table.gather_rows(rows));
  }
  return result;
}

}  // namespace gtv::psi
