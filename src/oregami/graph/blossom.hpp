// Maximum-weight matching in general graphs (Edmonds' blossom
// algorithm, O(V^3) primal-dual implementation).
//
// This is the optimality engine behind Algorithm MWM-Contract
// (paper §4.3): pairing task clusters so that the total communication
// weight internalised inside pairs is maximum, which minimises the
// remaining inter-processor communication. The paper cites an
// O(E V log V) algorithm from [Lo88]; we use the classic O(V^3)
// formulation, which has the same optimality guarantee and is more than
// fast enough at OREGAMI scales (hundreds of clusters).
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/graph/graph.hpp"

namespace oregami {

/// Result of a general-graph matching. `mate[v]` is v's partner or -1.
struct GeneralMatching {
  std::vector<int> mate;
  std::int64_t total_weight = 0;
};

/// Computes a maximum-weight matching of `g`. Edge weights must be
/// positive (OREGAMI communication volumes always are); edges with
/// weight <= 0 would never appear in a maximum-weight matching and are
/// rejected. The matching maximises total weight, not cardinality.
[[nodiscard]] GeneralMatching max_weight_matching(const Graph& g);

/// Exhaustive-search reference implementation, O(V!!) -- usable only for
/// tiny graphs; exists so tests can certify the blossom code.
[[nodiscard]] GeneralMatching brute_force_max_weight_matching(
    const Graph& g);

}  // namespace oregami
