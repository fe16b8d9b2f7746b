#include "oregami/group/cayley.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "oregami/support/error.hpp"

namespace oregami {

CayleyGraph quotient_cayley_graph(const PermutationGroup& group,
                                  const std::vector<int>& coset_of) {
  OREGAMI_ASSERT(coset_of.size() == group.order(),
                 "coset partition size must equal group order");
  CayleyGraph cg;
  cg.num_nodes =
      coset_of.empty()
          ? 0
          : *std::max_element(coset_of.begin(), coset_of.end()) + 1;
  std::set<std::tuple<int, int, int>> seen;
  const auto& gens = group.generator_indices();
  for (std::size_t a = 0; a < group.order(); ++a) {
    for (std::size_t gi = 0; gi < gens.size(); ++gi) {
      const std::size_t b = group.compose(a, gens[gi]);
      const int ca = coset_of[a];
      const int cb = coset_of[b];
      if (seen.insert({ca, cb, static_cast<int>(gi)}).second) {
        cg.edges.push_back({ca, cb, static_cast<int>(gi)});
      }
    }
  }
  return cg;
}

}  // namespace oregami
