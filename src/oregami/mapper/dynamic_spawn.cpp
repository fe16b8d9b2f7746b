#include "oregami/mapper/dynamic_spawn.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "oregami/graph/gray_code.hpp"
#include "oregami/mapper/binomial_mesh.hpp"
#include "oregami/mapper/canned.hpp"
#include "oregami/mapper/cbt_mesh.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

std::vector<int> SpawnPlan::live_nodes(int stage) const {
  std::vector<int> nodes;
  for (std::size_t v = 0; v < spawn_stage_of_node.size(); ++v) {
    if (spawn_stage_of_node[v] <= stage) {
      nodes.push_back(static_cast<int>(v));
    }
  }
  return nodes;
}

int SpawnPlan::stage_imbalance(int stage, int num_procs) const {
  std::vector<int> load(static_cast<std::size_t>(num_procs), 0);
  for (const int v : live_nodes(stage)) {
    ++load[static_cast<std::size_t>(
        proc_of_node[static_cast<std::size_t>(v)])];
  }
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  return *hi - *lo;
}

namespace {

/// Places every node of `plan` where the canned entry for its family,
/// with parameter `param` and identity labels, puts it. Canned entries
/// place a node by its address alone, so placements are stable under
/// growth. `kind` names the family in the error and the description.
void place_by_canned(SpawnPlan& plan, int param, const Topology& topo,
                     const std::string& caller, const std::string& kind) {
  const std::size_t n = plan.spawn_stage_of_node.size();
  RecognizedFamily family;
  family.family = plan.family;
  family.params = {param};
  family.canonical_label.resize(n);
  std::iota(family.canonical_label.begin(), family.canonical_label.end(), 0);
  const auto canned = canned_mapping(family, topo);
  if (!canned) {
    throw MappingError(caller + ": no canned " + kind +
                       " mapping for topology " + topo.name());
  }
  plan.proc_of_node.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const int cluster = canned->contraction.cluster_of_task[v];
    plan.proc_of_node[v] =
        canned->embedding.proc_of_cluster[static_cast<std::size_t>(cluster)];
  }
  plan.description = kind + " spawn plan via " + canned->description;
}

}  // namespace

SpawnPlan plan_binomial_spawn(int k, const Topology& topo) {
  OREGAMI_ASSERT(k >= 0 && k <= 24, "binomial order out of range");
  SpawnPlan plan;
  plan.family = GraphFamily::BinomialTree;
  plan.max_stage = k;
  const int n = 1 << k;
  plan.spawn_stage_of_node.resize(static_cast<std::size_t>(n));
  plan.spawn_stage_of_node[0] = 0;
  for (int m = 1; m < n; ++m) {
    plan.spawn_stage_of_node[static_cast<std::size_t>(m)] =
        floor_log2(static_cast<std::uint64_t>(m)) + 1;
  }
  // B_s is exactly the low-address prefix of B_k.
  place_by_canned(plan, k, topo, "plan_binomial_spawn", "binomial");
  return plan;
}

SpawnPlan plan_cbt_spawn(int h, const Topology& topo) {
  OREGAMI_ASSERT(h >= 1 && h <= 20, "tree height out of range");
  SpawnPlan plan;
  plan.family = GraphFamily::CompleteBinaryTree;
  plan.max_stage = h - 1;
  const int n = (1 << h) - 1;
  plan.spawn_stage_of_node.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    plan.spawn_stage_of_node[static_cast<std::size_t>(v)] =
        floor_log2(static_cast<std::uint64_t>(v) + 1);
  }
  place_by_canned(plan, h, topo, "plan_cbt_spawn", "CBT");
  return plan;
}

}  // namespace oregami
