#include "oregami/core/mapping.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"

namespace oregami {

Contraction Contraction::identity(int num_tasks) {
  Contraction c;
  c.num_clusters = num_tasks;
  c.cluster_of_task.resize(static_cast<std::size_t>(num_tasks));
  for (int t = 0; t < num_tasks; ++t) {
    c.cluster_of_task[static_cast<std::size_t>(t)] = t;
  }
  return c;
}

std::vector<int> Contraction::cluster_sizes() const {
  std::vector<int> sizes(static_cast<std::size_t>(num_clusters), 0);
  for (const int c : cluster_of_task) {
    OREGAMI_ASSERT(c >= 0 && c < num_clusters, "cluster id out of range");
    ++sizes[static_cast<std::size_t>(c)];
  }
  return sizes;
}

int Contraction::max_cluster_size() const {
  const auto sizes = cluster_sizes();
  return sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
}

void Contraction::validate(int num_tasks) const {
  if (cluster_of_task.size() != static_cast<std::size_t>(num_tasks)) {
    throw MappingError("contraction does not cover every task");
  }
  std::vector<bool> used(static_cast<std::size_t>(num_clusters), false);
  for (const int c : cluster_of_task) {
    if (c < 0 || c >= num_clusters) {
      throw MappingError("contraction cluster id out of range");
    }
    used[static_cast<std::size_t>(c)] = true;
  }
  if (!std::all_of(used.begin(), used.end(), [](bool b) { return b; })) {
    throw MappingError("contraction has an empty cluster");
  }
}

void Embedding::validate(int num_procs) const {
  std::vector<bool> used(static_cast<std::size_t>(num_procs), false);
  for (const int p : proc_of_cluster) {
    if (p < 0 || p >= num_procs) {
      throw MappingError("embedding processor id out of range");
    }
    if (used[static_cast<std::size_t>(p)]) {
      throw MappingError("embedding assigns two clusters to one processor");
    }
    used[static_cast<std::size_t>(p)] = true;
  }
}

}  // namespace oregami
