#include "oregami/mapper/nn_embed.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {

std::int64_t weighted_dilation(const Graph& cluster_graph,
                               const Embedding& embedding,
                               const Topology& topo) {
  std::int64_t total = 0;
  for (const auto& e : cluster_graph.edges()) {
    const int pu = embedding.proc_of_cluster[static_cast<std::size_t>(e.u)];
    const int pv = embedding.proc_of_cluster[static_cast<std::size_t>(e.v)];
    total += e.weight * topo.distance(pu, pv);
  }
  return total;
}

namespace {

// Streaming argmax/argmin with pluggable tie-breaking: without an rng
// the first (lowest-id) candidate wins ties, the historical NN-Embed
// rule; with an rng, ties are resolved by reservoir sampling, so each
// tied candidate is kept with equal probability using O(1) state.
class Pick {
 public:
  explicit Pick(SplitMix64* rng) : rng_(rng) {}

  /// Offers candidate `id` with `key`; `better` true when key strictly
  /// beats the incumbent's key (caller compares; Pick only counts ties).
  void offer(int id, bool better, bool equal) {
    if (chosen_ == -1 || better) {
      chosen_ = id;
      ties_ = 1;
    } else if (equal) {
      ++ties_;
      if (rng_ != nullptr && rng_->next_below(ties_) == 0) {
        chosen_ = id;
      }
    }
  }

  [[nodiscard]] int chosen() const { return chosen_; }

 private:
  SplitMix64* rng_;
  int chosen_ = -1;
  std::uint64_t ties_ = 1;
};

Embedding nn_embed_impl(const Graph& cluster_graph, const Topology& topo,
                        SplitMix64* rng) {
  const int c = cluster_graph.num_vertices();
  const int p = topo.num_procs();
  if (c > p) {
    throw MappingError("nn_embed: more clusters than processors");
  }

  Embedding embedding;
  embedding.proc_of_cluster.assign(static_cast<std::size_t>(c), -1);
  if (c == 0) {
    return embedding;
  }
  std::vector<bool> proc_used(static_cast<std::size_t>(p), false);
  std::vector<bool> placed(static_cast<std::size_t>(c), false);
  // Communication of each cluster with the placed set, kept current as
  // clusters are placed (read only for unplaced clusters).
  std::vector<std::int64_t> weight_to_placed(static_cast<std::size_t>(c), 0);
  int placed_count = 0;

  auto place = [&](int cluster, int proc) {
    embedding.proc_of_cluster[static_cast<std::size_t>(cluster)] = proc;
    proc_used[static_cast<std::size_t>(proc)] = true;
    placed[static_cast<std::size_t>(cluster)] = true;
    ++placed_count;
    for (const auto& a : cluster_graph.neighbors(cluster)) {
      weight_to_placed[static_cast<std::size_t>(a.neighbor)] += a.weight;
    }
  };

  // Seed: heaviest cluster edge onto a max-degree link.
  {
    Pick edge_pick(rng);
    for (int e = 0; e < cluster_graph.num_edges(); ++e) {
      const auto w = cluster_graph.edges()[static_cast<std::size_t>(e)].weight;
      const auto best =
          edge_pick.chosen() == -1
              ? w
              : cluster_graph.edges()[static_cast<std::size_t>(
                                          edge_pick.chosen())]
                    .weight;
      edge_pick.offer(e, w > best, w == best);
    }
    if (edge_pick.chosen() == -1) {
      // No communication at all: fill processors in index order.
      for (int cl = 0; cl < c; ++cl) {
        place(cl, cl);
      }
      return embedding;
    }
    Pick u_pick(rng);
    for (int v = 0; v < p; ++v) {
      const int d = topo.graph().degree(v);
      const int best =
          u_pick.chosen() == -1 ? d : topo.graph().degree(u_pick.chosen());
      u_pick.offer(v, d > best, d == best);
    }
    const int seed_u = u_pick.chosen();
    Pick v_pick(rng);
    for (const auto& a : topo.graph().neighbors(seed_u)) {
      const int d = topo.graph().degree(a.neighbor);
      const int best = v_pick.chosen() == -1
                           ? d
                           : topo.graph().degree(v_pick.chosen());
      v_pick.offer(a.neighbor, d > best, d == best);
    }
    const int seed_v = v_pick.chosen();
    OREGAMI_ASSERT(seed_v != -1, "topology must have at least one link");
    const auto& e =
        cluster_graph.edges()[static_cast<std::size_t>(edge_pick.chosen())];
    place(e.u, seed_u);
    place(e.v, seed_v);
  }

  std::vector<std::int64_t> cost(static_cast<std::size_t>(p));
  while (placed_count < c) {
    // Next cluster: max communication to the placed set.
    Pick next_pick(rng);
    std::int64_t next_weight = -1;
    for (int cl = 0; cl < c; ++cl) {
      if (placed[static_cast<std::size_t>(cl)]) {
        continue;
      }
      const std::int64_t w = weight_to_placed[static_cast<std::size_t>(cl)];
      next_pick.offer(cl, w > next_weight, w == next_weight);
      next_weight =
          weight_to_placed[static_cast<std::size_t>(next_pick.chosen())];
    }
    const int next = next_pick.chosen();
    OREGAMI_ASSERT(next != -1, "an unplaced cluster must exist");

    // Best free processor: minimise weighted distance to placed
    // neighbours. With the lowest-id rule, clusters with no placed
    // neighbours land on the lowest free processor; seeded runs spread
    // them uniformly over the free set. cost[proc] is filled one
    // distance row per placed neighbour.
    std::fill(cost.begin(), cost.end(), 0);
    for (const auto& a : cluster_graph.neighbors(next)) {
      if (placed[static_cast<std::size_t>(a.neighbor)]) {
        topo.accumulate_distance_row(
            embedding.proc_of_cluster[static_cast<std::size_t>(a.neighbor)],
            a.weight, cost);
      }
    }
    Pick proc_pick(rng);
    std::int64_t best_cost = 0;
    for (int proc = 0; proc < p; ++proc) {
      if (proc_used[static_cast<std::size_t>(proc)]) {
        continue;
      }
      const std::int64_t here = cost[static_cast<std::size_t>(proc)];
      const bool first = proc_pick.chosen() == -1;
      proc_pick.offer(proc, !first && here < best_cost,
                      !first && here == best_cost);
      if (first || here < best_cost) {
        best_cost = here;
      }
    }
    place(next, proc_pick.chosen());
  }

  embedding.validate(p);
  return embedding;
}

}  // namespace

Embedding nn_embed(const Graph& cluster_graph, const Topology& topo) {
  return nn_embed_impl(cluster_graph, topo, nullptr);
}

Embedding nn_embed_seeded(const Graph& cluster_graph, const Topology& topo,
                          std::uint64_t seed) {
  SplitMix64 rng(seed);
  return nn_embed_impl(cluster_graph, topo, &rng);
}

}  // namespace oregami
