// Algorithm NN-Embed (paper §4.3): greedy embedding that places highly
// communicating clusters on adjacent (or near) processors.
//
// Seed: the heaviest cluster edge goes on a link whose endpoints have
// maximal degree. Growth: repeatedly take the unplaced cluster with the
// largest total communication to already-placed clusters and put it on
// the free processor minimising the weighted sum of hop distances to
// its placed neighbours. Deterministic tie-breaking throughout
// (lowest id).
//
// The greedy objective ties constantly on symmetric topologies, so the
// tie-break *is* a search dimension: nn_embed_seeded replaces the
// lowest-id rule with a uniform choice among the tied candidates, drawn
// from a caller-seeded SplitMix64. Same seed -> same embedding, which
// is what the portfolio mapper's determinism contract builds on.
//
// Cost of one growth step (C clusters, P processors): one id-order scan
// of the clusters, reading each one's communication to the placed set
// (kept current as clusters are placed, so O(1) per cluster); one
// weighted distance row per placed neighbour of the chosen cluster
// (Topology::accumulate_distance_row, O(P) each, no per-pair oracle
// call); and one id-order scan of the processors over that cost
// vector. So O(C + P * k) per step for k placed neighbours, and
// O(C * (C + P * k)) for a whole embedding.
#pragma once

#include <cstdint>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/graph/graph.hpp"

namespace oregami {

/// Embeds `cluster_graph` (one vertex per cluster, weights = inter-
/// cluster communication) into `topo`. Requires
/// cluster_graph.num_vertices() <= topo.num_procs(); throws
/// MappingError otherwise.
[[nodiscard]] Embedding nn_embed(const Graph& cluster_graph,
                                 const Topology& topo);

/// NN-Embed with seeded uniform tie-breaking instead of lowest-id: the
/// greedy decisions (seed edge/link, growth order, processor choice)
/// pick uniformly among tied candidates. Deterministic in `seed`.
[[nodiscard]] Embedding nn_embed_seeded(const Graph& cluster_graph,
                                        const Topology& topo,
                                        std::uint64_t seed);

/// The weighted-dilation objective NN-Embed greedily optimises:
/// sum over cluster edges of weight * hop-distance of their processors.
[[nodiscard]] std::int64_t weighted_dilation(const Graph& cluster_graph,
                                             const Embedding& embedding,
                                             const Topology& topo);

}  // namespace oregami
