// Fault injection over a Topology (graceful degradation, ROADMAP
// north-star): a production mapping service must keep answering when
// processors and links die, so the target architecture becomes a
// *mutable, failure-prone* object instead of a fixed network.
//
// The model has two layers:
//   * FaultSpec     -- a plain, serialisable description of what broke:
//                      dead processors, dead links, and slowed links
//                      (a link that still works but serialises volume
//                      `factor` times slower). Specs can be written by
//                      hand, parsed from the CLI grammar, or drawn
//                      deterministically from a seed.
//   * FaultedTopology -- the degraded machine. It answers liveness
//                      questions in base ids (alive processors and
//                      links, slowdowns, the one check that a mapping
//                      avoids every dead part) and holds the one
//                      degraded Topology: the healthy sub-machine, the
//                      largest surviving component compacted into a
//                      Custom-family topology. Mapping and repair run
//                      on that machine and translate back to base ids;
//                      its distance queries use the thread-safe BFS
//                      table (closed-form oracles are wrong once links
//                      are missing).
//
// Every construction is deterministic: identical (FaultSpec, seed)
// yields a byte-identical healthy machine, which the repair ladder
// (mapper/repair.hpp) relies on for its reproducibility contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"

namespace oregami {

/// A link that survives but serialises `factor` times slower.
struct SlowLink {
  int link = 0;    ///< base-topology link id
  int factor = 2;  ///< >= 1; 1 means "not actually slowed"
};

/// A deterministic description of injected faults, in base-topology
/// ids. A default-constructed spec is the healthy machine.
struct FaultSpec {
  std::vector<int> dead_procs;
  std::vector<int> dead_links;      ///< base link ids
  std::vector<SlowLink> slow_links;

  [[nodiscard]] bool empty() const {
    return dead_procs.empty() && dead_links.empty() && slow_links.empty();
  }

  /// Sorts and deduplicates the fault lists (duplicate slow factors on
  /// one link multiply). Normalised specs compare bytewise.
  void normalise();

  /// Throws MappingError unless every id is in range for `topo`, every
  /// slow factor is >= 1, and no slowed link is also dead.
  void validate(const Topology& topo) const;

  /// Draws a spec with exactly the requested fault counts from a
  /// SplitMix64 stream (deterministic in `seed`). Slow factors are
  /// uniform in [2, max_factor]. Counts are clamped to the available
  /// processors/links; dead and slowed link sets are disjoint.
  [[nodiscard]] static FaultSpec random_spec(const Topology& topo,
                                             int num_dead_procs,
                                             int num_dead_links,
                                             int num_slow_links,
                                             std::uint64_t seed,
                                             int max_factor = 8);

  /// Parses the CLI grammar: comma-separated tokens
  ///   pN        dead processor N
  ///   lN        dead link N (base link id)
  ///   lU-V      dead link between processors U and V
  ///   sN:F      link N slowed by factor F
  ///   sU-V:F    link between U and V slowed by factor F
  ///   rand:PxLxS   P random dead processors, L dead links, S slowed
  ///                links drawn from `seed`
  /// Throws MappingError (with the offending token) on malformed input
  /// or ids that do not exist in `topo`.
  [[nodiscard]] static FaultSpec parse(const std::string& text,
                                       const Topology& topo,
                                       std::uint64_t seed = 0);

  /// Renders back into the parse() grammar (normalised order).
  [[nodiscard]] std::string to_string() const;

  /// Grammar summary for CLI usage text.
  [[nodiscard]] static std::string grammar_help();
};

/// The degraded machine: base topology + FaultSpec, the alive sets and
/// the healthy sub-machine, all built once at construction.
///
/// "Alive" means not dead; "healthy" means alive AND a member of the
/// largest connected component of the surviving links (ties broken
/// toward the component containing the lowest processor id). Mapping
/// repair places tasks only on healthy processors, because routes
/// between distinct surviving components do not exist.
class FaultedTopology {
 public:
  /// Validates and normalises `spec` against `base`. The base topology
  /// is captured by reference and must outlive the view.
  FaultedTopology(const Topology& base, FaultSpec spec);

  [[nodiscard]] const Topology& base() const { return *base_; }
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  [[nodiscard]] bool proc_alive(int p) const {
    return dead_proc_[static_cast<std::size_t>(p)] == 0;
  }
  [[nodiscard]] bool link_alive(int base_link) const {
    return dead_link_[static_cast<std::size_t>(base_link)] == 0;
  }
  /// Serialisation multiplier of an alive base link (>= 1).
  [[nodiscard]] std::int64_t link_slowdown(int base_link) const {
    return slowdown_[static_cast<std::size_t>(base_link)];
  }
  /// link_slowdown() of every base link (index = base link id; a dead
  /// link reads 1), ready to pass as a `link_factor`.
  [[nodiscard]] const std::vector<std::int64_t>& link_slowdowns() const {
    return slowdown_;
  }

  [[nodiscard]] int num_alive_links() const { return num_alive_links_; }

  /// True when a route (base link ids) crosses no dead link and no
  /// link with a dead endpoint. A 0-hop route touches only its task's
  /// processor, which check_placement() covers.
  [[nodiscard]] bool route_alive(const Route& route) const;

  /// The one check that a mapping (in base ids) is alive on this
  /// machine, in two parts: the placement, and the routes of one comm
  /// phase. Each throws MappingError naming the first task on a dead
  /// processor, or the first message routed across a dead link or
  /// processor. check_routes() assumes check_placement() has passed:
  /// it cannot see the processor of a 0-hop route.
  void check_placement(const std::vector<int>& proc_of_task) const;
  void check_routes(int phase_index, const PhaseRouting& routing) const;

  /// The healthy component as a standalone compacted Custom topology.
  /// Processors and links are numbered in ascending base-id order, so
  /// every lowest-id tie-break on it resolves as on the base machine.
  struct HealthySub {
    Topology topo;
    std::vector<int> to_base_proc;    ///< sub proc id -> base proc id
    std::vector<int> to_base_link;    ///< sub link id -> base link id
    std::vector<int> from_base_proc;  ///< base proc id -> sub id, or -1
    /// link_slowdown() of each sub link's base link, ready to pass as a
    /// `link_factor` for scoring on `topo`.
    std::vector<std::int64_t> link_factor;
  };
  [[nodiscard]] const HealthySub& healthy_subtopology() const {
    return sub_;
  }

  /// The healthy processors (base ids), ascending.
  [[nodiscard]] const std::vector<int>& healthy_procs() const {
    return sub_.to_base_proc;
  }
  [[nodiscard]] bool healthy(int p) const {
    return sub_.from_base_proc[static_cast<std::size_t>(p)] >= 0;
  }

 private:
  const Topology* base_;
  FaultSpec spec_;
  std::vector<char> dead_proc_;          ///< per base proc
  std::vector<char> dead_link_;          ///< per base link (incl. links at dead procs)
  std::vector<std::int64_t> slowdown_;   ///< per base link, >= 1
  int num_alive_links_ = 0;
  HealthySub sub_;
};

/// Rewrites a mapping computed on `sub.topo` (the compacted healthy
/// machine) into base processor and link ids.
[[nodiscard]] Mapping map_to_base(const FaultedTopology::HealthySub& sub,
                                  Mapping mapping);

}  // namespace oregami
