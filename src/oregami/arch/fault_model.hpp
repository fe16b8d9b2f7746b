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
//   * FaultedTopology -- the degraded machine: the base topology with
//                      dead links removed and dead processors isolated.
//                      Processor ids are STABLE (a mapping's processor
//                      numbers mean the same thing before and after the
//                      fault); only link ids are renumbered, and the
//                      view carries the translation both ways. The
//                      degraded link graph is a Custom-family Topology,
//                      so distance queries fall back to the thread-safe
//                      BFS table (closed-form oracles are wrong once
//                      links are missing) and unreachable pairs report
//                      -1.
//
// Every construction is deterministic: identical (FaultSpec, seed)
// yields a byte-identical faulted topology, which the repair ladder
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

/// The degraded machine: base topology + FaultSpec, precomputed alive /
/// healthy sets and the link-id translation between the base and the
/// degraded link graphs.
///
/// "Alive" means not dead; "healthy" means alive AND a member of the
/// largest connected component of the degraded link graph (ties broken
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

  /// The degraded link graph as a Custom-family Topology: same
  /// processor count as the base (dead processors are isolated
  /// vertices), surviving links only, renumbered densely in base-id
  /// order.
  [[nodiscard]] const Topology& faulted() const { return faulted_; }

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

  [[nodiscard]] int num_alive_procs() const { return num_alive_procs_; }
  [[nodiscard]] int num_alive_links() const {
    return faulted_.num_links();
  }

  /// True when every alive processor sits in one connected component
  /// of the degraded graph.
  [[nodiscard]] bool fully_connected() const { return fully_connected_; }

  /// The healthy processors (largest surviving component), ascending.
  [[nodiscard]] const std::vector<int>& healthy_procs() const {
    return healthy_procs_;
  }
  [[nodiscard]] bool healthy(int p) const {
    return healthy_[static_cast<std::size_t>(p)] != 0;
  }

  /// Link-id translation. faulted -> base is total; base -> faulted
  /// returns -1 for a dead base link.
  [[nodiscard]] int base_link_of(int faulted_link) const {
    return fault_to_base_link_[static_cast<std::size_t>(faulted_link)];
  }
  [[nodiscard]] int faulted_link_of(int base_link) const {
    return base_to_fault_link_[static_cast<std::size_t>(base_link)];
  }

  /// True when a route (base link ids) touches no dead processor or
  /// dead link.
  [[nodiscard]] bool route_alive(const Route& route) const;

  /// Rewrites a route's link ids between the two numberings. The node
  /// sequence is unchanged (processor ids are stable). to_faulted
  /// throws MappingError when the route crosses a dead link or dead
  /// processor.
  [[nodiscard]] Route to_base(Route faulted_route) const;
  [[nodiscard]] Route to_faulted(Route base_route) const;

  /// Per-link serialisation factors for the degraded link graph
  /// (index = faulted link id), ready to hand to IncrementalCompletion
  /// so repair scoring charges slowed links their real cost.
  [[nodiscard]] std::vector<std::int64_t> faulted_link_factors() const;

  /// The healthy component as a standalone compacted Custom topology
  /// (processors renumbered 0..H-1), with translation tables back to
  /// base ids. Used by the full-remap rung, which runs the regular
  /// MAPPER pipeline on the shrunken machine.
  struct HealthySub {
    Topology topo;
    std::vector<int> to_base_proc;  ///< sub proc id -> base proc id
    std::vector<int> to_base_link;  ///< sub link id -> base link id
  };
  [[nodiscard]] HealthySub healthy_subtopology() const;

 private:
  const Topology* base_;
  FaultSpec spec_;
  std::vector<char> dead_proc_;          ///< per base proc
  std::vector<char> dead_link_;          ///< per base link (incl. links at dead procs)
  std::vector<std::int64_t> slowdown_;   ///< per base link, >= 1
  Topology faulted_;
  std::vector<int> fault_to_base_link_;
  std::vector<int> base_to_fault_link_;
  std::vector<int> healthy_procs_;
  std::vector<char> healthy_;
  int num_alive_procs_ = 0;
  bool fully_connected_ = false;
};

/// Rewrites a mapping computed on `sub.topo` (the compacted healthy
/// machine) into base processor and link ids.
[[nodiscard]] Mapping map_to_base(const FaultedTopology::HealthySub& sub,
                                  Mapping mapping);

}  // namespace oregami
