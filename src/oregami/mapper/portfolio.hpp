// The parallel portfolio mapper: instead of walking the Fig-3 decision
// tree once, run *every* admissible strategy plus N seeded variants of
// the general path concurrently, score each complete mapping with the
// METRICS completion-time model at its default costs, and keep the
// best. Portfolio / multi-start search dominates single-shot heuristics
// for static mapping (Glantz et al.), and the candidates here are
// embarrassingly parallel -- each owns its RNG and only reads the
// shared task graph and (pre-warmed) topology.
//
// Determinism contract: the result is a pure function of the inputs
// and `PortfolioOptions::seed`. Worker count and OS scheduling never
// change it, because
//   * the candidate list is enumerated up front in a fixed order and
//     each candidate id derives its own SplitMix64 stream from
//     (seed, id) -- no shared RNG, no rng-draw races;
//   * candidates never communicate; results are collected by candidate
//     id, not completion order;
//   * the winner is the minimum of (completion, external IPC,
//     candidate id) -- ties break by id, never by "first finished".
//
// Candidate 0 is always the exact single-shot pipeline the caller
// would have run with portfolio mode off, so best-of-N can only match
// or beat single-shot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oregami/mapper/driver.hpp"

namespace oregami {

struct PortfolioOptions {
  /// N: seeded general-path variants (load bound x refine x NN-Embed
  /// tie-break seed), in addition to the strategy candidates.
  int num_seeded = 8;
  /// Worker threads; 0 = hardware_concurrency. Never affects results.
  int jobs = 1;
  /// Base seed; candidate i uses an independent stream derived from
  /// (seed, i).
  std::uint64_t seed = 0x09E6A311u;
  /// Extended candidate families, both off by default so golden
  /// portfolio outputs stay byte-identical. `num_anneal` > 0 appends
  /// that many simulated-annealing candidates (mapper/anneal.hpp), each
  /// chaining from the deterministic general-path mapping with its own
  /// (seed, id)-derived move stream; `heft` appends the HEFT
  /// critical-path list-scheduling candidate (mapper/list_schedule.hpp).
  /// Extended candidates are appended AFTER the seeded variants, so
  /// enabling them never renumbers the existing candidate ids.
  int num_anneal = 0;
  bool heft = false;
  /// Chain length of each annealing candidate.
  int anneal_iterations = 4000;
  /// Wall-clock deadline for the search, in milliseconds. 0 = no
  /// deadline. Candidate 0 (the exact single-shot pipeline) ALWAYS
  /// runs, so the search still returns a mapping; every other
  /// candidate checks the deadline when its task starts and is skipped
  /// (reported as "skipped (deadline)") once it has passed. The
  /// deadline is armed once, when the search starts: once it passes, a
  /// running SA chain stops and HEFT places its remaining tasks by its
  /// fallback rule. A deadline only ever shrinks the completed set --
  /// the winner among completed candidates is still the deterministic
  /// (completion, external IPC, id) minimum. Negative = already
  /// expired, so exactly candidate 0 runs (deterministic; used by the
  /// deadline tests).
  std::int64_t time_budget_ms = 0;
};

/// Builds PortfolioOptions from the portfolio fields of MapperOptions,
/// the time budget included (used by the map_computation/map_program
/// opt-in dispatch).
[[nodiscard]] PortfolioOptions portfolio_options_from(
    const MapperOptions& options);

/// One scored portfolio candidate (kept for the report table even when
/// the candidate was inadmissible or infeasible).
struct PortfolioCandidate {
  int id = 0;
  std::string label;     ///< e.g. "general B=5 refine nn-seed"
  bool ok = false;       ///< produced a valid mapping
  bool skipped = false;  ///< deadline skipped the candidate entirely
  std::string note;      ///< strategy details, or why it failed
  MapStrategy strategy = MapStrategy::General;
  std::int64_t completion = 0;    ///< modelled completion time
  std::int64_t external_ipc = 0;  ///< multiplicity-weighted cross-proc volume
  /// Maximum multiplicity-weighted per-processor exec load (the third
  /// Pareto objective; deliberately NOT a table() column so the golden
  /// candidate table stays byte-pinned).
  std::int64_t max_load = 0;
  Mapping mapping;                ///< empty when !ok
  /// Wall-clock time the candidate's task spent running (or, for a
  /// skipped candidate, the elapsed search time at the moment the
  /// deadline skipped it). Timing-only: never part of table() or any
  /// determinism contract.
  double wall_ms = 0.0;
  /// Modelled per-phase decomposition of `completion` (index-aligned
  /// with the task graph's comm/exec phases); empty when !ok. Feeds
  /// the --explain provenance report.
  std::vector<std::int64_t> comm_cost;
  std::vector<std::int64_t> exec_cost;
};

struct PortfolioReport {
  MapperReport best;  ///< winning candidate as a regular MapperReport
  int best_id = -1;
  std::vector<PortfolioCandidate> candidates;  ///< in candidate-id order
  /// Why the winner won: 1 = strictly best completion, 2 = tied
  /// completion broken by external IPC, 3 = exact (completion, IPC)
  /// tie broken by lowest candidate id.
  int tie_level = 1;
  /// Human-readable version of the above (deterministic).
  std::string win_reason;
  /// Phase names + multiplicities captured from the task graph so the
  /// provenance report is self-contained.
  std::vector<std::string> comm_phase_names;
  std::vector<std::string> exec_phase_names;
  std::vector<long> comm_phase_mult;
  std::vector<long> exec_phase_mult;
  /// Wall-clock duration of the whole search (timing-only).
  double elapsed_ms = 0.0;

  /// Fixed-width per-candidate report table (deterministic; contains
  /// no timing or worker-count information).
  [[nodiscard]] std::string table() const;

  /// table() plus per-candidate wall-time columns; skipped candidates
  /// show the elapsed search time at which the deadline cut them off
  /// instead of no timing at all. NOT deterministic (wall clock); the
  /// CLI prints this one, tests pin table().
  [[nodiscard]] std::string timed_table() const;

  /// Decision-provenance report: the candidate table, the winning
  /// candidate's per-phase cost breakdown, and the reason it won
  /// (tie-break level included). Deterministic unless `with_timing`.
  [[nodiscard]] std::string explain(bool with_timing = false) const;

  /// Candidate ids on the Pareto front of (completion, external IPC,
  /// max exec load), all minimised: a candidate is kept iff no other
  /// feasible candidate is at least as good on every objective and
  /// strictly better on one (among exact-triple ties only the lowest
  /// id survives). Sorted by (completion, external IPC, max load, id);
  /// deterministic.
  [[nodiscard]] std::vector<int> pareto_front() const;

  /// The Pareto front rendered as a fixed-width table (deterministic;
  /// no timing). The portfolio winner is marked when it sits on the
  /// front; when another candidate dominates it on max load, it is
  /// appended as an explicitly-marked extra row instead, so the winner
  /// is always visible.
  [[nodiscard]] std::string pareto() const;
};

/// Portfolio search over a bare task graph: candidates are the
/// single-shot pipeline, each admissible Fig-3 strategy, the general
/// path with refinement toggled, and `options.num_seeded` seeded
/// general variants. Throws MappingError when no candidate is
/// feasible.
[[nodiscard]] PortfolioReport portfolio_map_computation(
    const TaskGraph& graph, const Topology& topo,
    const MapperOptions& base = {},
    const PortfolioOptions& options = {});

/// Portfolio search for a compiled LaRCS program: additionally fields
/// a systolic-synthesis candidate when admissible.
[[nodiscard]] PortfolioReport portfolio_map_program(
    const larcs::Program& program, const larcs::CompiledProgram& compiled,
    const Topology& topo, const MapperOptions& base = {},
    const PortfolioOptions& options = {});

}  // namespace oregami
