// Systolic-array synthesis for uniform recurrences (paper §4.2.1).
//
// When the LaRCS program passes the affine checks (integer-tuple labels
// over a polytope domain, uniform communication functions), the mapping
// problem reduces to classical space-time synthesis: find an integer
// schedule vector lambda with lambda . d >= 1 for every dependence
// vector d (minimising the makespan over the domain box), and allocate
// lattice points to processing elements by projecting along a chosen
// axis. Distinct points on one PE never collide in time because the
// schedule is strictly increasing along the projection axis.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "oregami/core/mapping.hpp"
#include "oregami/larcs/affine.hpp"
#include "oregami/larcs/compiler.hpp"

namespace oregami {

struct SystolicMapping {
  std::vector<long> schedule;  ///< lambda
  int projection_axis = -1;    ///< dropped dimension
  long makespan = 0;           ///< number of time steps
  Contraction contraction;     ///< task -> PE (dense ids)
  std::vector<long> pe_extent; ///< PE array extents (remaining axes)
  std::vector<long> domain_lo; ///< label-domain box bounds
  std::vector<long> domain_hi;
  std::string description;

  /// Time step of a domain point under the schedule, offset so the
  /// earliest point of the box fires at step 0.
  [[nodiscard]] long time_of(std::span<const long> point) const;
};

/// Attempts systolic synthesis. Returns nullopt when the affine checks
/// fail, the domain has more than 3 dimensions, there are no
/// dependences, or no feasible schedule exists with coefficients in
/// [-3, 3].
[[nodiscard]] std::optional<SystolicMapping> systolic_map(
    const larcs::Program& program, const larcs::CompiledProgram& compiled);

}  // namespace oregami
