// Textual topology specifications for tools and configuration files:
//   "hypercube:3"   "mesh:4x4"   "torus:4x8"   "ring:8"   "chain:5"
//   "cbt:4"         "star:8"     "complete:6"  "butterfly:3"
//   "mesh3d:2x3x4"
#pragma once

#include <string>

#include "oregami/arch/topology.hpp"

namespace oregami {

/// Parses a spec string; throws MappingError with a usage hint on
/// malformed input, and naming the bound on a size the family's factory
/// rejects or one past the caps (2^20 processors, 2^24 links).
[[nodiscard]] Topology parse_topology_spec(const std::string& spec);

/// The list of accepted forms (for usage/help text).
[[nodiscard]] std::string topology_spec_help();

}  // namespace oregami
