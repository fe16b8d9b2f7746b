#include "oregami/arch/topology_spec.hpp"

#include <cstdint>
#include <vector>

#include "oregami/support/error.hpp"

namespace oregami {

namespace {

// The largest machine a spec may name. hypercube:20 is the largest the
// factories accept; the link cap keeps complete:N from asking for
// N^2 / 2 links.
constexpr std::int64_t kMaxProcs = std::int64_t{1} << 20;
constexpr std::int64_t kMaxLinks = std::int64_t{1} << 24;

[[noreturn]] void out_of_range(const std::string& spec,
                               const std::string& bound) {
  throw MappingError("topology spec '" + spec + "' is out of range: " +
                     bound);
}

// Every dimension is at most kMaxProcs (as a count it names that many
// processors; as an exponent far more), so the digits cannot overflow.
std::vector<int> parse_dims(const std::string& text,
                            const std::string& spec) {
  std::vector<int> dims;
  int value = 0;
  bool have_digit = false;
  for (const char c : text + "x") {
    if (c >= '0' && c <= '9') {
      value = value * 10 + (c - '0');
      have_digit = true;
      if (value > kMaxProcs) {
        out_of_range(spec, "a dimension above " + std::to_string(kMaxProcs));
      }
    } else if (c == 'x') {
      if (!have_digit) {
        throw MappingError("bad topology spec '" + spec + "'\n" +
                           topology_spec_help());
      }
      dims.push_back(value);
      value = 0;
      have_digit = false;
    } else {
      throw MappingError("bad topology spec '" + spec + "'\n" +
                         topology_spec_help());
    }
  }
  return dims;
}

}  // namespace

Topology parse_topology_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw MappingError("bad topology spec '" + spec + "'\n" +
                       topology_spec_help());
  }
  const std::string family = spec.substr(0, colon);
  const auto dims = parse_dims(spec.substr(colon + 1), spec);
  auto expect_dims = [&](std::size_t count) {
    if (dims.size() != count) {
      throw MappingError("topology '" + family + "' expects " +
                         std::to_string(count) + " dimension(s)\n" +
                         topology_spec_help());
    }
  };
  // Each family's factory precondition (the factories assert the same),
  // then the caps. parse_dims already bounds a one-dimension count.
  auto require = [&](bool ok, const std::string& bound) {
    if (!ok) {
      out_of_range(spec, bound);
    }
  };
  auto require_procs = [&](std::int64_t procs) {
    require(procs <= kMaxProcs,
            "at most " + std::to_string(kMaxProcs) + " processors");
  };
  if (family == "hypercube" || family == "cube") {
    expect_dims(1);
    require(dims[0] <= 20, "D <= 20");
    return Topology::hypercube(dims[0]);
  }
  if (family == "mesh" || family == "grid") {
    expect_dims(2);
    require(dims[0] >= 1 && dims[1] >= 1, "R, C >= 1");
    require_procs(std::int64_t{dims[0]} * dims[1]);
    return Topology::mesh(dims[0], dims[1]);
  }
  if (family == "torus") {
    expect_dims(2);
    require(dims[0] >= 3 && dims[1] >= 3, "R, C >= 3");
    require_procs(std::int64_t{dims[0]} * dims[1]);
    return Topology::torus(dims[0], dims[1]);
  }
  if (family == "ring") {
    expect_dims(1);
    require(dims[0] >= 3, "P >= 3");
    return Topology::ring(dims[0]);
  }
  if (family == "chain") {
    expect_dims(1);
    require(dims[0] >= 1, "P >= 1");
    return Topology::chain(dims[0]);
  }
  if (family == "cbt" || family == "tree") {
    expect_dims(1);
    require(dims[0] >= 1 && dims[0] <= 20, "1 <= LEVELS <= 20");
    return Topology::complete_binary_tree(dims[0]);
  }
  if (family == "star") {
    expect_dims(1);
    require(dims[0] >= 2, "P >= 2");
    return Topology::star(dims[0]);
  }
  if (family == "complete" || family == "clique") {
    expect_dims(1);
    const std::int64_t p = dims[0];
    require(p >= 2, "P >= 2");
    require(p * (p - 1) / 2 <= kMaxLinks,
            "at most " + std::to_string(kMaxLinks) + " links");
    return Topology::complete(dims[0]);
  }
  if (family == "butterfly") {
    expect_dims(1);
    require(dims[0] >= 1 && dims[0] <= 12, "1 <= K <= 12");
    return Topology::butterfly(dims[0]);
  }
  if (family == "mesh3d") {
    expect_dims(3);
    require(dims[0] >= 1 && dims[1] >= 1 && dims[2] >= 1, "X, Y, Z >= 1");
    require_procs(std::int64_t{dims[0]} * dims[1] * dims[2]);
    return Topology::mesh3d(dims[0], dims[1], dims[2]);
  }
  throw MappingError("unknown topology family '" + family + "'\n" +
                     topology_spec_help());
}

std::string topology_spec_help() {
  return "accepted topology specs:\n"
         "  hypercube:D   mesh:RxC    torus:RxC    ring:P    chain:P\n"
         "  cbt:LEVELS    star:P      complete:P   butterfly:K\n"
         "  mesh3d:XxYxZ";
}

}  // namespace oregami
