// The benchmark's workloads (see perfbench/README.md for why each was
// chosen and which layers it loads or bypasses).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Every per-layer metric a traced run reports, with its unit, in print
/// order. A workload that never reaches a layer reports it as 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// The per-layer values of one traced run, keyed like per_layer_metrics().
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  /// Appends every metric, in per_layer_metrics() order, to `result`.
  void emit(RunResult& result) const;

 private:
  std::vector<double> values_;
};

/// serve_hits (`hits` = true) and serve_misses: server::serve() fed by a
/// seeded Poisson stream at a fixed offered rate.
[[nodiscard]] RunResult run_serve_workload(const Args& args, bool hits);

/// map_100k: closed loop of 99,856-task torus_stencil maps onto
/// torus:64x64 with the multilevel V-cycle.
[[nodiscard]] RunResult run_map_100k(const Args& args);

}  // namespace perfbench
