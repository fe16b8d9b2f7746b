// Release-only scale smoke: 10k tasks onto torus:64x64 must map in a
// handful of seconds (the ctest TIMEOUT in tests/CMakeLists.txt is the
// wall-clock ceiling) and produce a valid mapping. This is the tier-1
// guard for the "map 100k+ tasks in seconds" ROADMAP target — the
// 100k point itself lives in bench_multilevel (OREGAMI_BENCH_FULL=1)
// because it needs minutes of flat-baseline time to compare against.
#include <gtest/gtest.h>

#include "oregami/core/synthetic.hpp"
#include "oregami/mapper/multilevel.hpp"
#include "oregami/metrics/metrics.hpp"

namespace oregami {
namespace {

TEST(MultilevelScale, TenThousandTasksOnTorus64) {
  const TaskGraph graph = make_stencil2d(100, 100, 0x5CA1EULL);
  const Topology topo = Topology::torus(64, 64);
  const MapperReport report = map_multilevel(graph, topo);
  EXPECT_NO_THROW(validate_mapping(report.mapping, graph, topo));
  EXPECT_GT(completion_time(graph, report.mapping.proc_of_task(),
                            report.mapping.routing, topo),
            0);
}

}  // namespace
}  // namespace oregami
