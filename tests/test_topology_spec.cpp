#include <gtest/gtest.h>

#include <string>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

TEST(TopologySpec, AllFamiliesParse) {
  EXPECT_EQ(parse_topology_spec("hypercube:3").num_procs(), 8);
  EXPECT_EQ(parse_topology_spec("cube:4").family(), TopoFamily::Hypercube);
  EXPECT_EQ(parse_topology_spec("mesh:4x5").num_procs(), 20);
  EXPECT_EQ(parse_topology_spec("grid:2x3").family(), TopoFamily::Mesh);
  EXPECT_EQ(parse_topology_spec("torus:3x4").num_procs(), 12);
  EXPECT_EQ(parse_topology_spec("ring:9").family(), TopoFamily::Ring);
  EXPECT_EQ(parse_topology_spec("chain:5").num_procs(), 5);
  EXPECT_EQ(parse_topology_spec("cbt:3").num_procs(), 7);
  EXPECT_EQ(parse_topology_spec("tree:4").family(),
            TopoFamily::CompleteBinaryTree);
  EXPECT_EQ(parse_topology_spec("star:6").num_procs(), 6);
  EXPECT_EQ(parse_topology_spec("complete:5").num_links(), 10);
  EXPECT_EQ(parse_topology_spec("clique:4").family(),
            TopoFamily::Complete);
  EXPECT_EQ(parse_topology_spec("butterfly:2").num_procs(), 12);
  EXPECT_EQ(parse_topology_spec("mesh3d:2x3x4").num_procs(), 24);
}

TEST(TopologySpec, MalformedSpecsThrow) {
  EXPECT_THROW((void)parse_topology_spec(""), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh"), MappingError);
  EXPECT_THROW((void)parse_topology_spec(":4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:4x4x4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:4xx4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:axb"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("frobnitz:4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("hypercube:3x3"), MappingError);
}

TEST(TopologySpec, SizesTheFactoriesRejectThrowNamingSpecAndBound) {
  // Past these bounds a factory asserts (an abort) or allocates more
  // than the machine holds.
  for (const char* spec :
       {"ring:2", "torus:2x2", "hypercube:21", "mesh:0x4", "cbt:0", "star:1",
        "chain:0", "butterfly:0", "mesh3d:0x1x1", "complete:1", "cbt:31",
        "ring:99999999999", "complete:100000", "butterfly:13",
        "mesh:2048x1024", "mesh3d:1024x1024x2", "torus:3x999999"}) {
    SCOPED_TRACE(spec);
    try {
      (void)parse_topology_spec(spec);
      ADD_FAILURE() << "accepted";
    } catch (const MappingError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + spec + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("out of range: "), std::string::npos) << what;
    }
  }
}

TEST(TopologySpec, SmallestSizesEachFamilyAcceptsParse) {
  EXPECT_EQ(parse_topology_spec("hypercube:0").num_procs(), 1);
  EXPECT_EQ(parse_topology_spec("mesh:1x1").num_procs(), 1);
  EXPECT_EQ(parse_topology_spec("torus:3x3").num_procs(), 9);
  EXPECT_EQ(parse_topology_spec("ring:3").num_procs(), 3);
  EXPECT_EQ(parse_topology_spec("chain:1").num_procs(), 1);
  EXPECT_EQ(parse_topology_spec("cbt:1").num_procs(), 1);
  EXPECT_EQ(parse_topology_spec("star:2").num_procs(), 2);
  EXPECT_EQ(parse_topology_spec("complete:2").num_links(), 1);
  EXPECT_EQ(parse_topology_spec("butterfly:1").num_procs(), 4);
  EXPECT_EQ(parse_topology_spec("mesh3d:1x1x1").num_procs(), 1);
  EXPECT_EQ(parse_topology_spec("mesh:1024x1").num_procs(), 1024);
}

TEST(TopologySpec, ErrorsIncludeHelp) {
  try {
    (void)parse_topology_spec("nope:1");
    FAIL();
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("hypercube:D"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace oregami
