// Seeded mutation harness for the input grammars, on the pattern of
// test_larcs_robustness.cpp: seeded bit flips, deletions and
// truncations of CI server-smoke's job lines must parse or throw a
// WireError, of one topology spec per family and of fault specs on
// mesh:4x4 must parse or throw a MappingError, and of failpoint
// schedules must arm or throw std::invalid_argument. Any other
// exception, a crash or a hang is a bug: every byte of a job line comes
// from a client, and fault specs and schedules come from the command
// line.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

/// One to three edits: flip one bit of a byte, delete a short span, or
/// truncate.
std::string mutate(std::string text, SplitMix64& rng) {
  const std::uint64_t edits = 1 + rng.next_below(3);
  for (std::uint64_t i = 0; i < edits && !text.empty(); ++i) {
    const std::size_t pos = rng.next_below(text.size());
    switch (rng.next_below(3)) {
      case 0:
        text[pos] = static_cast<char>(static_cast<unsigned char>(text[pos]) ^
                                      (1u << rng.next_below(8)));
        break;
      case 1:
        text.erase(pos, 1 + rng.next_below(8));
        break;
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

/// Runs `parse` on 300 mutants of each input; each must return or throw
/// `Error`.
template <class Error, class Parse>
void expect_mutants_parse_or_throw(const std::vector<std::string>& inputs,
                                   Parse parse) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SplitMix64 rng(0x5EEDF00DULL + i);
    for (int trial = 0; trial < 300; ++trial) {
      const std::string mutant = mutate(inputs[i], rng);
      try {
        parse(mutant);
      } catch (const Error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "input " << i << " mutant #" << trial << " '"
                      << mutant << "' threw: " << e.what();
      }
    }
  }
}

TEST(InputMutation, JobLinesParseOrThrowWireError) {
  const std::vector<std::string> lines = {
      R"({"id":101,"program":"jacobi","bind":{"n":8,"iters":10},"topology":"mesh:4x4"})",
      R"({"id":102,"program":"nbody","bind":{"n":15,"s":4,"m":8},"topology":"mesh:4x4","options":{"portfolio":4}})",
      R"({"id":103,"program":"sor","bind":{"n":8,"iters":10},"topology":"ring:16"})",
      R"({"id":104,"program":"cbt_reduce","bind":{"h":4},"topology":"cbt:4"})",
      R"({"id":401,"larcs":"algorithm jacobi(n, iters); family mesh; nodetype cell[i: 0 .. n-1, j: 0 .. n-1]; comphase exchange { cell(i, j) -> cell(i + 1, j) when i < n - 1 volume 1; cell(i, j) -> cell(i - 1, j) when i > 0 volume 1; cell(i, j) -> cell(i, j + 1) when j < n - 1 volume 1; cell(i, j) -> cell(i, j - 1) when j > 0 volume 1; } exphase relax cost 5; phases (relax; exchange)^iters;","bind":{"n":8,"iters":10},"topology":"mesh:4x4"})",
      R"({"id":402,"program":"nbody","bind":{"m":8,"s":4,"n":15},"topology":"mesh:4x4","options":{"portfolio":4}})",
      R"({"id":403,"program":"sor","bind":{"n":8,"iters":10},"topology":"ring:16","options":{"jobs":4}})",
      "this line is not json",
      R"({"id":900,"program":"no-such-program","topology":"mesh:4x4"})",
      R"({"id":901,"program":"jacobi","bind":{"n":8,"iters":10},"topology":"taurus"})",
      R"({"id":902,"program":"jacobi","bind":{"n":8,"iters":10},"topology":"mesh:4x4","deadline_ms":-1})",
      R"({"id":903,"program":"jacobi","topology":"mesh:4x4","options":{"anneal":2}})",
  };
  expect_mutants_parse_or_throw<server::WireError>(
      lines, [](const std::string& line) { (void)server::parse_job(line, 1); });
}

TEST(InputMutation, TopologySpecsParseOrThrowMappingError) {
  const std::vector<std::string> specs = {
      "hypercube:3", "mesh:4x4",   "torus:4x8",   "ring:8",
      "chain:5",     "cbt:4",      "star:8",      "complete:6",
      "butterfly:3", "mesh3d:2x3x4"};
  expect_mutants_parse_or_throw<MappingError>(
      specs, [](const std::string& spec) { (void)parse_topology_spec(spec); });
}

TEST(InputMutation, FaultSpecsParseOrThrowMappingError) {
  // Every token kind: pN, lN, lU-V, sN:F, sU-V:F and rand:PxLxS.
  const std::vector<std::string> specs = {
      "p5",         "l3",          "l0-1",        "s1:8",
      "s0-4:3",     "rand:2x3x1",  "p5,l3,s1:8",  "l0-1,l0-4",
      "rand:1x1x0,p2,s4-5:2",      "p0,p15,l23,s12:9"};
  const Topology topo = parse_topology_spec("mesh:4x4");
  for (const std::string& spec : specs) {
    EXPECT_NO_THROW((void)FaultSpec::parse(spec, topo, 7)) << spec;
  }
  expect_mutants_parse_or_throw<MappingError>(
      specs, [&topo](const std::string& spec) {
        (void)FaultSpec::parse(spec, topo, 7);
      });
}

TEST(InputMutation, FailpointSchedulesArmOrThrowInvalidArgument) {
  // Every action and spec form: err, short, throw, hang with and
  // without an argument; @N, @N+, @*, @pPCTsSEED and no spec.
  const std::vector<std::string> schedules = {
      "persist.write:err@3",
      "job.run:hang(200)@7",
      "persist.write:short@2+",
      "job.run:throw@*",
      "persist.fsync:err@p50s7",
      "persist.write:err@3,job.run:hang(200)@7",
      "job.run:hang",
      "persist.compact:short,persist.write:throw@1+,job.run:err@p5s99"};
  for (const std::string& schedule : schedules) {
    EXPECT_NO_THROW(failpoint::configure(schedule)) << schedule;
    failpoint::clear();
  }
  expect_mutants_parse_or_throw<std::invalid_argument>(
      schedules, [](const std::string& schedule) {
        struct Disarm {
          ~Disarm() { failpoint::clear(); }
        } disarm;
        failpoint::configure(schedule);
      });
}

}  // namespace
}  // namespace oregami
