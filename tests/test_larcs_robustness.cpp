// Fuzz-style robustness harness for the LaRCS front end: mutated and
// truncated variants of every shipped sample must either compile or
// fail with a LarcsError carrying a usable SourceLoc. Crashing,
// hanging, or tripping OREGAMI_ASSERT on *input* (as opposed to
// internal state) is a bug -- malformed source is user data, not a
// precondition violation.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "oregami/larcs/compiler.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/support/error.hpp"

#ifndef OREGAMI_SAMPLES_DIR
#error "OREGAMI_SAMPLES_DIR must point at the repository's samples/"
#endif

namespace oregami {
namespace {

struct Sample {
  const char* file;
  std::map<std::string, long> bindings;
};

const std::vector<Sample>& samples() {
  static const std::vector<Sample> kSamples = {
      {"nbody.larcs", {{"n", 15}, {"s", 4}, {"m", 8}}},
      {"pipeline.larcs", {{"stages", 12}, {"rounds", 100}}},
      {"reduce_tree.larcs", {{"h", 4}}},
      {"wavefront.larcs", {{"n", 8}}},
  };
  return kSamples;
}

std::string read_sample(const char* file) {
  const std::string path = std::string(OREGAMI_SAMPLES_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int line_count(const std::string& text) {
  int lines = 1;
  for (const char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  return lines;
}

/// Deterministic xorshift so every run exercises the same mutants.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Compiles `source`; the only acceptable failure is a LarcsError whose
/// SourceLoc points into (or just past) the text.
void expect_compiles_or_located_error(const std::string& source,
                                      const Sample& sample,
                                      const std::string& what) {
  try {
    (void)larcs::compile_source(source, sample.bindings);
  } catch (const LarcsError& e) {
    const SourceLoc& loc = e.loc();
    EXPECT_GE(loc.line, 1) << sample.file << " " << what
                           << ": unlocated LarcsError: " << e.what();
    EXPECT_GE(loc.column, 1)
        << sample.file << " " << what
        << ": unlocated LarcsError: " << e.what();
    // "Just past" covers end-of-file errors on a trailing newline.
    EXPECT_LE(loc.line, line_count(source) + 1)
        << sample.file << " " << what << ": loc " << loc.to_string()
        << " beyond the source: " << e.what();
  }
  // Any other exception type propagates and fails the test.
}

TEST(LarcsRobustness, PristineSamplesCompile) {
  for (const Sample& sample : samples()) {
    const std::string source = read_sample(sample.file);
    EXPECT_NO_THROW((void)larcs::compile_source(source, sample.bindings))
        << sample.file;
  }
}

/// ~16 truncation points of `source` (64 variants over the samples):
/// cut the file at evenly spaced offsets, snapped forward to token
/// boundaries by nothing in particular -- raw byte cuts are the harsher
/// test.
std::vector<std::string> truncations(const std::string& source) {
  std::vector<std::string> out;
  for (int i = 1; i <= 16; ++i) {
    out.push_back(source.substr(0, source.size() * i / 17));
  }
  return out;
}

/// 64 random single-edit mutants of a sample (256 over the samples):
/// replace, delete, insert, or duplicate a span. Seeded per file name so
/// the corpus is stable run to run.
std::vector<std::string> byte_mutants(const Sample& sample,
                                      const std::string& source) {
  std::vector<std::string> out;
  Rng rng{0x5EEDF00DULL ^ std::hash<std::string>{}(sample.file)};
  for (int trial = 0; trial < 64; ++trial) {
    std::string mutated = source;
    const std::size_t pos = rng.next() % mutated.size();
    switch (rng.next() % 4) {
      case 0:  // replace with a random printable byte
        mutated[pos] = static_cast<char>('!' + rng.next() % 94);
        break;
      case 1:  // delete a short span
        mutated.erase(pos, 1 + rng.next() % 8);
        break;
      case 2:  // insert structural noise
        mutated.insert(pos, ";)}{(" + std::to_string(rng.next() % 100));
        break;
      default:  // duplicate a span (often re-declares something)
        mutated.insert(pos, mutated.substr(pos, 1 + rng.next() % 16));
        break;
    }
    out.push_back(std::move(mutated));
  }
  return out;
}

/// Degenerate inputs, compiled with the first sample's bindings.
std::vector<std::string> degenerates() {
  return {
      "",
      "\n\n\n",
      "algorithm",
      "algorithm ;",
      "algorithm x()",
      "algorithm x(); phases",
      std::string(1 << 16, 'x'),
      std::string("algorithm x();\n") + std::string(100, '('),
      "algorithm x(\xFF\xFE);",
  };
}

TEST(LarcsRobustness, TruncationsFailWithLocatedErrors) {
  for (const Sample& sample : samples()) {
    const std::string source = read_sample(sample.file);
    for (const std::string& cut : truncations(source)) {
      expect_compiles_or_located_error(
          cut, sample, "truncated at byte " + std::to_string(cut.size()));
    }
  }
}

TEST(LarcsRobustness, ByteMutationsFailWithLocatedErrors) {
  for (const Sample& sample : samples()) {
    const std::vector<std::string> mutants =
        byte_mutants(sample, read_sample(sample.file));
    for (std::size_t trial = 0; trial < mutants.size(); ++trial) {
      expect_compiles_or_located_error(mutants[trial], sample,
                                       "mutant #" + std::to_string(trial));
    }
  }
}

TEST(LarcsRobustness, DegenerateInputsFailCleanly) {
  const Sample& any = samples().front();
  const std::vector<std::string> inputs = degenerates();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_compiles_or_located_error(inputs[i], any,
                                     "degenerate #" + std::to_string(i));
  }
}

/// Folds what compiling `source` gives: the graph digest when it
/// compiles (returning true), else the error's text and line:column.
bool fold_outcome(Fnv1a& h, const std::string& source, const Sample& sample) {
  try {
    const auto compiled = larcs::compile_source(source, sample.bindings);
    h.boolean(true);
    server::fold_task_graph(h, compiled.graph);
    return true;
  } catch (const LarcsError& e) {
    h.boolean(false);
    h.str(e.what());
    h.i32(e.loc().line);
    h.i32(e.loc().column);
    return false;
  }
}

TEST(LarcsRobustness, MutantOutcomesArePinned) {
  // One hash over the outcome of every mutant above, in corpus order: a
  // compiler change that moves any mutant's graph, error text or error
  // location moves it.
  Fnv1a h;
  int compiled = 0;
  for (const Sample& sample : samples()) {
    const std::string source = read_sample(sample.file);
    std::vector<std::string> corpus = truncations(source);
    for (std::string& mutant : byte_mutants(sample, source)) {
      corpus.push_back(std::move(mutant));
    }
    for (const std::string& mutant : corpus) {
      compiled += fold_outcome(h, mutant, sample) ? 1 : 0;
    }
  }
  for (const std::string& input : degenerates()) {
    compiled += fold_outcome(h, input, samples().front()) ? 1 : 0;
  }
  EXPECT_EQ(compiled, 129);
  EXPECT_EQ(h.digest(), 0x3b6519683d9e9218ULL);
}

}  // namespace
}  // namespace oregami
