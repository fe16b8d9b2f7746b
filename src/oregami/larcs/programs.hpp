// Built-in corpus of LaRCS programs. The paper reports LaRCS
// descriptions for the n-body problem (Fig 2b), matrix multiplication,
// FFT, divide and conquer on binomial trees, Jacobi iteration, SOR,
// perfect-broadcast distributed voting, and others; this module
// provides concrete sources for that corpus in our LaRCS grammar.
//
// Fixed-parameter families (FFT stages, broadcast rounds) are emitted
// by generators, demonstrating that LaRCS sources can themselves be
// produced parametrically.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace oregami::larcs::programs {

/// Fig 2b: the n-body chordal ring. Parameters: n (bodies, use odd n
/// for the half-ring chord), s (outer iterations). Imports: m (message
/// volume). Phase expression ((ring; compute1)^((n+1)/2); chordal;
/// compute2)^s, exactly as the paper gives it.
[[nodiscard]] std::string nbody();

/// A unidirectional ring pipeline; declares `family ring`.
[[nodiscard]] std::string ring_pipeline();

/// Jacobi iteration on an n x n grid (4-point stencil), `family mesh`.
/// Parameters: n, iters.
[[nodiscard]] std::string jacobi();

/// Red-black successive over-relaxation on an n x n grid.
/// Parameters: n, iters.
[[nodiscard]] std::string sor();

/// Divide-and-conquer on the binomial tree B_k (2^k tasks):
/// scatter down, compute, gather up. Parameter: k.
[[nodiscard]] std::string binomial_dnc();

/// Matrix multiplication as a 3-D uniform recurrence (the §4.2.1
/// systolic class): dependences (1,0,0), (0,1,0), (0,0,1).
/// Parameter: n.
[[nodiscard]] std::string matmul_systolic();

/// Reduction on a complete binary tree with 2^h - 1 tasks.
/// Parameter: h.
[[nodiscard]] std::string cbt_reduce();

/// 5-point periodic stencil on an r x c torus (node-symmetric; its
/// communication functions generate Z_r x Z_c). Parameters: r, c,
/// iters.
[[nodiscard]] std::string torus_stencil();

/// All-dimension exchange on a d-dimensional hypercube (one phase with
/// both directions of every dimension). Parameters: d, iters.
[[nodiscard]] std::string hypercube_exchange();

/// Generated: log2(n)-stage FFT butterfly over `1 << log_n` tasks, one
/// comm phase per stage.
[[nodiscard]] std::string fft(int log_n);

/// Fully parametric FFT using the binary-labeling builtins: a single
/// `butterfly` phase with `forall j` XOR rules (the per-stage structure
/// collapses into one phase, traded for a size-independent source).
[[nodiscard]] std::string fft_parametric();

/// Generated: the perfect-broadcast voting algorithm of Fig 4 on
/// n = 2^k tasks: comm phase j sends i -> (i + 2^j) mod n. For n = 8
/// this produces exactly the paper's comm1/comm2/comm3.
[[nodiscard]] std::string broadcast_vote(int n);

/// Named catalogue of the fixed sources (generators excluded), for
/// tests and tools that sweep the corpus.
struct CatalogEntry {
  std::string name;
  std::string source;
  /// A representative set of bindings that compiles.
  std::vector<std::pair<std::string, long>> example_bindings;
};
/// Built once, on first use.
[[nodiscard]] const std::vector<CatalogEntry>& catalog();

/// The catalogue entry called `name`, or nullptr.
[[nodiscard]] const CatalogEntry* find(std::string_view name);

}  // namespace oregami::larcs::programs
