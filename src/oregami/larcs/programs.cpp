#include "oregami/larcs/programs.hpp"

#include "oregami/support/error.hpp"

namespace oregami::larcs::programs {

std::string nbody() {
  return R"(
-- Fig 2b: Seitz's n-body algorithm on a chordal ring.
algorithm nbody(n, s);
import m;

nodetype body[i: 0 .. n-1] nodesymmetric;

comphase ring {
  body(i) -> body((i + 1) mod n) volume m;
}
comphase chordal {
  body(i) -> body((i + (n + 1) / 2) mod n) volume m;
}

exphase compute1 cost n;
exphase compute2 cost n;

phases ((ring; compute1)^((n + 1) / 2); chordal; compute2)^s;
)";
}

std::string ring_pipeline() {
  return R"(
algorithm ring_pipeline(n, stages);
family ring;

nodetype stage[i: 0 .. n-1] nodesymmetric;

comphase right {
  stage(i) -> stage((i + 1) mod n) volume 1;
}

exphase work cost 10;

phases (work; right)^stages;
)";
}

std::string jacobi() {
  return R"(
-- Jacobi iterative method for the Laplace equation on a rectangle.
algorithm jacobi(n, iters);
family mesh;

nodetype cell[i: 0 .. n-1, j: 0 .. n-1];

comphase exchange {
  cell(i, j) -> cell(i + 1, j) when i < n - 1 volume 1;
  cell(i, j) -> cell(i - 1, j) when i > 0     volume 1;
  cell(i, j) -> cell(i, j + 1) when j < n - 1 volume 1;
  cell(i, j) -> cell(i, j - 1) when j > 0     volume 1;
}

exphase relax cost 5;

phases (relax; exchange)^iters;
)";
}

std::string sor() {
  return R"(
-- Red-black successive over-relaxation.
algorithm sor(n, iters);

nodetype cell[i: 0 .. n-1, j: 0 .. n-1];

comphase red_to_black {
  cell(i, j) -> cell(i + 1, j) when (i + j) mod 2 == 0 and i < n - 1 volume 1;
  cell(i, j) -> cell(i - 1, j) when (i + j) mod 2 == 0 and i > 0     volume 1;
  cell(i, j) -> cell(i, j + 1) when (i + j) mod 2 == 0 and j < n - 1 volume 1;
  cell(i, j) -> cell(i, j - 1) when (i + j) mod 2 == 0 and j > 0     volume 1;
}
comphase black_to_red {
  cell(i, j) -> cell(i + 1, j) when (i + j) mod 2 == 1 and i < n - 1 volume 1;
  cell(i, j) -> cell(i - 1, j) when (i + j) mod 2 == 1 and i > 0     volume 1;
  cell(i, j) -> cell(i, j + 1) when (i + j) mod 2 == 1 and j < n - 1 volume 1;
  cell(i, j) -> cell(i, j - 1) when (i + j) mod 2 == 1 and j > 0     volume 1;
}

exphase update_red   cost 3;
exphase update_black cost 3;

phases (update_red; red_to_black; update_black; black_to_red)^iters;
)";
}

std::string binomial_dnc() {
  return R"(
-- Divide and conquer on the binomial tree B_k (see [LRG+89]).
algorithm binomial_dnc(k);
family binomial_tree;

nodetype node[i: 0 .. pow(2, k) - 1];

comphase scatter {
  node(i) -> node(i + pow(2, j))
    forall j: 0 .. k - 1
    when i mod pow(2, j + 1) == 0
    volume 1;
}
comphase gather {
  node(i) -> node(i - pow(2, j))
    forall j: 0 .. k - 1
    when i mod pow(2, j + 1) == pow(2, j)
    volume 1;
}

exphase solve cost 8;

phases scatter; solve; gather;
)";
}

std::string matmul_systolic() {
  return R"(
-- Matrix multiplication as a uniform recurrence over an n^3 lattice:
-- a-values flow along j, b-values along i, c-accumulations along k.
algorithm matmul(n);

nodetype cell[i: 0 .. n-1, j: 0 .. n-1, k: 0 .. n-1];

comphase flow {
  cell(i, j, k) -> cell(i + 1, j, k) when i < n - 1 volume 1;
  cell(i, j, k) -> cell(i, j + 1, k) when j < n - 1 volume 1;
  cell(i, j, k) -> cell(i, j, k + 1) when k < n - 1 volume 1;
}

exphase mac cost 1;

phases (mac; flow)^1;
)";
}

std::string cbt_reduce() {
  return R"(
-- Reduction over a complete binary tree of 2^h - 1 tasks.
algorithm cbt_reduce(h);
family complete_binary_tree;

nodetype node[i: 0 .. pow(2, h) - 2];

comphase up {
  node(i) -> node((i - 1) / 2) when i > 0 volume 1;
}

exphase combine cost 2;

phases (combine; up)^h;
)";
}

std::string torus_stencil() {
  return R"(
-- Periodic 4-neighbour stencil; node symmetric (Cayley graph of
-- Z_r x Z_c).
algorithm torus_stencil(r, c, iters);

nodetype cell[i: 0 .. r-1, j: 0 .. c-1] nodesymmetric;

comphase south { cell(i, j) -> cell((i + 1) mod r, j) volume 1; }
comphase north { cell(i, j) -> cell((i - 1 + r) mod r, j) volume 1; }
comphase east  { cell(i, j) -> cell(i, (j + 1) mod c) volume 1; }
comphase west  { cell(i, j) -> cell(i, (j - 1 + c) mod c) volume 1; }

exphase relax cost 4;

phases (relax; south; north; east; west)^iters;
)";
}

std::string hypercube_exchange() {
  return R"(
-- Full-dimension exchange on a d-cube; both directions of each
-- dimension in one phase.
algorithm hypercube_exchange(d, iters);
family hypercube;

nodetype node[i: 0 .. pow(2, d) - 1] nodesymmetric;

comphase exchange {
  node(i) -> node(i + pow(2, j))
    forall j: 0 .. d - 1
    when (i / pow(2, j)) mod 2 == 0
    volume 1;
  node(i) -> node(i - pow(2, j))
    forall j: 0 .. d - 1
    when (i / pow(2, j)) mod 2 == 1
    volume 1;
}

exphase combine cost 1;

phases (exchange; combine)^iters;
)";
}

std::string fft(int log_n) {
  OREGAMI_ASSERT(log_n >= 1 && log_n <= 20, "fft: log_n out of range");
  std::string src = "-- Generated " + std::to_string(log_n) +
                    "-stage FFT butterfly.\n";
  src += "algorithm fft(n);\n";
  src += "nodetype node[i: 0 .. n - 1];\n";
  for (int j = 0; j < log_n; ++j) {
    const std::string stride = std::to_string(1L << j);
    src += "comphase stage" + std::to_string(j) + " {\n";
    src += "  node(i) -> node(i + " + stride + ") when (i / " + stride +
           ") mod 2 == 0 volume 1;\n";
    src += "  node(i) -> node(i - " + stride + ") when (i / " + stride +
           ") mod 2 == 1 volume 1;\n";
    src += "}\n";
  }
  src += "exphase twiddle cost 4;\n";
  src += "phases ";
  for (int j = 0; j < log_n; ++j) {
    if (j != 0) {
      src += "; ";
    }
    src += "stage" + std::to_string(j) + "; twiddle";
  }
  src += ";\n";
  return src;
}

std::string fft_parametric() {
  return R"(
-- FFT butterfly with binary labeling: every stage's exchange collapses
-- into one phase via xor. The source is independent of the problem
-- size (d = log2 n).
algorithm fft_parametric(d);

nodetype node[i: 0 .. pow(2, d) - 1] nodesymmetric;

comphase butterfly {
  node(i) -> node(xor(i, pow(2, j))) forall j: 0 .. d - 1 volume 1;
}

exphase twiddle cost d;

phases (butterfly; twiddle)^d;
)";
}

std::string broadcast_vote(int n) {
  OREGAMI_ASSERT(n >= 2 && (n & (n - 1)) == 0,
                 "broadcast_vote: n must be a power of two");
  int log_n = 0;
  while ((1 << log_n) < n) {
    ++log_n;
  }
  std::string src =
      "-- Generated perfect-broadcast voting (Fig 4 for n = 8): comm "
      "phase j\n-- sends i -> (i + 2^j) mod n.\n";
  src += "algorithm broadcast_vote(n);\n";
  src += "nodetype task[i: 0 .. n - 1] nodesymmetric;\n";
  for (int j = 0; j < log_n; ++j) {
    src += "comphase comm" + std::to_string(j + 1) + " {\n";
    src += "  task(i) -> task((i + " + std::to_string(1 << j) +
           ") mod n) volume 1;\n";
    src += "}\n";
  }
  src += "exphase tally cost 1;\n";
  src += "phases ";
  for (int j = 0; j < log_n; ++j) {
    if (j != 0) {
      src += "; ";
    }
    src += "comm" + std::to_string(j + 1) + "; tally";
  }
  src += ";\n";
  return src;
}

const std::vector<CatalogEntry>& catalog() {
  static const std::vector<CatalogEntry> entries = {
      {"nbody", nbody(), {{"n", 15}, {"s", 4}, {"m", 8}}},
      {"ring_pipeline", ring_pipeline(), {{"n", 16}, {"stages", 8}}},
      {"jacobi", jacobi(), {{"n", 8}, {"iters", 10}}},
      {"sor", sor(), {{"n", 8}, {"iters", 10}}},
      {"binomial_dnc", binomial_dnc(), {{"k", 4}}},
      {"matmul", matmul_systolic(), {{"n", 4}}},
      {"cbt_reduce", cbt_reduce(), {{"h", 4}}},
      {"torus_stencil", torus_stencil(), {{"r", 4}, {"c", 4}, {"iters", 5}}},
      {"hypercube_exchange", hypercube_exchange(),
       {{"d", 4}, {"iters", 3}}},
      {"fft_parametric", fft_parametric(), {{"d", 4}}},
  };
  return entries;
}

const CatalogEntry* find(std::string_view name) {
  for (const CatalogEntry& entry : catalog()) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace oregami::larcs::programs
