#include "oregami/graph/blossom.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "oregami/support/error.hpp"

namespace oregami {

namespace {

/// Primal-dual blossom solver. Internally 1-indexed with vertex ids
/// 1..n and blossom ids n+1..2n; the layout follows the widely verified
/// "weighted blossom" template (dual labels on original vertices absorb
/// per-iteration adjustments; blossom duals are tracked only for the
/// expansion rule). Statuses: 0 = outer (S), 1 = inner (T),
/// -1 = unlabeled.
class BlossomSolver {
 public:
  explicit BlossomSolver(int n)
      : n_(n),
        cap_(2 * n + 1),
        g_(static_cast<std::size_t>(cap_),
           std::vector<InternalEdge>(static_cast<std::size_t>(cap_))),
        flower_from_(static_cast<std::size_t>(cap_),
                     std::vector<int>(static_cast<std::size_t>(n_ + 1), 0)),
        lab_(static_cast<std::size_t>(cap_), 0),
        match_(static_cast<std::size_t>(cap_), 0),
        slack_(static_cast<std::size_t>(cap_), 0),
        st_(static_cast<std::size_t>(cap_), 0),
        pa_(static_cast<std::size_t>(cap_), 0),
        s_(static_cast<std::size_t>(cap_), -1),
        vis_(static_cast<std::size_t>(cap_), 0),
        flower_(static_cast<std::size_t>(cap_)) {
    for (int u = 0; u < cap_; ++u) {
      for (int v = 0; v < cap_; ++v) {
        g_[idx(u)][idx(v)] = {u, v, 0};
      }
    }
  }

  void add_edge(int u, int v, std::int64_t w) {
    // 1-indexed endpoints; keep the heavier edge on duplicates.
    g_[idx(u)][idx(v)].w = std::max(g_[idx(u)][idx(v)].w, w);
    g_[idx(v)][idx(u)].w = g_[idx(u)][idx(v)].w;
  }

  GeneralMatching solve() {
    std::fill(match_.begin(), match_.end(), 0);
    n_x_ = n_;
    for (int u = 0; u <= n_; ++u) {
      st_[idx(u)] = u;
      flower_[idx(u)].clear();
    }
    std::int64_t w_max = 0;
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) {
        flower_from_[idx(u)][idx(v)] = (u == v ? u : 0);
        w_max = std::max(w_max, g_[idx(u)][idx(v)].w);
      }
    }
    for (int u = 1; u <= n_; ++u) {
      lab_[idx(u)] = w_max;
    }
    while (phase()) {
    }

    GeneralMatching result;
    result.mate.assign(static_cast<std::size_t>(n_), -1);
    for (int u = 1; u <= n_; ++u) {
      if (match_[idx(u)] != 0) {
        result.mate[static_cast<std::size_t>(u - 1)] = match_[idx(u)] - 1;
        if (match_[idx(u)] < u) {
          result.total_weight += g_[idx(u)][idx(match_[idx(u)])].w;
        }
      }
    }
    return result;
  }

 private:
  struct InternalEdge {
    int u = 0;
    int v = 0;
    std::int64_t w = 0;
  };

  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  [[nodiscard]] std::int64_t e_delta(const InternalEdge& e) const {
    return lab_[idx(e.u)] + lab_[idx(e.v)] - g_[idx(e.u)][idx(e.v)].w * 2;
  }

  void update_slack(int u, int x) {
    if (slack_[idx(x)] == 0 ||
        e_delta(g_[idx(u)][idx(x)]) <
            e_delta(g_[idx(slack_[idx(x)])][idx(x)])) {
      slack_[idx(x)] = u;
    }
  }

  void set_slack(int x) {
    slack_[idx(x)] = 0;
    for (int u = 1; u <= n_; ++u) {
      if (g_[idx(u)][idx(x)].w > 0 && st_[idx(u)] != x &&
          s_[idx(st_[idx(u)])] == 0) {
        update_slack(u, x);
      }
    }
  }

  void q_push(int x) {
    if (x <= n_) {
      q_.push_back(x);
    } else {
      for (const int sub : flower_[idx(x)]) {
        q_push(sub);
      }
    }
  }

  void set_st(int x, int b) {
    st_[idx(x)] = b;
    if (x > n_) {
      for (const int sub : flower_[idx(x)]) {
        set_st(sub, b);
      }
    }
  }

  int get_pr(int b, int xr) {
    auto& f = flower_[idx(b)];
    const auto it = std::find(f.begin(), f.end(), xr);
    OREGAMI_ASSERT(it != f.end(), "blossom base not found");
    int pr = static_cast<int>(it - f.begin());
    if (pr % 2 == 1) {
      std::reverse(f.begin() + 1, f.end());
      return static_cast<int>(f.size()) - pr;
    }
    return pr;
  }

  void set_match(int u, int v) {
    match_[idx(u)] = g_[idx(u)][idx(v)].v;
    if (u > n_) {
      const InternalEdge e = g_[idx(u)][idx(v)];
      const int xr = flower_from_[idx(u)][idx(e.u)];
      const int pr = get_pr(u, xr);
      auto& f = flower_[idx(u)];
      for (int i = 0; i < pr; ++i) {
        set_match(f[idx(i)], f[idx(i ^ 1)]);
      }
      set_match(xr, v);
      std::rotate(f.begin(), f.begin() + pr, f.end());
    }
  }

  void augment(int u, int v) {
    for (;;) {
      const int xnv = st_[idx(match_[idx(u)])];
      set_match(u, v);
      if (xnv == 0) {
        return;
      }
      set_match(xnv, st_[idx(pa_[idx(xnv)])]);
      u = st_[idx(pa_[idx(xnv)])];
      v = xnv;
    }
  }

  int get_lca(int u, int v) {
    ++timestamp_;
    while (u != 0 || v != 0) {
      if (u != 0) {
        if (vis_[idx(u)] == timestamp_) {
          return u;
        }
        vis_[idx(u)] = timestamp_;
        u = st_[idx(match_[idx(u)])];
        if (u != 0) {
          u = st_[idx(pa_[idx(u)])];
        }
      }
      std::swap(u, v);
    }
    return 0;
  }

  void add_blossom(int u, int lca, int v) {
    int b = n_ + 1;
    while (b <= n_x_ && st_[idx(b)] != 0) {
      ++b;
    }
    if (b > n_x_) {
      ++n_x_;
    }
    OREGAMI_ASSERT(b < cap_, "blossom id capacity exceeded");
    lab_[idx(b)] = 0;
    s_[idx(b)] = 0;
    match_[idx(b)] = match_[idx(lca)];
    auto& f = flower_[idx(b)];
    f.clear();
    f.push_back(lca);
    for (int x = u, y; x != lca; x = st_[idx(pa_[idx(y)])]) {
      f.push_back(x);
      f.push_back(y = st_[idx(match_[idx(x)])]);
      q_push(y);
    }
    std::reverse(f.begin() + 1, f.end());
    for (int x = v, y; x != lca; x = st_[idx(pa_[idx(y)])]) {
      f.push_back(x);
      f.push_back(y = st_[idx(match_[idx(x)])]);
      q_push(y);
    }
    set_st(b, b);
    for (int x = 1; x <= n_x_; ++x) {
      g_[idx(b)][idx(x)].w = 0;
      g_[idx(x)][idx(b)].w = 0;
    }
    for (int x = 1; x <= n_; ++x) {
      flower_from_[idx(b)][idx(x)] = 0;
    }
    for (const int xs : f) {
      for (int x = 1; x <= n_x_; ++x) {
        if (g_[idx(b)][idx(x)].w == 0 ||
            e_delta(g_[idx(xs)][idx(x)]) < e_delta(g_[idx(b)][idx(x)])) {
          g_[idx(b)][idx(x)] = g_[idx(xs)][idx(x)];
          g_[idx(x)][idx(b)] = g_[idx(x)][idx(xs)];
        }
      }
      for (int x = 1; x <= n_; ++x) {
        if (flower_from_[idx(xs)][idx(x)] != 0) {
          flower_from_[idx(b)][idx(x)] = xs;
        }
      }
    }
    set_slack(b);
  }

  void expand_blossom(int b) {
    auto& f = flower_[idx(b)];
    for (const int sub : f) {
      set_st(sub, sub);
    }
    const int xr = flower_from_[idx(b)][idx(g_[idx(b)][idx(pa_[idx(b)])].u)];
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
      const int xs = f[idx(i)];
      const int xns = f[idx(i + 1)];
      pa_[idx(xs)] = g_[idx(xns)][idx(xs)].u;
      s_[idx(xs)] = 1;
      s_[idx(xns)] = 0;
      slack_[idx(xs)] = 0;
      set_slack(xns);
      q_push(xns);
    }
    s_[idx(xr)] = 1;
    pa_[idx(xr)] = pa_[idx(b)];
    for (std::size_t i = static_cast<std::size_t>(pr) + 1; i < f.size();
         ++i) {
      const int xs = f[i];
      s_[idx(xs)] = -1;
      set_slack(xs);
    }
    st_[idx(b)] = 0;
  }

  bool on_found_edge(const InternalEdge& e) {
    const int u = st_[idx(e.u)];
    const int v = st_[idx(e.v)];
    if (s_[idx(v)] == -1) {
      pa_[idx(v)] = e.u;
      s_[idx(v)] = 1;
      const int nu = st_[idx(match_[idx(v)])];
      slack_[idx(v)] = 0;
      slack_[idx(nu)] = 0;
      s_[idx(nu)] = 0;
      q_push(nu);
    } else if (s_[idx(v)] == 0) {
      const int lca = get_lca(u, v);
      if (lca == 0) {
        augment(u, v);
        augment(v, u);
        return true;
      }
      add_blossom(u, lca, v);
    }
    return false;
  }

  bool phase() {
    std::fill(s_.begin() + 1, s_.begin() + n_x_ + 1, -1);
    std::fill(slack_.begin() + 1, slack_.begin() + n_x_ + 1, 0);
    q_.clear();
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[idx(x)] == x && match_[idx(x)] == 0) {
        pa_[idx(x)] = 0;
        s_[idx(x)] = 0;
        q_push(x);
      }
    }
    if (q_.empty()) {
      return false;
    }
    for (;;) {
      while (!q_.empty()) {
        const int u = q_.front();
        q_.pop_front();
        if (s_[idx(st_[idx(u)])] == 1) {
          continue;
        }
        for (int v = 1; v <= n_; ++v) {
          if (g_[idx(u)][idx(v)].w > 0 && st_[idx(u)] != st_[idx(v)]) {
            if (e_delta(g_[idx(u)][idx(v)]) == 0) {
              if (on_found_edge(g_[idx(u)][idx(v)])) {
                return true;
              }
            } else {
              update_slack(u, st_[idx(v)]);
            }
          }
        }
      }

      std::int64_t d = std::numeric_limits<std::int64_t>::max();
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[idx(b)] == b && s_[idx(b)] == 1) {
          d = std::min(d, lab_[idx(b)] / 2);
        }
      }
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[idx(x)] == x && slack_[idx(x)] != 0) {
          if (s_[idx(x)] == -1) {
            d = std::min(d, e_delta(g_[idx(slack_[idx(x)])][idx(x)]));
          } else if (s_[idx(x)] == 0) {
            d = std::min(d, e_delta(g_[idx(slack_[idx(x)])][idx(x)]) / 2);
          }
        }
      }
      // Check every S label before adjusting any: with no bound found,
      // d is INT64_MAX, and adding it to a T label would overflow.
      for (int u = 1; u <= n_; ++u) {
        if (s_[idx(st_[idx(u)])] == 0 && lab_[idx(u)] <= d) {
          return false;  // dual would hit zero: no augmenting path left
        }
      }
      for (int u = 1; u <= n_; ++u) {
        if (s_[idx(st_[idx(u)])] == 0) {
          lab_[idx(u)] -= d;
        } else if (s_[idx(st_[idx(u)])] == 1) {
          lab_[idx(u)] += d;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[idx(b)] == b) {
          if (s_[idx(b)] == 0) {
            lab_[idx(b)] += d * 2;
          } else if (s_[idx(b)] == 1) {
            lab_[idx(b)] -= d * 2;
          }
        }
      }
      q_.clear();
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[idx(x)] == x && slack_[idx(x)] != 0 &&
            st_[idx(slack_[idx(x)])] != x &&
            e_delta(g_[idx(slack_[idx(x)])][idx(x)]) == 0) {
          if (on_found_edge(g_[idx(slack_[idx(x)])][idx(x)])) {
            return true;
          }
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[idx(b)] == b && s_[idx(b)] == 1 && lab_[idx(b)] == 0) {
          expand_blossom(b);
        }
      }
    }
  }

  int n_;
  int cap_;
  int n_x_ = 0;
  long timestamp_ = 0;
  std::vector<std::vector<InternalEdge>> g_;
  std::vector<std::vector<int>> flower_from_;
  std::vector<std::int64_t> lab_;
  std::vector<int> match_;
  std::vector<int> slack_;
  std::vector<int> st_;
  std::vector<int> pa_;
  std::vector<int> s_;
  std::vector<long> vis_;
  std::vector<std::vector<int>> flower_;
  std::deque<int> q_;
};

}  // namespace

GeneralMatching max_weight_matching(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) {
    return {};
  }
  BlossomSolver solver(n);
  for (const auto& e : g.edges()) {
    OREGAMI_ASSERT(e.weight > 0,
                   "max_weight_matching requires positive edge weights");
    solver.add_edge(e.u + 1, e.v + 1, e.weight);
  }
  return solver.solve();
}

namespace {

void brute_force_rec(const std::vector<WeightedEdge>& edges,
                     std::size_t index, std::vector<int>& mate,
                     std::int64_t weight, GeneralMatching& best) {
  if (weight > best.total_weight) {
    best.total_weight = weight;
    best.mate = mate;
  }
  if (index >= edges.size()) {
    return;
  }
  // Skip this edge.
  brute_force_rec(edges, index + 1, mate, weight, best);
  const auto& e = edges[index];
  if (mate[static_cast<std::size_t>(e.u)] == -1 &&
      mate[static_cast<std::size_t>(e.v)] == -1) {
    mate[static_cast<std::size_t>(e.u)] = e.v;
    mate[static_cast<std::size_t>(e.v)] = e.u;
    brute_force_rec(edges, index + 1, mate, weight + e.weight, best);
    mate[static_cast<std::size_t>(e.u)] = -1;
    mate[static_cast<std::size_t>(e.v)] = -1;
  }
}

}  // namespace

GeneralMatching brute_force_max_weight_matching(const Graph& g) {
  OREGAMI_ASSERT(g.num_edges() <= 24,
                 "brute-force matching is for tiny certification graphs");
  GeneralMatching best;
  best.mate.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<int> mate(static_cast<std::size_t>(g.num_vertices()), -1);
  brute_force_rec(g.edges(), 0, mate, 0, best);
  return best;
}

}  // namespace oregami
