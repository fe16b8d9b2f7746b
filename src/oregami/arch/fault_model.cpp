#include "oregami/arch/fault_model.hpp"

#include <algorithm>
#include <utility>

#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {

namespace {

[[noreturn]] void spec_fail(const std::string& message) {
  throw MappingError("fault spec: " + message);
}

/// Parses a non-negative integer out of text[pos..); advances pos.
long parse_number(const std::string& text, std::size_t& pos,
                  const std::string& token) {
  if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
    spec_fail("expected a number in token '" + token + "'");
  }
  long value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + (text[pos] - '0');
    if (value > 1'000'000'000L) {
      spec_fail("number out of range in token '" + token + "'");
    }
    ++pos;
  }
  return value;
}

int resolve_link(const Topology& topo, const std::string& token,
                 std::size_t& pos) {
  const long first = parse_number(token, pos, token);
  if (pos < token.size() && token[pos] == '-') {
    ++pos;
    const long second = parse_number(token, pos, token);
    if (first >= topo.num_procs() || second >= topo.num_procs()) {
      spec_fail("processor id out of range in token '" + token + "'");
    }
    const auto link = topo.link_between(static_cast<int>(first),
                                        static_cast<int>(second));
    if (!link) {
      spec_fail("processors " + std::to_string(first) + " and " +
                std::to_string(second) + " are not adjacent in " +
                topo.name() + " (token '" + token + "')");
    }
    return *link;
  }
  if (first >= topo.num_links()) {
    spec_fail("link id out of range in token '" + token + "' (" +
              topo.name() + " has " + std::to_string(topo.num_links()) +
              " links)");
  }
  return static_cast<int>(first);
}

}  // namespace

void FaultSpec::normalise() {
  std::sort(dead_procs.begin(), dead_procs.end());
  dead_procs.erase(std::unique(dead_procs.begin(), dead_procs.end()),
                   dead_procs.end());
  std::sort(dead_links.begin(), dead_links.end());
  dead_links.erase(std::unique(dead_links.begin(), dead_links.end()),
                   dead_links.end());
  std::sort(slow_links.begin(), slow_links.end(),
            [](const SlowLink& a, const SlowLink& b) {
              return a.link < b.link;
            });
  // Duplicate slowdowns on one link compound multiplicatively.
  std::vector<SlowLink> merged;
  for (const SlowLink& s : slow_links) {
    if (!merged.empty() && merged.back().link == s.link) {
      merged.back().factor *= s.factor;
    } else {
      merged.push_back(s);
    }
  }
  slow_links = std::move(merged);
}

void FaultSpec::validate(const Topology& topo) const {
  for (const int p : dead_procs) {
    if (p < 0 || p >= topo.num_procs()) {
      spec_fail("dead processor " + std::to_string(p) +
                " out of range for " + topo.name());
    }
  }
  for (const int l : dead_links) {
    if (l < 0 || l >= topo.num_links()) {
      spec_fail("dead link " + std::to_string(l) + " out of range for " +
                topo.name());
    }
  }
  for (const SlowLink& s : slow_links) {
    if (s.link < 0 || s.link >= topo.num_links()) {
      spec_fail("slowed link " + std::to_string(s.link) +
                " out of range for " + topo.name());
    }
    if (s.factor < 1) {
      spec_fail("slow factor must be >= 1 on link " +
                std::to_string(s.link));
    }
    if (std::find(dead_links.begin(), dead_links.end(), s.link) !=
        dead_links.end()) {
      spec_fail("link " + std::to_string(s.link) +
                " is both dead and slowed");
    }
  }
}

FaultSpec FaultSpec::random_spec(const Topology& topo, int num_dead_procs,
                                 int num_dead_links, int num_slow_links,
                                 std::uint64_t seed, int max_factor) {
  if (num_dead_procs < 0 || num_dead_links < 0 || num_slow_links < 0) {
    spec_fail("random fault counts must be non-negative");
  }
  if (max_factor < 2) {
    max_factor = 2;
  }
  FaultSpec spec;
  SplitMix64 rng(seed ^ 0xFA017ED700105EEDULL);
  // Distinct sampling by rejection: the pools are tiny (at most a few
  // thousand links), so this stays deterministic and cheap.
  auto sample_distinct = [&rng](int count, int pool,
                                std::vector<int>* out) {
    count = std::min(count, pool);
    while (static_cast<int>(out->size()) < count) {
      const int pick = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(pool)));
      if (std::find(out->begin(), out->end(), pick) == out->end()) {
        out->push_back(pick);
      }
    }
  };
  if (topo.num_procs() > 0) {
    sample_distinct(num_dead_procs, topo.num_procs(), &spec.dead_procs);
  }
  if (topo.num_links() > 0) {
    sample_distinct(num_dead_links, topo.num_links(), &spec.dead_links);
    std::vector<int> slow_ids = spec.dead_links;  // keep sets disjoint
    const int nd = static_cast<int>(spec.dead_links.size());
    const int ns = std::min(num_slow_links, topo.num_links() - nd);
    sample_distinct(nd + ns, topo.num_links(), &slow_ids);
    for (std::size_t i = spec.dead_links.size(); i < slow_ids.size();
         ++i) {
      spec.slow_links.push_back(
          {slow_ids[i], static_cast<int>(rng.next_in(2, max_factor))});
    }
  }
  spec.normalise();
  spec.validate(topo);
  return spec;
}

FaultSpec FaultSpec::parse(const std::string& text, const Topology& topo,
                           std::uint64_t seed) {
  FaultSpec spec;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string token = text.substr(start, end - start);
    start = end + 1;
    if (token.empty()) {
      if (text.empty()) {
        spec_fail("empty spec (write e.g. 'p3' or 'rand:1x1x0')");
      }
      spec_fail("empty token (stray comma?)");
    }
    std::size_t pos = 1;
    if (token[0] == 'p') {
      const long p = parse_number(token, pos, token);
      if (pos != token.size()) {
        spec_fail("trailing characters in token '" + token + "'");
      }
      if (p >= topo.num_procs()) {
        spec_fail("processor id out of range in token '" + token + "' (" +
                  topo.name() + " has " +
                  std::to_string(topo.num_procs()) + " processors)");
      }
      spec.dead_procs.push_back(static_cast<int>(p));
    } else if (token[0] == 'l') {
      const int link = resolve_link(topo, token, pos);
      if (pos != token.size()) {
        spec_fail("trailing characters in token '" + token + "'");
      }
      spec.dead_links.push_back(link);
    } else if (token[0] == 's') {
      const int link = resolve_link(topo, token, pos);
      if (pos >= token.size() || token[pos] != ':') {
        spec_fail("slow token '" + token + "' needs ':FACTOR'");
      }
      ++pos;
      const long factor = parse_number(token, pos, token);
      if (pos != token.size()) {
        spec_fail("trailing characters in token '" + token + "'");
      }
      if (factor < 1) {
        spec_fail("slow factor must be >= 1 in token '" + token + "'");
      }
      spec.slow_links.push_back({link, static_cast<int>(factor)});
    } else if (token.rfind("rand:", 0) == 0) {
      std::size_t rpos = 5;
      const long p = parse_number(token, rpos, token);
      if (rpos >= token.size() || token[rpos] != 'x') {
        spec_fail("rand token '" + token + "' must look like rand:PxLxS");
      }
      ++rpos;
      const long l = parse_number(token, rpos, token);
      if (rpos >= token.size() || token[rpos] != 'x') {
        spec_fail("rand token '" + token + "' must look like rand:PxLxS");
      }
      ++rpos;
      const long s = parse_number(token, rpos, token);
      if (rpos != token.size()) {
        spec_fail("trailing characters in token '" + token + "'");
      }
      const FaultSpec drawn =
          random_spec(topo, static_cast<int>(p), static_cast<int>(l),
                      static_cast<int>(s), seed);
      spec.dead_procs.insert(spec.dead_procs.end(),
                             drawn.dead_procs.begin(),
                             drawn.dead_procs.end());
      spec.dead_links.insert(spec.dead_links.end(),
                             drawn.dead_links.begin(),
                             drawn.dead_links.end());
      spec.slow_links.insert(spec.slow_links.end(),
                             drawn.slow_links.begin(),
                             drawn.slow_links.end());
    } else {
      spec_fail("unknown token '" + token + "' (" + grammar_help() + ")");
    }
    if (end == text.size()) {
      break;
    }
  }
  spec.normalise();
  // A drawn dead link may collide with an explicit slow link; dead wins.
  spec.slow_links.erase(
      std::remove_if(spec.slow_links.begin(), spec.slow_links.end(),
                     [&spec](const SlowLink& s) {
                       return std::binary_search(spec.dead_links.begin(),
                                                 spec.dead_links.end(),
                                                 s.link);
                     }),
      spec.slow_links.end());
  spec.validate(topo);
  return spec;
}

std::string FaultSpec::to_string() const {
  std::string out;
  // Opens a token: a comma after the first one, then its kind letter.
  auto start = [&out](char kind) {
    if (!out.empty()) {
      out += ',';
    }
    out += kind;
  };
  for (const int p : dead_procs) {
    start('p');
    out += std::to_string(p);
  }
  for (const int l : dead_links) {
    start('l');
    out += std::to_string(l);
  }
  for (const SlowLink& s : slow_links) {
    start('s');
    out += std::to_string(s.link);
    out += ':';
    out += std::to_string(s.factor);
  }
  return out;
}

std::string FaultSpec::grammar_help() {
  return "fault spec grammar: pN | lN | lU-V | sN:F | sU-V:F | rand:PxLxS, "
         "comma separated";
}

FaultedTopology::FaultedTopology(const Topology& base, FaultSpec spec)
    : base_(&base),
      spec_((spec.normalise(), spec.validate(base), std::move(spec))),
      dead_proc_(static_cast<std::size_t>(base.num_procs()), 0),
      dead_link_(static_cast<std::size_t>(base.num_links()), 0),
      slowdown_(static_cast<std::size_t>(base.num_links()), 1),
      // Placeholder machine; the healthy one is built below.
      sub_{Topology::custom(base.name(), Graph()), {}, {}, {}, {}} {
  const int num_procs = base.num_procs();
  for (const int p : spec_.dead_procs) {
    dead_proc_[static_cast<std::size_t>(p)] = 1;
  }
  for (const int l : spec_.dead_links) {
    dead_link_[static_cast<std::size_t>(l)] = 1;
  }
  // A link with a dead endpoint is dead too.
  for (int l = 0; l < base.num_links(); ++l) {
    const auto [u, v] = base.link_endpoints(l);
    if (dead_proc_[static_cast<std::size_t>(u)] != 0 ||
        dead_proc_[static_cast<std::size_t>(v)] != 0) {
      dead_link_[static_cast<std::size_t>(l)] = 1;
    }
  }
  for (const SlowLink& s : spec_.slow_links) {
    if (dead_link_[static_cast<std::size_t>(s.link)] == 0) {
      slowdown_[static_cast<std::size_t>(s.link)] = s.factor;
    }
  }

  // Components of the surviving links. The healthy one is the largest;
  // scanning processors upward with a strict > keeps, on ties, the one
  // holding the lowest processor.
  UnionFind components(num_procs);
  for (int l = 0; l < base.num_links(); ++l) {
    if (link_alive(l)) {
      // Endpoints come as u < v. Hanging v's root under u's keeps the
      // trees shallow; the other way round, a row of links added in
      // order grows one long chain.
      const auto [u, v] = base.link_endpoints(l);
      components.unite(v, u);
      ++num_alive_links_;
    }
  }
  std::vector<int> comp_size(static_cast<std::size_t>(num_procs), 0);
  for (int p = 0; p < num_procs; ++p) {
    if (proc_alive(p)) {
      ++comp_size[static_cast<std::size_t>(components.find(p))];
    }
  }
  int best = -1;
  for (int p = 0; p < num_procs; ++p) {
    const int c = components.find(p);
    if (proc_alive(p) &&
        (best < 0 || comp_size[static_cast<std::size_t>(c)] >
                         comp_size[static_cast<std::size_t>(best)])) {
      best = c;
    }
  }

  // The healthy machine, numbered in ascending base-id order.
  sub_.from_base_proc.assign(static_cast<std::size_t>(num_procs), -1);
  for (int p = 0; p < num_procs; ++p) {
    if (proc_alive(p) && components.find(p) == best) {
      sub_.from_base_proc[static_cast<std::size_t>(p)] =
          static_cast<int>(sub_.to_base_proc.size());
      sub_.to_base_proc.push_back(p);
    }
  }
  Graph links(static_cast<int>(sub_.to_base_proc.size()));
  for (int l = 0; l < base.num_links(); ++l) {
    const auto [u, v] = base.link_endpoints(l);
    if (link_alive(l) && healthy(u)) {  // then v is healthy too
      links.add_edge(sub_.from_base_proc[static_cast<std::size_t>(u)],
                     sub_.from_base_proc[static_cast<std::size_t>(v)]);
      sub_.to_base_link.push_back(l);
      sub_.link_factor.push_back(link_slowdown(l));
    }
  }
  sub_.topo = Topology::custom(
      base.name() + " [healthy " +
          std::to_string(sub_.to_base_proc.size()) + "/" +
          std::to_string(num_procs) + "]",
      std::move(links));
}

bool FaultedTopology::route_alive(const Route& route) const {
  for (const int link : route.links) {
    const auto [u, v] = base_->link_endpoints(link);
    if (!link_alive(link) || !proc_alive(u) || !proc_alive(v)) {
      return false;
    }
  }
  return true;
}

void FaultedTopology::check_placement(
    const std::vector<int>& proc_of_task) const {
  for (std::size_t t = 0; t < proc_of_task.size(); ++t) {
    if (!proc_alive(proc_of_task[t])) {
      throw MappingError("task " + std::to_string(t) +
                         " is placed on dead processor " +
                         std::to_string(proc_of_task[t]) + " (spec: " +
                         spec_.to_string() + ")");
    }
  }
}

void FaultedTopology::check_routes(int phase_index,
                                   const PhaseRouting& routing) const {
  for (std::size_t m = 0; m < routing.route_of_edge.size(); ++m) {
    if (!route_alive(routing.route_of_edge[m])) {
      throw MappingError("comm phase " + std::to_string(phase_index) +
                         " message " + std::to_string(m) +
                         " is routed across a dead link or processor "
                         "(spec: " +
                         spec_.to_string() + ")");
    }
  }
}

Mapping map_to_base(const FaultedTopology::HealthySub& sub,
                    Mapping mapping) {
  std::vector<int> placement;
  placement.reserve(mapping.proc_of_task().size());
  for (const int p : mapping.proc_of_task()) {
    placement.push_back(sub.to_base_proc[static_cast<std::size_t>(p)]);
  }
  for (auto& phase : mapping.routing) {
    for (auto& route : phase.route_of_edge) {
      for (int& link : route.links) {
        link = sub.to_base_link[static_cast<std::size_t>(link)];
      }
    }
  }
  return Mapping(std::move(placement), std::move(mapping.routing));
}

}  // namespace oregami
