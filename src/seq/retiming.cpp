#include "seq/retiming.hpp"

#include <algorithm>
#include <unordered_map>

#include "netlist/assert.hpp"
#include "timing/timing.hpp"

namespace dagmap {

namespace {

// Clock-period computation (Leiserson–Saxe "CP"): longest delay path
// through zero-weight edges.  Requires the zero-weight subgraph to be
// acyclic, which legal retimings guarantee (every cycle keeps >= 1
// register).  `weight(e)` is the retimed weight.
double clock_period(const RetimingGraph& g,
                    const std::vector<std::int32_t>& lag,
                    std::vector<double>* arrival_out = nullptr) {
  std::size_t v_count = g.num_vertices();
  std::vector<std::uint32_t> pending(v_count, 0);
  std::vector<std::vector<std::uint32_t>> zero_out(v_count);
  for (const auto& e : g.edges) {
    std::int64_t w = e.weight + lag[e.to] - lag[e.from];
    DAGMAP_ASSERT_MSG(w >= 0, "illegal retiming (negative edge weight)");
    // The host (vertex 0) models the registered environment: it receives
    // arrivals (PO endpoint check) but never propagates them, so cycles
    // closed through the environment are not combinational cycles.
    if (w == 0 && e.from != 0) {
      zero_out[e.from].push_back(e.to);
      ++pending[e.to];
    }
  }
  std::vector<double> arrival(v_count, 0.0);
  std::vector<std::uint32_t> order;
  order.reserve(v_count);
  for (std::uint32_t v = 0; v < v_count; ++v) {
    arrival[v] = g.delay[v];
    if (pending[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    std::uint32_t u = order[head];
    for (std::uint32_t v : zero_out[u]) {
      arrival[v] = std::max(arrival[v], arrival[u] + g.delay[v]);
      if (--pending[v] == 0) order.push_back(v);
    }
  }
  DAGMAP_ASSERT_MSG(order.size() == v_count,
                    "zero-weight cycle in retiming graph");
  double period = 0.0;
  for (double a : arrival) period = std::max(period, a);
  if (arrival_out) *arrival_out = std::move(arrival);
  return period;
}

}  // namespace

double static_period(const RetimingGraph& g) {
  std::vector<std::int32_t> zero(g.num_vertices(), 0);
  return clock_period(g, zero);
}

RetimingResult feasible_period(const RetimingGraph& g, double target) {
  // FEAS: iterate |V|-1 times; on each round bump the lag of every vertex
  // whose arrival exceeds the target.  Legality is preserved because all
  // zero-weight successors of a violating vertex are violating too.
  std::size_t v_count = g.num_vertices();
  RetimingResult result;
  result.lag.assign(v_count, 0);
  std::vector<double> arrival;
  std::vector<bool> bump(v_count);
  for (std::size_t iter = 0; iter + 1 < v_count + 1; ++iter) {
    clock_period(g, result.lag, &arrival);
    bool violated = false;
    for (std::uint32_t v = 0; v < v_count; ++v) {
      bump[v] = arrival[v] > target + 1e-12;
      violated = violated || bump[v];
    }
    if (!violated) break;
    // Close the increment set under zero-weight out-edges so no edge goes
    // negative (the host does not propagate arrivals, so this closure is
    // what keeps host->PI edges legal).
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& e : g.edges) {
        if (!bump[e.from] || bump[e.to]) continue;
        if (e.weight + result.lag[e.to] - result.lag[e.from] == 0) {
          bump[e.to] = true;
          grew = true;
        }
      }
    }
    for (std::uint32_t v = 0; v < v_count; ++v)
      if (bump[v]) ++result.lag[v];
  }
  // Only lag differences matter; normalize so the host keeps lag 0.
  std::int32_t host_lag = result.lag[0];
  for (auto& l : result.lag) l -= host_lag;
  double achieved = clock_period(g, result.lag);
  result.feasible = achieved <= target + 1e-9;
  result.period = achieved;
  if (!result.feasible) result.lag.assign(v_count, 0);
  return result;
}

RetimingResult min_period_retiming(const RetimingGraph& g, double epsilon) {
  double hi = static_period(g);
  double lo = 0.0;
  for (double d : g.delay) lo = std::max(lo, d);
  RetimingResult best;
  best.feasible = true;
  best.period = hi;
  best.lag.assign(g.num_vertices(), 0);
  if (hi <= lo + epsilon) return best;

  RetimingResult at_lo = feasible_period(g, lo);
  if (at_lo.feasible) return at_lo;

  // Invariant: lo infeasible, hi feasible (with `best` witnessing hi).
  while (hi - lo > epsilon) {
    double mid = 0.5 * (lo + hi);
    RetimingResult r = feasible_period(g, mid);
    if (r.feasible) {
      best = r;
      hi = r.period;  // r.period <= mid, tighten harder
    } else {
      lo = mid;
    }
  }
  return best;
}

namespace {

// Resolves a possibly-latch node to its combinational driver plus the
// register count along the chain.
std::pair<NodeId, std::int32_t> resolve_driver(const Network& net, NodeId n) {
  std::int32_t w = 0;
  while (net.kind(n) == NodeKind::Latch) {
    ++w;
    n = net.fanins(n)[0];
  }
  return {n, w};
}

std::pair<InstId, std::int32_t> resolve_driver(const MappedNetlist& net,
                                               InstId n) {
  std::int32_t w = 0;
  while (net.kind(n) == Instance::Kind::Latch) {
    ++w;
    n = net.fanins(n)[0];
  }
  return {n, w};
}

}  // namespace

RetimingGraph retiming_graph_of(const Network& net,
                                std::vector<std::uint32_t>* vertex_of) {
  RetimingGraph g;
  g.delay.push_back(0.0);  // host
  std::vector<std::uint32_t> vid(net.size(), 0);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (net.kind(n) == NodeKind::Latch) continue;
    vid[n] = static_cast<std::uint32_t>(g.delay.size());
    g.delay.push_back(net.is_source(n) ? 0.0 : 1.0);
  }
  for (NodeId n = 0; n < net.size(); ++n) {
    if (net.kind(n) == NodeKind::Latch || net.is_source(n)) continue;
    for (NodeId f : net.fanins(n)) {
      auto [drv, w] = resolve_driver(net, f);
      g.edges.push_back({vid[drv], vid[n], w});
    }
  }
  for (NodeId pi : net.inputs()) g.edges.push_back({0, vid[pi], 0});
  for (const Output& o : net.outputs()) {
    auto [drv, w] = resolve_driver(net, o.node);
    g.edges.push_back({vid[drv], 0, w});
  }
  if (vertex_of) *vertex_of = std::move(vid);
  return g;
}

RetimingGraph retiming_graph_of(const MappedNetlist& net,
                                std::vector<std::uint32_t>* vertex_of) {
  RetimingGraph g;
  g.delay.push_back(0.0);  // host
  std::vector<std::uint32_t> vid(net.size(), 0);
  for (InstId n = 0; n < net.size(); ++n) {
    if (net.kind(n) == Instance::Kind::Latch) continue;
    vid[n] = static_cast<std::uint32_t>(g.delay.size());
    g.delay.push_back(net.kind(n) == Instance::Kind::GateInst
                          ? net.gate(n)->max_pin_delay()
                          : 0.0);
  }
  for (InstId n = 0; n < net.size(); ++n) {
    if (net.kind(n) != Instance::Kind::GateInst) continue;
    for (InstId f : net.fanins(n)) {
      auto [drv, w] = resolve_driver(net, f);
      g.edges.push_back({vid[drv], vid[n], w});
    }
  }
  for (InstId pi : net.inputs()) g.edges.push_back({0, vid[pi], 0});
  for (const Output& o : net.outputs()) {
    auto [drv, w] = resolve_driver(net, o.node);
    g.edges.push_back({vid[drv], 0, w});
  }
  if (vertex_of) *vertex_of = std::move(vid);
  return g;
}

namespace {

// Latch-chain factory shared by both rebuilds: creates (and caches)
// `depth` placeholder latches above `drv`'s *original* id; the first
// latch of each chain is wired to the rebuilt driver at the end.
template <typename NetOut, typename AddLatch, typename ConnectLatch>
class ChainFactory {
 public:
  ChainFactory(NetOut& out, AddLatch add_latch, ConnectLatch connect)
      : out_(out), add_latch_(add_latch), connect_(connect) {}

  std::uint32_t get(std::uint32_t drv_original, std::int32_t depth) {
    std::uint32_t last = 0;
    for (std::int32_t d = 1; d <= depth; ++d) {
      std::uint64_t key = (std::uint64_t{drv_original} << 16) | static_cast<std::uint32_t>(d);
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        last = it->second;
        continue;
      }
      std::uint32_t latch = add_latch_(out_);
      if (d == 1)
        pending_roots_.push_back({latch, drv_original});
      else
        connect_(out_, latch, cache_.at(key - 1));
      cache_.emplace(key, latch);
      last = latch;
    }
    return last;
  }

  /// Wires chain roots once `mapped` holds the rebuilt driver ids.
  void finish(const std::vector<std::uint32_t>& mapped) {
    for (auto [latch, drv] : pending_roots_) connect_(out_, latch, mapped[drv]);
  }

 private:
  NetOut& out_;
  AddLatch add_latch_;
  ConnectLatch connect_;
  std::unordered_map<std::uint64_t, std::uint32_t> cache_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_roots_;
};

// Topological order of non-latch original nodes over the *retimed*
// zero-weight edges.  `fanin_edges(n)` yields (driver original id, new
// weight) pairs.
template <typename FaninEdges>
std::vector<std::uint32_t> retimed_topo_order(
    const std::vector<std::uint32_t>& combinational, std::size_t universe,
    FaninEdges fanin_edges) {
  std::vector<std::uint32_t> local(universe, 0);
  for (std::size_t i = 0; i < combinational.size(); ++i)
    local[combinational[i]] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> pending(combinational.size(), 0);
  std::vector<std::vector<std::uint32_t>> zero_out(combinational.size());
  for (std::size_t i = 0; i < combinational.size(); ++i)
    for (auto [drv, w] : fanin_edges(combinational[i]))
      if (w == 0) {
        zero_out[local[drv]].push_back(static_cast<std::uint32_t>(i));
        ++pending[i];
      }
  std::vector<std::uint32_t> order;
  order.reserve(combinational.size());
  for (std::size_t i = 0; i < combinational.size(); ++i)
    if (pending[i] == 0) order.push_back(static_cast<std::uint32_t>(i));
  for (std::size_t head = 0; head < order.size(); ++head)
    for (std::uint32_t o : zero_out[order[head]])
      if (--pending[o] == 0) order.push_back(o);
  DAGMAP_ASSERT_MSG(order.size() == combinational.size(),
                    "retimed circuit has a combinational cycle");
  std::vector<std::uint32_t> result;
  result.reserve(order.size());
  for (std::uint32_t i : order) result.push_back(combinational[i]);
  return result;
}

}  // namespace

Network retime_min_period(const Network& net, double* achieved) {
  std::vector<std::uint32_t> vid;
  RetimingGraph g = retiming_graph_of(net, &vid);
  RetimingResult r = min_period_retiming(g);
  DAGMAP_ASSERT(r.feasible);
  if (achieved) *achieved = r.period;

  auto weight_of = [&](NodeId drv, std::int32_t w, std::uint32_t to_vertex) {
    std::int64_t nw = w + (to_vertex == 0 ? 0 : r.lag[to_vertex]) -
                      r.lag[vid[drv]];
    DAGMAP_ASSERT_MSG(nw >= 0, "illegal retimed weight");
    return static_cast<std::int32_t>(nw);
  };

  std::vector<std::uint32_t> combinational;
  for (NodeId n = 0; n < net.size(); ++n)
    if (net.kind(n) != NodeKind::Latch) combinational.push_back(n);

  auto fanin_edges = [&](NodeId n) {
    std::vector<std::pair<std::uint32_t, std::int32_t>> edges;
    for (NodeId f : net.fanins(n)) {
      auto [drv, w] = resolve_driver(net, f);
      edges.push_back({drv, weight_of(drv, w, vid[n])});
    }
    return edges;
  };
  auto order = retimed_topo_order(combinational, net.size(), fanin_edges);

  Network out(net.name());
  ChainFactory chains(
      out, [](Network& o) { return o.add_latch_placeholder(); },
      [](Network& o, NodeId latch, NodeId d) { o.connect_latch(latch, d); });
  std::vector<std::uint32_t> mapped(net.size(), kNullNode);
  for (NodeId n : order) {
    std::vector<NodeId> fanins;
    for (auto [drv, w] : fanin_edges(n)) {
      if (w == 0) {
        DAGMAP_ASSERT(mapped[drv] != kNullNode);
        fanins.push_back(mapped[drv]);
      } else {
        fanins.push_back(chains.get(drv, w));
      }
    }
    switch (net.kind(n)) {
      case NodeKind::PrimaryInput: {
        // A positive PI lag materializes as registers right after the
        // input pin (the host->PI edge weight).
        NodeId cur = out.add_input(net.name(n));
        for (std::int32_t i = 0; i < r.lag[vid[n]]; ++i)
          cur = out.add_latch(cur);
        mapped[n] = cur;
        break;
      }
      case NodeKind::Const0: mapped[n] = out.add_constant(false); break;
      case NodeKind::Const1: mapped[n] = out.add_constant(true); break;
      case NodeKind::Inv:
        mapped[n] = out.add_inv(fanins[0], net.name(n));
        break;
      case NodeKind::Nand2:
        mapped[n] = out.add_nand2(fanins[0], fanins[1], net.name(n));
        break;
      case NodeKind::Logic:
        mapped[n] = out.add_logic(std::move(fanins), net.function(n),
                                  net.name(n));
        break;
      case NodeKind::Latch:
        DAGMAP_ASSERT_MSG(false, "latches are not combinational");
    }
  }
  chains.finish(mapped);
  for (const Output& o : net.outputs()) {
    auto [drv, w] = resolve_driver(net, o.node);
    std::int32_t nw = weight_of(drv, w, 0);
    out.add_output(nw == 0 ? mapped[drv] : chains.get(drv, nw), o.name);
  }
  out.check();
  return out;
}

MappedNetlist retime_min_period(const MappedNetlist& net, double* achieved) {
  std::vector<std::uint32_t> vid;
  RetimingGraph g = retiming_graph_of(net, &vid);
  RetimingResult r = min_period_retiming(g);
  DAGMAP_ASSERT(r.feasible);

  auto weight_of = [&](InstId drv, std::int32_t w, std::uint32_t to_vertex) {
    std::int64_t nw = w + (to_vertex == 0 ? 0 : r.lag[to_vertex]) -
                      r.lag[vid[drv]];
    DAGMAP_ASSERT_MSG(nw >= 0, "illegal retimed weight");
    return static_cast<std::int32_t>(nw);
  };

  std::vector<std::uint32_t> combinational;
  for (InstId n = 0; n < net.size(); ++n)
    if (net.kind(n) != Instance::Kind::Latch) combinational.push_back(n);

  auto fanin_edges = [&](InstId n) {
    std::vector<std::pair<std::uint32_t, std::int32_t>> edges;
    for (InstId f : net.fanins(n)) {
      auto [drv, w] = resolve_driver(net, f);
      edges.push_back({drv, weight_of(drv, w, vid[n])});
    }
    return edges;
  };
  auto order = retimed_topo_order(combinational, net.size(), fanin_edges);

  MappedNetlist out(net.name());
  ChainFactory chains(
      out, [](MappedNetlist& o) { return o.add_latch_placeholder(); },
      [](MappedNetlist& o, InstId latch, InstId d) {
        o.connect_latch(latch, d);
      });
  std::vector<std::uint32_t> mapped(net.size(), kNullInst);
  for (InstId n : order) {
    std::vector<InstId> fanins;
    for (auto [drv, w] : fanin_edges(n)) {
      if (w == 0) {
        DAGMAP_ASSERT(mapped[drv] != kNullInst);
        fanins.push_back(mapped[drv]);
      } else {
        fanins.push_back(chains.get(drv, w));
      }
    }
    switch (net.kind(n)) {
      case Instance::Kind::PrimaryInput: {
        InstId cur = out.add_input(net.name(n));
        for (std::int32_t i = 0; i < r.lag[vid[n]]; ++i) {
          InstId latch = out.add_latch_placeholder();
          out.connect_latch(latch, cur);
          cur = latch;
        }
        mapped[n] = cur;
        break;
      }
      case Instance::Kind::Const0: mapped[n] = out.add_constant(false); break;
      case Instance::Kind::Const1: mapped[n] = out.add_constant(true); break;
      case Instance::Kind::GateInst:
        mapped[n] = out.add_gate(net.gate(n), fanins, net.name(n));
        break;
      case Instance::Kind::Latch:
        DAGMAP_ASSERT_MSG(false, "latches are not combinational");
    }
  }
  chains.finish(mapped);
  for (const Output& o : net.outputs()) {
    auto [drv, w] = resolve_driver(net, o.node);
    std::int32_t nw = weight_of(drv, w, 0);
    out.add_output(nw == 0 ? mapped[drv] : chains.get(drv, nw), o.name);
  }
  out.check();
  if (achieved) *achieved = analyze_timing(out).delay;
  return out;
}

}  // namespace dagmap
