#include "fanout/lt_tree.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One sink of a net: a consumer pin or a primary output.
struct Sink {
  InstId inst = kNullInst;  // kNullInst for POs
  std::size_t pin = 0;
  std::size_t po_index = 0;
  double required = 0.0;  // required time at the net, load-aware
  double load = 0.0;      // capacitance the sink presents
};

// A DP option for a suffix of sinks: the load its subtree presents to
// whatever drives it, the required time at that point, and the decision
// that produced it.
struct Option {
  double load = 0.0;
  double required = kInf;
  // Decision: attach `direct` sinks here; if `buffer` != null the rest
  // hangs behind it, continued at option `next` of solve(i + direct).
  std::size_t direct = 0;
  const Gate* buffer = nullptr;
  int next = -1;
};

// Keep only Pareto-optimal options (smaller load, larger required).
void pareto_prune(std::vector<Option>& opts) {
  std::sort(opts.begin(), opts.end(), [](const Option& a, const Option& b) {
    return a.load < b.load || (a.load == b.load && a.required > b.required);
  });
  std::vector<Option> keep;
  double best_req = -kInf;
  for (const Option& o : opts) {
    if (o.required > best_req + 1e-12) {
      keep.push_back(o);
      best_req = o.required;
    }
  }
  opts = std::move(keep);
}

}  // namespace

LtTreeResult buffer_fanouts_lt_tree(const MappedNetlist& net,
                                    const GateLibrary& lib,
                                    const LtTreeOptions& options) {
  // Buffer size ladder: every non-inverting single-input gate.
  std::vector<const Gate*> buffers;
  for (const Gate& g : lib.gates())
    if (g.is_buffer()) buffers.push_back(&g);
  DAGMAP_ASSERT_MSG(!buffers.empty(), "library has no buffer gates");

  LtTreeResult result;
  result.delay_before = circuit_delay_loaded(net, options.load_model);
  LoadTimingReport timing = analyze_timing_loaded(net, options.load_model);

  // Collect sinks per driver.
  std::vector<std::vector<Sink>> sinks(net.size());
  for (InstId id = 0; id < net.size(); ++id) {
    std::span<const InstId> fi = net.fanins(id);
    if (net.kind(id) == Instance::Kind::GateInst) {
      const Gate* gate = net.gate(id);
      for (std::size_t pin = 0; pin < fi.size(); ++pin) {
        const GatePin& p = gate->pins[pin];
        double req = timing.required[id] - p.delay() -
                     p.load_slope() * timing.net_load[id];
        sinks[fi[pin]].push_back(
            {id, pin, 0, req,
             p.input_load + options.load_model.wire_load_per_fanout});
      }
    } else if (net.kind(id) == Instance::Kind::Latch && !fi.empty()) {
      sinks[fi[0]].push_back(
          {id, 0, 0, timing.delay,
           options.load_model.latch_input_load +
               options.load_model.wire_load_per_fanout});
    }
  }
  for (std::size_t i = 0; i < net.outputs().size(); ++i)
    sinks[net.outputs()[i].node].push_back(
        {kNullInst, 0, i, timing.delay,
         options.load_model.primary_output_load});

  MappedNetlist out(net.name());
  std::vector<InstId> mapped(net.size(), kNullInst);
  std::map<std::pair<InstId, std::size_t>, InstId> fanin_tap;
  std::vector<InstId> po_tap(net.outputs().size(), kNullInst);

  // Builds the LT chain for `group`, rooted at `new_driver` (already in
  // `out`).  `table[i]` are the solve(i) Pareto options.
  auto build_chain = [&](InstId new_driver, const std::vector<Sink>& group,
                         const std::vector<std::vector<Option>>& table,
                         int pick) {
    InstId cur = new_driver;
    std::size_t i = 0;
    int opt_idx = pick;
    while (i < group.size()) {
      const Option& o = table[i][opt_idx];
      for (std::size_t s = 0; s < o.direct; ++s) {
        const Sink& snk = group[i + s];
        if (snk.inst == kNullInst)
          po_tap[snk.po_index] = cur;
        else
          fanin_tap[{snk.inst, snk.pin}] = cur;
      }
      i += o.direct;
      if (o.buffer) {
        cur = out.add_gate(o.buffer, {cur});
        ++result.buffers_inserted;
        opt_idx = o.next;
      } else {
        DAGMAP_ASSERT(i == group.size());
      }
    }
  };

  // Per overloaded driver: run the DP and record the chain plan; the
  // plans are realized while copying instances in topological order.
  struct Plan {
    std::vector<Sink> group;
    std::vector<std::vector<Option>> table;
    int pick = -1;
  };
  std::vector<Plan> plans(net.size());

  for (InstId drv = 0; drv < net.size(); ++drv) {
    auto& group = sinks[drv];
    if (group.size() <= options.fanout_threshold) continue;
    // Most critical first: they attach nearest the driver.
    std::stable_sort(group.begin(), group.end(),
                     [](const Sink& a, const Sink& b) {
                       return a.required < b.required;
                     });
    std::size_t n = group.size();
    std::vector<std::vector<Option>> table(n + 1);
    table[n] = {};  // sentinel; handled below
    // Suffix sums of sink loads for O(1) group loads.
    std::vector<double> prefix_load(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      prefix_load[i + 1] = prefix_load[i] + group[i].load;

    for (std::size_t i = n; i-- > 0;) {
      std::vector<Option> opts;
      // Terminal: all remaining sinks attach here.
      {
        Option o;
        o.direct = n - i;
        o.load = prefix_load[n] - prefix_load[i];
        o.required = kInf;
        for (std::size_t s = i; s < n; ++s)
          o.required = std::min(o.required, group[s].required);
        opts.push_back(o);
      }
      // Or: k direct sinks plus one buffer continuing the chain.
      for (std::size_t k = 1; i + k < n; ++k) {
        double grp_load = prefix_load[i + k] - prefix_load[i];
        double grp_req = kInf;
        for (std::size_t s = i; s < i + k; ++s)
          grp_req = std::min(grp_req, group[s].required);
        for (const Gate* b : buffers) {
          const GatePin& bp = b->pins[0];
          for (std::size_t d = 0; d < table[i + k].size(); ++d) {
            const Option& down = table[i + k][d];
            double buf_delay = bp.delay() + bp.load_slope() * down.load;
            Option o;
            o.direct = k;
            o.buffer = b;
            o.next = static_cast<int>(d);
            o.load = grp_load + bp.input_load +
                     options.load_model.wire_load_per_fanout;
            o.required = std::min(grp_req, down.required - buf_delay);
            opts.push_back(o);
          }
        }
      }
      pareto_prune(opts);
      table[i] = std::move(opts);
    }

    // The driver wants maximal slack: required - slope * load maximal.
    double slope = net.kind(drv) == Instance::Kind::GateInst
                       ? net.gate(drv)->max_load_slope()
                       : 0.0;
    int best = -1;
    double best_score = -kInf;
    for (std::size_t o = 0; o < table[0].size(); ++o) {
      double score = table[0][o].required - slope * table[0][o].load;
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(o);
      }
    }
    DAGMAP_ASSERT(best >= 0);
    plans[drv].group = group;
    plans[drv].table = std::move(table);
    plans[drv].pick = best;
  }

  // Copy instances in topological order, realizing chain plans as soon
  // as their driver exists.
  std::vector<InstId> fanins;
  for (InstId id : net.topo_order()) {
    switch (net.kind(id)) {
      case Instance::Kind::PrimaryInput:
        mapped[id] = out.add_input(net.name(id));
        break;
      case Instance::Kind::Const0: mapped[id] = out.add_constant(false); break;
      case Instance::Kind::Const1: mapped[id] = out.add_constant(true); break;
      case Instance::Kind::Latch:
        mapped[id] = out.add_latch_placeholder(net.name(id));
        break;
      case Instance::Kind::GateInst: {
        std::span<const InstId> fi = net.fanins(id);
        fanins.clear();
        for (std::size_t pin = 0; pin < fi.size(); ++pin) {
          auto it = fanin_tap.find({id, pin});
          fanins.push_back(it != fanin_tap.end() ? it->second
                                                 : mapped[fi[pin]]);
        }
        mapped[id] = out.add_gate(net.gate(id), fanins, net.name(id));
        break;
      }
    }
    if (plans[id].pick >= 0)
      build_chain(mapped[id], plans[id].group, plans[id].table,
                  plans[id].pick);
  }

  for (InstId l : net.latches()) {
    // Unwired placeholder latches have no D fanin to rewire.
    std::span<const InstId> fi = net.fanins(l);
    if (fi.empty()) continue;
    auto it = fanin_tap.find({l, std::size_t{0}});
    InstId d = it != fanin_tap.end() ? it->second : mapped[fi[0]];
    out.connect_latch(mapped[l], d);
  }
  for (std::size_t i = 0; i < net.outputs().size(); ++i) {
    InstId drv =
        po_tap[i] != kNullInst ? po_tap[i] : mapped[net.outputs()[i].node];
    out.add_output(drv, net.outputs()[i].name);
  }
  out.check();
  result.delay_after = circuit_delay_loaded(out, options.load_model);
  result.netlist = std::move(out);
  return result;
}

}  // namespace dagmap
