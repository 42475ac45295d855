#include "fanout/buffering.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "netlist/assert.hpp"
#include "timing/timing.hpp"

namespace dagmap {

namespace {

// One consumer edge of a net: either a gate/latch fanin slot or a PO.
struct Consumer {
  InstId inst = kNullInst;       // kNullInst for primary outputs
  std::size_t pin = 0;           // fanin slot (gates/latches)
  std::size_t po_index = 0;      // output index (POs)
  double criticality = 0.0;      // smaller = more critical
};

}  // namespace

BufferResult buffer_fanouts(const MappedNetlist& net, const GateLibrary& lib,
                            const BufferOptions& options) {
  DAGMAP_ASSERT_MSG(lib.buffer() != nullptr,
                    "library has no buffer gate for fanout optimization");
  DAGMAP_ASSERT_MSG(options.max_branch >= 2, "max_branch must be >= 2");
  const Gate* buf = lib.buffer();

  BufferResult result;
  result.delay_before = circuit_delay_loaded(net, options.load_model);

  // Criticality of each instance: slack under the load-independent model
  // (what the mapper optimized); critical consumers go nearest the
  // driver.
  TimingReport timing = analyze_timing(net);

  // Collect consumers per driver.
  std::vector<std::vector<Consumer>> consumers(net.size());
  for (InstId id = 0; id < net.size(); ++id) {
    if (net.kind(id) != Instance::Kind::GateInst &&
        net.kind(id) != Instance::Kind::Latch)
      continue;
    std::span<const InstId> fi = net.fanins(id);
    bool is_latch = net.kind(id) == Instance::Kind::Latch;
    for (std::size_t pin = 0; pin < fi.size(); ++pin) {
      // A latch D pin is a timing endpoint like a PO, so its urgency is
      // the endpoint slack (target minus the driver's arrival).  The
      // latch *instance's* slack is the Q-side value — +inf whenever the
      // latch output is unconstrained — which would bury critical D
      // endpoints at the bottom of the buffer tree.
      double crit = is_latch ? timing.target - timing.arrival[fi[pin]]
                             : timing.slack[id];
      consumers[fi[pin]].push_back({id, pin, 0, crit});
    }
  }
  for (std::size_t i = 0; i < net.outputs().size(); ++i)
    consumers[net.outputs()[i].node].push_back(
        {kNullInst, 0, i, /*criticality=*/0.0});

  MappedNetlist out(net.name());
  std::vector<InstId> mapped(net.size(), kNullInst);
  // Tap overrides: consumer edge -> new driver node.
  std::map<std::pair<InstId, std::size_t>, InstId> fanin_tap;
  std::vector<InstId> po_tap(net.outputs().size(), kNullInst);

  // Builds a balanced buffer subtree over `group` under `new_driver`,
  // keeping every net's fanout at most max_branch.  The most critical
  // consumer connects directly (zero buffer levels); the rest split
  // evenly under at most (max_branch - 1) buffers, recursively.
  auto connect_direct = [&](const Consumer& c, InstId driver) {
    if (c.inst == kNullInst)
      po_tap[c.po_index] = driver;
    else
      fanin_tap[{c.inst, c.pin}] = driver;
  };
  auto build_subtree = [&](InstId new_driver, std::span<const Consumer> group,
                           auto&& self) -> void {
    if (group.size() <= options.max_branch) {
      for (const Consumer& c : group) connect_direct(c, new_driver);
      return;
    }
    connect_direct(group[0], new_driver);
    std::span<const Consumer> rest = group.subspan(1);
    std::size_t num_buffers =
        std::min<std::size_t>(options.max_branch - 1, rest.size());
    std::size_t per = (rest.size() + num_buffers - 1) / num_buffers;
    for (std::size_t start = 0; start < rest.size(); start += per) {
      std::size_t len = std::min(per, rest.size() - start);
      InstId b = out.add_gate(buf, {new_driver});
      ++result.buffers_inserted;
      self(b, rest.subspan(start, len), self);
    }
  };

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
    // Once the node exists, pre-build its buffer tree if over-loaded.
    auto& cons = consumers[id];
    if (cons.size() > options.max_branch) {
      std::stable_sort(cons.begin(), cons.end(),
                       [](const Consumer& a, const Consumer& b) {
                         return a.criticality < b.criticality;
                       });
      build_subtree(mapped[id], cons, build_subtree);
    }
  }

  // Latch D inputs (possibly through taps).  An unwired placeholder
  // latch has no D fanin — fanins() is empty, so indexing [0] would be
  // out of bounds; carry the placeholder over unwired instead.
  for (InstId l : net.latches()) {
    std::span<const InstId> fi = net.fanins(l);
    if (fi.empty()) continue;
    auto it = fanin_tap.find({l, std::size_t{0}});
    InstId d = it != fanin_tap.end() ? it->second : mapped[fi[0]];
    out.connect_latch(mapped[l], d);
  }
  for (std::size_t i = 0; i < net.outputs().size(); ++i) {
    const Output& o = net.outputs()[i];
    InstId drv = po_tap[i] != kNullInst ? po_tap[i] : mapped[o.node];
    out.add_output(drv, o.name);
  }
  out.check();
  result.delay_after = circuit_delay_loaded(out, options.load_model);
  result.netlist = std::move(out);
  return result;
}

}  // namespace dagmap
