#include "fanout/sizing.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "io/liberty.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

std::vector<GenlibGate> make_sized_genlib(const std::vector<GenlibGate>& base,
                                          const std::vector<unsigned>& sizes) {
  DAGMAP_ASSERT(!sizes.empty());
  std::vector<GenlibGate> out;
  out.reserve(base.size() * sizes.size());
  for (const GenlibGate& g : base) {
    for (unsigned s : sizes) {
      DAGMAP_ASSERT(s >= 1);
      GenlibGate sized = g;
      if (s != 1) sized.name += "_x" + std::to_string(s);
      sized.area = g.area * s;
      for (GenlibPin& p : sized.pins) {
        p.input_load *= s;                    // bigger transistors
        p.rise_fanout /= static_cast<double>(s);  // stronger drive
        p.fall_fanout /= static_cast<double>(s);
        // Intrinsic (block) delays unchanged: the linear model the
        // paper's §5 discussion assumes.
      }
      out.push_back(std::move(sized));
    }
  }
  return out;
}

GateLibrary make_sized_library(const std::string& genlib_text,
                               const std::vector<unsigned>& sizes,
                               std::string name) {
  std::vector<GenlibGate> base = looks_like_liberty(genlib_text)
                                     ? parse_liberty(genlib_text).gates
                                     : parse_genlib(genlib_text);
  return GateLibrary::from_genlib(make_sized_genlib(base, sizes),
                                  std::move(name));
}

SizingResult size_gates(const MappedNetlist& net, const GateLibrary& lib,
                        const LoadModel& model, unsigned rounds) {
  SizingResult result;
  result.netlist = net;  // sized in place below
  MappedNetlist& work = result.netlist;
  result.delay_before = circuit_delay_loaded(work, model);

  // Candidate gates per function.
  std::unordered_map<std::uint64_t, std::vector<const Gate*>> by_function;
  for (const Gate& g : lib.gates())
    by_function[g.function.hash()].push_back(&g);
  auto candidates = [&](const Gate* g) -> const std::vector<const Gate*>* {
    auto it = by_function.find(g->function.hash());
    if (it == by_function.end()) return nullptr;
    return &it->second;
  };

  // replace_gate() does not invalidate the topology cache (pin-compatible
  // swap, structure unchanged), so this reference stays valid across the
  // sizing rounds.
  const auto& order = work.topo_order();
  // Monotonicity guard: keep the best configuration seen; greedy local
  // moves can occasionally regress globally.
  std::vector<const Gate*> best_config(work.size(), nullptr);
  double best_delay = result.delay_before;
  auto snapshot = [&] {
    for (InstId id = 0; id < work.size(); ++id)
      best_config[id] = work.kind(id) == Instance::Kind::GateInst
                            ? work.gate(id)
                            : nullptr;
  };
  snapshot();

  for (unsigned round = 0; round < rounds; ++round) {
    LoadTimingReport timing = analyze_timing_loaded(work, model);
    std::size_t changed = 0;
    // Reverse sweep: downstream loads settle first.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      InstId id = *it;
      if (work.kind(id) != Instance::Kind::GateInst) continue;
      const Gate* cur = work.gate(id);
      std::span<const InstId> fi = work.fanins(id);
      const auto* cands = candidates(cur);
      if (!cands || cands->size() < 2) continue;

      // The load this instance drives does not depend on its own size;
      // its *input* loads do, so candidate evaluation charges the fanin
      // slowdown caused by heavier input pins (first-order: the fanin
      // driver's slope times the pin-load delta).
      double out_load = timing.net_load[id];
      auto arrival_with = [&](const Gate* g) {
        double a = 0.0;
        for (std::size_t pin = 0; pin < fi.size(); ++pin) {
          const GatePin& p = g->pins[pin];
          InstId fanin = fi[pin];
          double fanin_arrival = timing.arrival[fanin];
          if (work.kind(fanin) == Instance::Kind::GateInst) {
            double delta = p.input_load - cur->pins[pin].input_load;
            fanin_arrival += work.gate(fanin)->max_load_slope() * delta;
          }
          a = std::max(a, fanin_arrival + p.delay() +
                              p.load_slope() * out_load);
        }
        return a;
      };

      // Critical instances (no slack) minimize arrival; others minimize
      // area subject to keeping their arrival within the required time —
      // otherwise greedy sizing would blindly upsize the whole netlist.
      bool critical = timing.slack[id] < 1e-9;
      double budget = timing.required[id];
      const Gate* best = cur;
      double best_arrival = arrival_with(cur);
      for (const Gate* g : *cands) {
        if (g == cur || g->num_inputs() != fi.size() ||
            !(g->function == cur->function))
          continue;
        double a = arrival_with(g);
        if (critical) {
          if (a < best_arrival - 1e-12 ||
              (a < best_arrival + 1e-12 && g->area < best->area)) {
            best_arrival = a;
            best = g;
          }
        } else {
          if (a <= budget + 1e-12 &&
              (g->area < best->area - 1e-12 ||
               (g->area < best->area + 1e-12 && a < best_arrival))) {
            best_arrival = a;
            best = g;
          }
        }
      }
      if (best != cur) {
        work.replace_gate(id, best);
        ++changed;
        ++result.resized;
      }
    }
    double now = circuit_delay_loaded(work, model);
    if (now < best_delay - 1e-12) {
      best_delay = now;
      snapshot();
    }
    if (changed == 0) break;
  }
  // Restore the best configuration seen and recount the real changes.
  for (InstId id = 0; id < work.size(); ++id)
    if (best_config[id] && best_config[id] != work.gate(id))
      work.replace_gate(id, best_config[id]);
  result.resized = 0;
  for (InstId id = 0; id < work.size(); ++id)
    if (work.kind(id) == Instance::Kind::GateInst &&
        work.gate(id) != net.gate(id))
      ++result.resized;
  result.delay_after = circuit_delay_loaded(work, model);
  DAGMAP_ASSERT(result.delay_after <= result.delay_before + 1e-9);
  return result;
}

}  // namespace dagmap
