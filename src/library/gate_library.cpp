#include "library/gate_library.hpp"

#include <algorithm>
#include <optional>

#include "decomp/isop.hpp"
#include "netlist/assert.hpp"
#include "obs/obs.hpp"

namespace dagmap {

double Gate::max_pin_delay() const {
  double d = 0.0;
  for (const GatePin& p : pins) d = std::max(d, p.delay());
  return d;
}

double Gate::max_load_slope() const {
  double s = 0.0;
  for (const GatePin& p : pins) s = std::max(s, p.load_slope());
  return s;
}

bool Gate::is_buffer() const {
  return pins.size() == 1 && function == TruthTable::variable(0, 1);
}

GateLibrary GateLibrary::from_genlib(const std::vector<GenlibGate>& gates,
                                     std::string name) {
  GateLibrary lib;
  lib.name_ = std::move(name);
  lib.gates_.reserve(gates.size());

  // Three passes over the gate list, one obs sub-phase each: truth
  // tables and pins, the ISOP normal forms, then the patterns.
  std::vector<std::vector<std::string>> gate_vars(gates.size());
  {
    obs::Scope scope("library.tt");
    for (std::size_t i = 0; i < gates.size(); ++i) {
      const GenlibGate& gg = gates[i];
      Gate g;
      g.name = gg.name;
      g.area = gg.area;

      std::vector<std::string>& vars = gate_vars[i];
      vars = expr_variables(gg.function);
      DAGMAP_ASSERT_MSG(vars.size() <= TruthTable::kMaxVars,
                        "gate " + gg.name + " has too many inputs");
      g.function = expr_truth_table(gg.function, vars);

      // Resolve pin timing: named PIN entries first, '*' as the default.
      const GenlibPin* wildcard = nullptr;
      for (const GenlibPin& p : gg.pins)
        if (p.name == "*") wildcard = &p;
      for (const std::string& v : vars) {
        GatePin pin;
        pin.name = v;
        const GenlibPin* src = wildcard;
        for (const GenlibPin& p : gg.pins)
          if (p.name == v) src = &p;
        if (src) {
          pin.rise_block = src->rise_block;
          pin.fall_block = src->fall_block;
          pin.input_load = src->input_load;
          pin.rise_fanout = src->rise_fanout;
          pin.fall_fanout = src->fall_fanout;
        }
        g.pins.push_back(std::move(pin));
      }
      lib.gates_.push_back(std::move(g));
    }
  }

  // The normalized ISOP-best-phase form is the exact shape technology
  // decomposition emits for a gate's function, so patterns of it let
  // every gate cover its own decomposition.  Constants have none.
  std::vector<std::optional<Expr>> normalized(gates.size());
  {
    obs::Scope scope("library.isop");
    for (std::size_t i = 0; i < gates.size(); ++i) {
      const TruthTable& f = lib.gates_[i].function;
      if (!gate_vars[i].empty() && !f.is_const0() && !f.is_const1())
        normalized[i] = truth_table_to_expr_best_phase(f, gate_vars[i]);
    }
  }

  // Patterns come from the GENLIB factored form *and* from the
  // normalized form, deduplicated by structure.
  {
    obs::Scope scope("library.patterns");
    for (std::size_t i = 0; i < gates.size(); ++i) {
      Gate& g = lib.gates_[i];
      g.patterns = generate_patterns(gates[i].function, gate_vars[i]);
      std::optional<Expr> norm = std::move(normalized[i]);
      if (!norm) continue;
      std::vector<std::uint64_t> seen;
      seen.reserve(g.patterns.size());
      for (const PatternGraph& p : g.patterns)
        seen.push_back(p.structural_hash());
      for (PatternGraph& p : generate_patterns(*norm, gate_vars[i])) {
        std::uint64_t h = p.structural_hash();
        if (std::find(seen.begin(), seen.end(), h) == seen.end()) {
          seen.push_back(h);
          g.patterns.push_back(std::move(p));
        }
      }
    }
  }

  lib.select_base_gates();
  return lib;
}

void GateLibrary::select_base_gates() {
  // Base gates: minimum-area implementations of INV and NAND2.
  TruthTable inv_f = ~TruthTable::variable(0, 1);
  TruthTable nand_f = ~(TruthTable::variable(0, 2) & TruthTable::variable(1, 2));
  inverter_ = nand2_ = buffer_ = nullptr;
  for (const Gate& g : gates_) {
    if (g.function == inv_f && (!inverter_ || g.area < inverter_->area))
      inverter_ = &g;
    if (g.function == nand_f && (!nand2_ || g.area < nand2_->area))
      nand2_ = &g;
    if (g.is_buffer() && (!buffer_ || g.area < buffer_->area))
      buffer_ = &g;
  }
}

GateLibrary GateLibrary::from_compiled(std::vector<Gate> gates,
                                       std::string name) {
  GateLibrary lib;
  lib.name_ = std::move(name);
  lib.gates_ = std::move(gates);
  lib.select_base_gates();
  return lib;
}

GateLibrary GateLibrary::from_genlib_text(const std::string& text,
                                          std::string name) {
  return from_genlib(parse_genlib(text), std::move(name));
}

std::size_t GateLibrary::total_pattern_nodes() const {
  std::size_t n = 0;
  for (const Gate& g : gates_)
    for (const PatternGraph& p : g.patterns) n += p.nodes.size();
  return n;
}

std::size_t GateLibrary::total_patterns() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) n += g.patterns.size();
  return n;
}

unsigned GateLibrary::max_gate_inputs() const {
  unsigned n = 0;
  for (const Gate& g : gates_) n = std::max(n, g.num_inputs());
  return n;
}

}  // namespace dagmap
