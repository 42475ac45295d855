#include "supergate/supergate.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <locale>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/parallel.hpp"
#include "io/number.hpp"
#include "library/pattern.hpp"
#include "netlist/assert.hpp"
#include "obs/obs.hpp"
#include "supergate/canon.hpp"
#include "supergate/enumerate.hpp"

namespace dagmap {
namespace {

constexpr double kDelayEps = 1e-9;

/// Rounds a double to the six significant digits GENLIB files carry, so
/// sums of pin delays like 1.2 + 1.0 = 2.2000000000000002 become the 2.2
/// a hand-written library would hold.  write_genlib round-trips any
/// double exactly either way; the rounded values are what compiled
/// supergate artifacts store.  Both directions are pinned to the
/// classic locale (io/number.hpp) so a comma-decimal global locale
/// cannot change the result.
double normalize_double(double v) {
  std::ostringstream ss;
  ss.imbue(std::locale::classic());
  ss << v;
  return *parse_double_strict(ss.str());
}

/// 64-bit FNV-1a of the canonical structure string — the stable part of
/// a generated supergate's name.
std::uint64_t structure_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

/// True when the candidate's function is constant or ignores one of its
/// introduced variables (composition cancelled it, e.g. a*!a inside).
/// Bit-parallel on the 64-bit table — this runs once per enumerated
/// candidate, so no TruthTable allocation.
bool is_trivial(const SgCandidate& c) {
  constexpr std::uint64_t kProjection[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  // Replicate the valid low 2^num_vars bits across the whole word so
  // the masks below apply uniformly.
  std::uint64_t t = c.tt;
  for (unsigned n = c.num_vars; n < 6; ++n) t |= t << (1u << n);
  if (t == 0 || t == ~std::uint64_t{0}) return true;
  for (unsigned v = 0; v < c.num_vars; ++v) {
    // Cofactor comparison: XOR the var=1 half onto the var=0 half.
    if (((t ^ (t >> (1u << v))) & ~kProjection[v]) == 0) return true;
  }
  // Single-variable identity: a buffer made of gates, delay-only.
  return c.num_vars == 1 && c.tt == 0b10;
}

/// Structure-level Boolean cleanup of a composed expression, preserving
/// the function exactly: constant folding, double negation, and — the
/// load-bearing part — idempotence (x*x -> x) and complement
/// annihilation (x*!x -> 0) inside AND/OR.  Composition with input
/// sharing routinely produces those shapes, and the pattern lowerer
/// rejects degenerate NAND operands, so materialized functions must be
/// clean before from_genlib sees them.  AND/OR operands are re-ordered
/// into canonical (sorted-repr) order so commutative duplicates like
/// or(a*b, b*a) — which the strashed lowerer would collapse into the
/// same node — are caught by the textual dedup.
Expr simplify_expr(const Expr& e) {
  switch (e.op) {
    case Expr::Op::Var:
    case Expr::Op::Const0:
    case Expr::Op::Const1:
      return e;
    case Expr::Op::Not: {
      Expr inner = simplify_expr(e.operands[0]);
      if (inner.op == Expr::Op::Const0) return Expr::make_const(true);
      if (inner.op == Expr::Op::Const1) return Expr::make_const(false);
      if (inner.op == Expr::Op::Not) return std::move(inner.operands[0]);
      return Expr::make_not(std::move(inner));
    }
    case Expr::Op::And:
    case Expr::Op::Or: {
      bool is_and = e.op == Expr::Op::And;
      std::vector<std::pair<std::string, Expr>> kept;  // (repr, operand)
      for (const Expr& operand : e.operands) {
        Expr s = simplify_expr(operand);
        if (s.op == (is_and ? Expr::Op::Const1 : Expr::Op::Const0)) continue;
        if (s.op == (is_and ? Expr::Op::Const0 : Expr::Op::Const1)) {
          return Expr::make_const(!is_and);
        }
        std::string repr = to_string(s);
        bool duplicate = false;
        for (const auto& [prev, ignored] : kept) {
          if (prev == repr) duplicate = true;
        }
        if (duplicate) continue;
        // x and !x together annihilate (AND: 0, OR: 1).
        std::string complement = s.op == Expr::Op::Not
                                     ? to_string(s.operands[0])
                                     : to_string(Expr::make_not(s));
        for (const auto& [prev, ignored] : kept) {
          if (prev == complement) return Expr::make_const(!is_and);
        }
        kept.emplace_back(std::move(repr), std::move(s));
      }
      if (kept.empty()) return Expr::make_const(is_and);
      if (kept.size() == 1) return std::move(kept[0].second);
      std::sort(kept.begin(), kept.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      std::vector<Expr> operands;
      operands.reserve(kept.size());
      for (auto& [repr, s] : kept) operands.push_back(std::move(s));
      return is_and ? Expr::make_and(std::move(operands))
                    : Expr::make_or(std::move(operands));
    }
  }
  return e;
}

struct ExactKey {
  std::uint64_t tt;
  unsigned num_vars;
  friend bool operator==(const ExactKey& a, const ExactKey& b) {
    return a.tt == b.tt && a.num_vars == b.num_vars;
  }
};
struct ExactKeyHash {
  std::size_t operator()(const ExactKey& k) const {
    return CanonKeyHash{}(CanonKey{k.tt, k.num_vars});
  }
};

}  // namespace

SupergateLibrary generate_supergates(const std::vector<GenlibGate>& base,
                                     const SupergateOptions& options,
                                     std::string name) {
  obs::Scope obs_scope("supergate.generate");
  auto t0 = std::chrono::steady_clock::now();
  SupergateStats stats;

  std::vector<BaseGateInfo> info =
      analyze_base_gates(base, options.max_component_inputs);

  // Fastest base gate per exact function: a candidate computing a
  // function the library already has must be strictly faster to earn a
  // slot.  (Exact equality, not NPN: NPN-equivalent gates match
  // different subject shapes and are not interchangeable.)
  std::unordered_map<ExactKey, double, ExactKeyHash> base_delay;
  for (const BaseGateInfo& g : info) {
    unsigned n = static_cast<unsigned>(g.vars.size());
    if (n < 1 || n > kSupergateMaxVars) continue;
    double worst = 0.0;
    for (double d : g.pin_delay) worst = std::max(worst, d);
    ExactKey key{g.tt, n};
    auto [it, inserted] = base_delay.emplace(key, worst);
    if (!inserted) it->second = std::min(it->second, worst);
  }

  // Stage 1 — parallel enumeration: one work unit per participating
  // root gate, each appending to its own arena; merged in root index
  // order below, so the output is independent of the thread count.
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (info[i].participates) roots.push_back(i);
  }
  stats.roots = roots.size();

  std::vector<std::vector<SgCandidate>> arenas(roots.size());
  std::vector<unsigned char> truncated(roots.size(), 0);
  if (options.max_depth >= 2 && !roots.empty()) {
    ThreadPool pool(resolve_num_threads(options.num_threads));
    pool.parallel_for(
        roots.size(),
        [&](std::size_t i, unsigned) {
          if (!enumerate_supergates_for_root(info, roots[i], options,
                                             arenas[i])) {
            truncated[i] = 1;
          }
        },
        "supergate.enumerate");
  }
  for (unsigned char t : truncated) stats.truncated_roots += t;

  // Stage 2 — sequential merge and class selection, in deterministic
  // candidate order (root index major, per-root DFS order minor).
  struct ClassBest {
    std::size_t arena;
    std::size_t index;
    double delay;
    double area;
    std::string structure;
  };
  std::unordered_map<CanonKey, ClassBest, CanonKeyHash> best;
  std::size_t survivors = 0;
  for (std::size_t a = 0; a < arenas.size(); ++a) {
    for (std::size_t i = 0; i < arenas[a].size(); ++i) {
      const SgCandidate& c = arenas[a][i];
      ++stats.candidates;
      if (is_trivial(c)) {
        ++stats.pruned_trivial;
        continue;
      }
      double delay = c.delay();
      auto base_it = base_delay.find(ExactKey{c.tt, c.num_vars});
      if (base_it != base_delay.end() &&
          delay >= base_it->second - kDelayEps) {
        ++stats.pruned_vs_base;
        continue;
      }
      ++survivors;
      CanonKey key = canon_key(c.tt, c.num_vars);
      auto it = best.find(key);
      bool wins = it == best.end();
      std::string structure;  // built lazily: most challengers lose on
                              // delay/area before the string is needed
      if (!wins) {
        const ClassBest& cur = it->second;
        if (delay < cur.delay - kDelayEps) {
          wins = true;
        } else if (delay <= cur.delay + kDelayEps) {
          if (c.area < cur.area - kDelayEps) {
            wins = true;
          } else if (c.area <= cur.area + kDelayEps) {
            structure = candidate_structure(info, c);
            wins = structure < cur.structure;
          }
        }
      }
      if (wins) {
        if (structure.empty()) structure = candidate_structure(info, c);
        best[key] = ClassBest{a, i, delay, c.area, std::move(structure)};
      }
    }
  }
  stats.classes_seen = best.size();
  stats.kept = best.size();
  stats.pruned_by_class = survivors - best.size();

  // Stage 3 — materialize winners as ordinary GENLIB gates, in the
  // deterministic order their class first won.
  std::vector<const ClassBest*> winners;
  winners.reserve(best.size());
  for (const auto& [key, cb] : best) winners.push_back(&cb);
  std::sort(winners.begin(), winners.end(),
            [](const ClassBest* x, const ClassBest* y) {
              return x->arena != y->arena ? x->arena < y->arena
                                          : x->index < y->index;
            });

  std::vector<GenlibGate> out_gates = base;
  std::unordered_set<std::string> used_names;
  for (const GenlibGate& g : base) used_names.insert(g.name);
  for (const ClassBest* cb : winners) {
    const SgCandidate& c = arenas[cb->arena][cb->index];
    GenlibGate g;
    std::string root_name = info[static_cast<std::size_t>(c.code[0])]
                                .source->name;
    g.name = "sg_" + root_name + "_" + hex16(structure_hash(cb->structure));
    while (!used_names.insert(g.name).second) g.name += "x";
    g.area = normalize_double(c.area);
    g.output_name = "O";
    g.function = simplify_expr(candidate_expr(info, c));
    // Simplification never drops a variable entirely (trivial
    // candidates were pruned above), but it may reorder first
    // occurrences — harmless, since from_genlib pairs PIN records by
    // name, not position.
    assert(expr_variables(g.function).size() == c.num_vars);
    // Backstop: a simplified form the strashed pattern lowerer still
    // rejects (two operands collapsing into the same node in a way the
    // textual canonicalization cannot see) is dropped deterministically
    // rather than poisoning from_genlib below.
    try {
      generate_patterns(g.function, expr_variables(g.function));
    } catch (const ContractError&) {
      ++stats.pruned_degenerate;
      --stats.kept;
      used_names.erase(g.name);
      continue;
    }
    for (unsigned v = 0; v < c.num_vars; ++v) {
      GenlibPin pin;
      pin.name = std::string(1, static_cast<char>('a' + v));
      pin.phase = GenlibPin::Phase::Unknown;
      pin.input_load = normalize_double(c.var_load[v]);
      pin.max_load = 999.0;
      pin.rise_block = normalize_double(c.var_delay[v]);
      pin.rise_fanout = 0.0;
      pin.fall_block = pin.rise_block;
      pin.fall_fanout = 0.0;
      g.pins.push_back(std::move(pin));
    }
    out_gates.push_back(std::move(g));
  }

  if (obs::enabled()) {
    obs::counter_add("supergate.roots", stats.roots);
    obs::counter_add("supergate.candidates", stats.candidates);
    obs::counter_add("supergate.kept", stats.kept);
    obs::counter_add("supergate.pruned_by_class", stats.pruned_by_class);
    obs::counter_add("supergate.pruned_vs_base", stats.pruned_vs_base);
    obs::counter_add("supergate.truncated_roots", stats.truncated_roots);
  }
  GateLibrary library = GateLibrary::from_genlib(out_gates, std::move(name));
  stats.generation_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return SupergateLibrary{std::move(out_gates), std::move(library),
                          stats};
}

}  // namespace dagmap
