#include "mapnet/write.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <deque>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "io/expr.hpp"
#include "netlist/assert.hpp"

namespace dagmap {

namespace {

/// Appends `name` as a Verilog identifier: every character outside
/// [A-Za-z0-9_] becomes `_`, and a leading digit (or an empty name) gets
/// a `_` prefix.
void append_sanitized(std::string& out, std::string_view name) {
  if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])))
    out += '_';
  for (char c : name)
    out += std::isalnum(static_cast<unsigned char>(c)) || c == '_' ? c : '_';
}

void append_id(std::string& out, InstId id) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, id).ptr);
}

// The printable net names of write.hpp's rule.  A final name that is the
// plain `n<id>` is never materialized: its entry stays empty and the
// name is formatted on output.  Given and suffixed names go into one
// small hash map, owner by name; plain names need none.  Output names
// enter it first, owned by their drivers, so no other instance takes
// one.  A plain `n<id>` can collide only with an earlier given name
// spelled `n<id>` or with an output name `n<id>` (a suffixed name
// contains `_`, and every other generated name has another id), so both
// mark k as claimed.  A given name `n<k>` collides with an earlier
// unnamed k, whichever name k kept, unless the name is reserved for it.
class NetNames {
 public:
  explicit NetNames(const MappedNetlist& net) : names_(net.size()) {
    std::unordered_map<std::string_view, InstId> owner;  // given, suffixed
    std::vector<bool> claimed(net.size(), false);
    for (const Output& o : net.outputs()) {
      owner.emplace(o.name, o.node);
      if (InstId k = plain_id(o.name); k < net.size() && k != o.node)
        claimed[k] = true;
    }
    for (InstId id = 0; id < net.size(); ++id) {
      const std::string& given = net.name(id);
      if (given.empty()) {
        if (!claimed[id]) continue;
        names_[id] = suffixed(Plain(id).view(), id);
      } else if (auto it = owner.find(given); it != owner.end()) {
        names_[id] = it->second == id ? std::string_view(given)
                                      : suffixed(given, id);
      } else if (InstId k = plain_id(given); k < id && net.name(k).empty()) {
        names_[id] = suffixed(given, id);
      } else {
        names_[id] = given;
        if (k > id && k < net.size()) claimed[k] = true;
      }
      owner.insert_or_assign(names_[id], id);
    }
  }

  void append(std::string& out, InstId id) const {
    if (names_[id].empty())
      out += Plain(id).view();
    else
      out += names_[id];
  }

  /// The name as a Verilog identifier (a plain `n<id>` already is one).
  void append_identifier(std::string& out, InstId id) const {
    if (names_[id].empty())
      out += Plain(id).view();
    else
      append_sanitized(out, names_[id]);
  }

  bool equals(InstId id, std::string_view s) const {
    return names_[id].empty() ? Plain(id).view() == s : names_[id] == s;
  }

 private:
  /// `n<id>` formatted on the stack.
  class Plain {
   public:
    explicit Plain(InstId id) {
      buf_[0] = 'n';
      size_ = static_cast<std::size_t>(
          std::to_chars(buf_ + 1, buf_ + sizeof buf_, id).ptr - buf_);
    }
    std::string_view view() const { return {buf_, size_}; }

   private:
    char buf_[16];
    std::size_t size_;
  };

  /// k when `name` spells `n<k>` (no leading zero), else kNullInst.
  static InstId plain_id(std::string_view name) {
    if (name.size() < 2 || name[0] != 'n' ||
        (name[1] == '0' && name.size() > 2))
      return kNullInst;
    InstId k = kNullInst;
    auto [end, ec] =
        std::from_chars(name.data() + 1, name.data() + name.size(), k);
    return ec == std::errc() && end == name.data() + name.size() ? k
                                                                 : kNullInst;
  }

  std::string_view suffixed(std::string_view base, InstId id) {
    std::string& s = suffixed_.emplace_back(base);
    s += '_';
    append_id(s, id);
    return s;
  }

  std::vector<std::string_view> names_;  // empty: the plain n<id>
  std::deque<std::string> suffixed_;     // storage of the suffixed names
};

}  // namespace

std::string write_mapped_blif(const MappedNetlist& net) {
  NetNames names(net);
  std::string out;
  out += ".model ";
  out += net.name().empty() ? std::string_view("mapped") : net.name();
  out += "\n.inputs";
  for (InstId pi : net.inputs()) {
    out += ' ';
    names.append(out, pi);
  }
  out += "\n.outputs";
  for (const Output& o : net.outputs()) {
    out += ' ';
    out += o.name;
  }
  out += '\n';
  for (InstId l : net.latches()) {
    out += ".latch ";
    names.append(out, net.fanins(l)[0]);
    out += ' ';
    names.append(out, l);
    out += " 0\n";
  }
  // One cached order serves both this writer and the verilog writer:
  // `topo_order()` is memoized on the netlist, so back-to-back report
  // writers traverse without recomputing.
  for (InstId id : net.topo_order()) {
    switch (net.kind(id)) {
      case Instance::Kind::GateInst: {
        const Gate* g = net.gate(id);
        std::span<const InstId> fi = net.fanins(id);
        out += ".gate ";
        out += g->name;
        for (std::size_t pin = 0; pin < fi.size(); ++pin) {
          out += ' ';
          out += g->pins[pin].name;
          out += '=';
          names.append(out, fi[pin]);
        }
        out += " O=";
        names.append(out, id);
        out += '\n';
        break;
      }
      case Instance::Kind::Const0:
      case Instance::Kind::Const1:
        out += ".names ";
        names.append(out, id);
        out += net.kind(id) == Instance::Kind::Const1 ? "\n1\n" : "\n";
        break;
      default:
        break;
    }
  }
  for (const Output& o : net.outputs()) {
    if (names.equals(o.node, o.name)) continue;
    out += ".names ";
    names.append(out, o.node);
    out += ' ';
    out += o.name;
    out += "\n1 1\n";
  }
  out += ".end\n";
  return out;
}

std::string write_mapped_verilog(const MappedNetlist& net) {
  NetNames names(net);
  std::string out;
  out += "// Generated by dagmap; gate delays/areas per the source GENLIB.\n";
  out += "module ";
  append_sanitized(out, net.name().empty() ? std::string_view("mapped")
                                           : net.name());
  out += " (";
  bool first = true;
  for (InstId pi : net.inputs()) {
    if (!first) out += ", ";
    names.append_identifier(out, pi);
    first = false;
  }
  for (const Output& o : net.outputs()) {
    if (!first) out += ", ";
    append_sanitized(out, o.name);
    first = false;
  }
  out += ");\n";
  for (InstId pi : net.inputs()) {
    out += "  input ";
    names.append_identifier(out, pi);
    out += ";\n";
  }
  for (const Output& o : net.outputs()) {
    out += "  output ";
    append_sanitized(out, o.name);
    out += ";\n";
  }

  for (InstId id = 0; id < net.size(); ++id) {
    if (net.kind(id) == Instance::Kind::PrimaryInput) continue;
    out += "  wire ";
    names.append_identifier(out, id);
    out += ";\n";
  }

  for (InstId id : net.topo_order()) {
    switch (net.kind(id)) {
      case Instance::Kind::GateInst: {
        const Gate* g = net.gate(id);
        std::span<const InstId> fi = net.fanins(id);
        out += "  ";
        append_sanitized(out, g->name);
        out += " g";
        append_id(out, id);
        out += " (";
        for (std::size_t pin = 0; pin < fi.size(); ++pin) {
          out += '.';
          append_sanitized(out, g->pins[pin].name);
          out += '(';
          names.append_identifier(out, fi[pin]);
          out += "), ";
        }
        out += ".O(";
        names.append_identifier(out, id);
        out += "));\n";
        break;
      }
      case Instance::Kind::Const0:
      case Instance::Kind::Const1:
        out += "  assign ";
        names.append_identifier(out, id);
        out += net.kind(id) == Instance::Kind::Const1 ? " = 1'b1;\n"
                                                       : " = 1'b0;\n";
        break;
      case Instance::Kind::Latch:
        out += "  dff r";
        append_id(out, id);
        out += " (.D(";
        names.append_identifier(out, net.fanins(id)[0]);
        out += "), .Q(";
        names.append_identifier(out, id);
        out += "));\n";
        break;
      case Instance::Kind::PrimaryInput:
        break;
    }
  }
  for (const Output& o : net.outputs()) {
    out += "  assign ";
    append_sanitized(out, o.name);
    out += " = ";
    names.append_identifier(out, o.node);
    out += ";\n";
  }
  out += "endmodule\n";
  return out;
}

void write_mapped_file(const MappedNetlist& net, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw ParseError("cannot write " + path);
  if (path.size() >= 2 && path.substr(path.size() - 2) == ".v")
    f << write_mapped_verilog(net);
  else
    f << write_mapped_blif(net);
}

namespace {

// Logical lines of a BLIF text, with the plain BLIF reader's discipline:
// strip comments, join continuations, split on whitespace.  A line is
// joined with a space at each continuation, so its tokens are the
// tokens of its physical pieces, and every token is a view of the text.
class BlifLines {
 public:
  explicit BlifLines(std::string_view text) : text_(text) {}

  /// Reads the next non-empty logical line into `toks`; false at the end.
  bool next(std::vector<std::string_view>& toks) {
    toks.clear();
    while (pos_ < text_.size()) {
      std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
      std::string_view raw = text_.substr(pos_, eol - pos_);
      pos_ = eol + 1;
      raw = raw.substr(0, raw.find('#'));
      while (!raw.empty() && is_space(raw.back())) raw.remove_suffix(1);
      bool cont = !raw.empty() && raw.back() == '\\';
      if (cont) raw.remove_suffix(1);
      for (std::size_t i = 0; i < raw.size();) {
        if (is_space(raw[i])) {
          ++i;
          continue;
        }
        std::size_t j = i;
        while (j < raw.size() && !is_space(raw[j])) ++j;
        toks.push_back(raw.substr(i, j - i));
        i = j;
      }
      if (!cont && !toks.empty()) return true;
    }
    return !toks.empty();
  }

  /// Position to return to with `seek` (one line of lookahead).
  std::size_t tell() const { return pos_; }
  void seek(std::size_t pos) { pos_ = pos; }

 private:
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

MappedNetlist parse_mapped_blif(const std::string& text,
                                const GateLibrary& lib) {
  std::unordered_map<std::string_view, const Gate*> gate_by_name;
  for (const Gate& g : lib.gates()) gate_by_name.emplace(g.name, &g);

  MappedNetlist net;
  // Net names are interned to dense ids as lines are read; `driver[id]`
  // is the instance the name resolves to (the first definition wins).
  // Names are views of `text`.
  constexpr std::uint32_t kNoName = 0xFFFFFFFFu;
  std::unordered_map<std::string_view, std::uint32_t> name_ids;
  std::vector<std::string_view> net_name;
  std::vector<InstId> driver;
  auto intern = [&](std::string_view s) {
    auto [it, fresh] =
        name_ids.try_emplace(s, static_cast<std::uint32_t>(driver.size()));
    if (fresh) {
      driver.push_back(kNullInst);
      net_name.push_back(s);
    }
    return it->second;
  };
  auto define = [&](std::uint32_t id, InstId inst) {
    if (driver[id] == kNullInst) driver[id] = inst;
  };
  auto str = [](std::string_view v) { return std::string(v); };

  // A gate, or (null `gate`) an identity alias of its one fanin.
  struct Pending {
    const Gate* gate;
    std::vector<std::uint32_t> fanins;  // pin order
    std::uint32_t output;
  };
  std::vector<Pending> pending;  // gates, then aliases
  std::vector<Pending> aliases;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> latches;  // d, q
  std::vector<std::uint32_t> output_names;

  BlifLines lines(text);
  std::vector<std::string_view> toks, row;
  // Reads the line after a `.names` header when it is exactly `want`.
  auto take_row = [&](std::initializer_list<std::string_view> want) {
    std::size_t mark = lines.tell();
    if (lines.next(row) && std::ranges::equal(row, want)) return true;
    lines.seek(mark);
    return false;
  };
  while (lines.next(toks)) {
    std::string_view kw = toks[0];
    if (kw == ".model") {
      if (toks.size() > 1) net = MappedNetlist(str(toks[1]));
    } else if (kw == ".inputs") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        define(intern(toks[i]), net.add_input(str(toks[i])));
    } else if (kw == ".outputs") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        output_names.push_back(intern(toks[i]));
    } else if (kw == ".latch") {
      if (toks.size() < 3) throw ParseError(".latch needs input and output");
      latches.emplace_back(intern(toks[1]), intern(toks[2]));
    } else if (kw == ".gate") {
      if (toks.size() < 3) throw ParseError("malformed .gate");
      auto it = gate_by_name.find(toks[1]);
      if (it == gate_by_name.end())
        throw ParseError("unknown cell " + str(toks[1]));
      Pending pg{it->second, {}, kNoName};
      const std::string& gate_name = pg.gate->name;
      pg.fanins.assign(pg.gate->num_inputs(), kNoName);
      for (std::size_t i = 2; i < toks.size(); ++i) {
        auto eq = toks[i].find('=');
        if (eq == std::string_view::npos)
          throw ParseError("malformed .gate connection " + str(toks[i]));
        std::string_view pin = toks[i].substr(0, eq);
        std::string_view netname = toks[i].substr(eq + 1);
        std::uint32_t id = netname.empty() ? kNoName : intern(netname);
        if (pin == "O" || (pin.size() == gate_name.size() + 2 &&
                           pin.starts_with(gate_name) && pin.ends_with("_O"))) {
          pg.output = id;
          continue;
        }
        bool found = false;
        for (unsigned p = 0; p < pg.gate->num_inputs(); ++p)
          if (pg.gate->pins[p].name == pin) {
            pg.fanins[p] = id;
            found = true;
          }
        if (!found)
          throw ParseError("unknown pin " + str(pin) + " on " + str(toks[1]));
      }
      if (pg.output == kNoName)
        throw ParseError(".gate without output connection");
      for (std::uint32_t f : pg.fanins)
        if (f == kNoName)
          throw ParseError("unconnected pin on " + str(toks[1]));
      pending.push_back(std::move(pg));
    } else if (kw == ".names") {
      // Accept only the writer's degenerate forms: constants and the
      // single-input identity alias.
      if (toks.size() == 2) {
        // Constant: value determined by the (optional) next cover row,
        // which is consumed when it reads `1`.
        bool value = take_row({"1"});
        define(intern(toks[1]), net.add_constant(value));
      } else if (toks.size() == 3) {
        if (!take_row({"1", "1"}))
          throw ParseError("only identity .names are supported in mapped BLIF");
        aliases.push_back({nullptr, {intern(toks[1])}, intern(toks[2])});
      } else {
        throw ParseError("unsupported .names in mapped BLIF");
      }
    } else if (kw == ".end") {
      break;
    } else if (kw[0] == '.') {
      throw ParseError("unsupported construct " + str(kw) + " in mapped BLIF");
    } else {
      throw ParseError("unexpected cover row in mapped BLIF");
    }
  }

  // Latch outputs are sources: create them before any gate.
  std::vector<InstId> latch_insts;
  for (auto [d, q] : latches) {
    InstId l = net.add_latch_placeholder(str(net_name[q]));
    define(q, l);
    latch_insts.push_back(l);
  }

  // Resolve gates, then aliases, with a Kahn worklist, in time linear in
  // the input whatever its line order.  Each item is scanned once, in
  // file order, and built at once if all its fanins resolve, so
  // topologically ordered input (everything the writer emits) gets its
  // instances in line order.  An item with unresolved fanins counts them
  // and waits on each name; the definition of its last one builds it.
  const std::size_t num_gates = pending.size();
  std::move(aliases.begin(), aliases.end(), std::back_inserter(pending));
  std::vector<std::uint32_t> missing(pending.size(), 0);
  std::vector<std::vector<std::uint32_t>> waiting(driver.size());
  std::vector<std::uint32_t> ready;
  std::vector<InstId> fanins;
  std::size_t resolved = 0;
  auto build_from = [&](std::uint32_t first) {
    ready.push_back(first);
    while (!ready.empty()) {
      const Pending& p = pending[ready.back()];
      ready.pop_back();
      InstId inst;
      if (p.gate == nullptr) {
        inst = driver[p.fanins[0]];
      } else {
        fanins.clear();
        for (std::uint32_t f : p.fanins) fanins.push_back(driver[f]);
        inst = net.add_gate(p.gate, fanins, str(net_name[p.output]));
        ++resolved;
      }
      define(p.output, inst);
      for (std::uint32_t w : waiting[p.output])
        if (--missing[w] == 0) ready.push_back(w);
      std::vector<std::uint32_t>().swap(waiting[p.output]);
    }
  };
  for (std::uint32_t i = 0; i < pending.size(); ++i) {
    for (std::uint32_t f : pending[i].fanins)
      if (driver[f] == kNullInst) {
        ++missing[i];
        waiting[f].push_back(i);
      }
    if (missing[i] == 0) build_from(i);
  }
  if (resolved != num_gates)
    throw ParseError("unresolvable nets in mapped BLIF");
  for (std::size_t i = 0; i < latches.size(); ++i) {
    InstId d = driver[latches[i].first];
    if (d == kNullInst)
      throw ParseError("unresolvable latch input " +
                       str(net_name[latches[i].first]));
    net.connect_latch(latch_insts[i], d);
  }
  for (std::uint32_t o : output_names) {
    if (driver[o] == kNullInst)
      throw ParseError("undefined output " + str(net_name[o]));
    net.add_output(driver[o], str(net_name[o]));
  }
  net.check();
  return net;
}

MappedNetlist read_mapped_blif_file(const std::string& path,
                                    const GateLibrary& lib) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open mapped BLIF " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_mapped_blif(ss.str(), lib);
}

}  // namespace dagmap
