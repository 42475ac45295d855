#include "io/blif.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "io/expr.hpp"

namespace dagmap {

namespace {

// Splits BLIF text into logical lines: strips comments, joins '\'
// continuations, drops blank lines.
std::vector<std::vector<std::string>> logical_lines(const std::string& text) {
  std::vector<std::vector<std::string>> lines;
  std::string pending;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    if (auto hash = raw.find('#'); hash != std::string::npos)
      raw.resize(hash);
    // Continuation: trailing backslash.
    std::string trimmed = raw;
    while (!trimmed.empty() &&
           std::isspace(static_cast<unsigned char>(trimmed.back())))
      trimmed.pop_back();
    bool cont = !trimmed.empty() && trimmed.back() == '\\';
    if (cont) trimmed.pop_back();
    pending += trimmed;
    pending += ' ';
    if (cont) continue;
    std::istringstream ls(pending);
    std::vector<std::string> toks;
    std::string t;
    while (ls >> t) toks.push_back(t);
    if (!toks.empty()) lines.push_back(std::move(toks));
    pending.clear();
  }
  if (!pending.empty()) {
    std::istringstream ls(pending);
    std::vector<std::string> toks;
    std::string t;
    while (ls >> t) toks.push_back(t);
    if (!toks.empty()) lines.push_back(std::move(toks));
  }
  return lines;
}

// A .names block before resolution into the network.
struct NamesBlock {
  std::vector<std::string> inputs;
  std::string output;
  std::vector<std::pair<std::string, char>> cover;  // (input plane, output)
};

TruthTable cover_to_truth_table(const NamesBlock& nb) {
  unsigned nv = static_cast<unsigned>(nb.inputs.size());
  if (nv > TruthTable::kMaxVars)
    throw ParseError(".names for " + nb.output + " has " + std::to_string(nv) +
                     " inputs; at most " +
                     std::to_string(TruthTable::kMaxVars) + " are supported");
  // The cover lists either the ON-set (output '1') or the OFF-set ('0');
  // BLIF requires all rows to agree.
  bool on_set = true;
  for (auto& [plane, out] : nb.cover) {
    if (plane.size() != nv)
      throw ParseError("cover row width mismatch for " + nb.output);
    if (out == '0') on_set = false;
  }
  TruthTable t(nv);
  for (auto& [plane, out] : nb.cover) {
    if ((out == '1') != on_set)
      throw ParseError("mixed ON/OFF cover for " + nb.output);
    // Expand cube with '-' don't-cares.
    std::vector<unsigned> free_vars;
    std::size_t base = 0;
    for (unsigned i = 0; i < nv; ++i) {
      char c = plane[i];
      if (c == '1')
        base |= std::size_t{1} << i;
      else if (c == '-')
        free_vars.push_back(i);
      else if (c != '0')
        throw ParseError(std::string("bad cover character '") + c + "'");
    }
    for (std::size_t k = 0; k < (std::size_t{1} << free_vars.size()); ++k) {
      std::size_t m = base;
      for (std::size_t j = 0; j < free_vars.size(); ++j)
        if ((k >> j) & 1) m |= std::size_t{1} << free_vars[j];
      t.set_bit(m, true);
    }
  }
  if (nb.cover.empty()) on_set = true;  // empty cover = constant 0
  return on_set ? t : ~t;
}

}  // namespace

Network parse_blif(const std::string& text) {
  auto lines = logical_lines(text);

  Network net;
  std::unordered_map<std::string, NodeId> by_name;
  // Blocks are resolved after reading the whole model because BLIF allows
  // forward references.
  std::vector<NamesBlock> blocks;
  std::vector<std::pair<std::string, std::string>> latch_pairs;  // (in, out)
  std::vector<std::string> output_names;
  bool saw_model = false, saw_end = false;

  for (auto& toks : lines) {
    const std::string& kw = toks[0];
    if (saw_end) throw ParseError("content after .end");
    if (kw == ".model") {
      if (saw_model) throw ParseError("multiple .model statements");
      saw_model = true;
      if (toks.size() > 1) net.set_name(toks[1]);
    } else if (kw == ".inputs") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        by_name.emplace(toks[i], net.add_input(toks[i]));
    } else if (kw == ".outputs") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        output_names.push_back(toks[i]);
    } else if (kw == ".latch") {
      // .latch <input> <output> [<type> <control>] [<init>]
      if (toks.size() < 3) throw ParseError(".latch needs input and output");
      latch_pairs.emplace_back(toks[1], toks[2]);
    } else if (kw == ".names") {
      NamesBlock nb;
      for (std::size_t i = 1; i + 1 < toks.size(); ++i)
        nb.inputs.push_back(toks[i]);
      if (toks.size() < 2) throw ParseError(".names without output");
      nb.output = toks.back();
      blocks.push_back(std::move(nb));
    } else if (kw == ".end") {
      saw_end = true;
    } else if (kw[0] != '.') {
      // Cover row for the last .names block.
      if (blocks.empty()) throw ParseError("cover row outside .names");
      if (toks.size() == 1 && blocks.back().inputs.empty())
        blocks.back().cover.emplace_back("", toks[0][0]);
      else if (toks.size() == 2)
        blocks.back().cover.emplace_back(toks[0], toks[1][0]);
      else
        throw ParseError("malformed cover row");
    } else {
      throw ParseError("unsupported BLIF construct " + kw);
    }
  }

  // Latch outputs are combinational sources that may be read by logic in
  // their own D cone (feedback), so they are pre-created as placeholders
  // and wired to their D signal after every .names block is resolved.
  std::vector<NodeId> latch_nodes;
  for (auto& [d_name, q_name] : latch_pairs) {
    if (by_name.count(q_name))
      throw ParseError("latch output redefines " + q_name);
    NodeId q = net.add_latch_placeholder(q_name);
    by_name.emplace(q_name, q);
    latch_nodes.push_back(q);
  }

  // Resolve .names blocks in dependency order (BLIF allows forward
  // references): repeatedly pick up any block whose inputs are all known.
  std::size_t resolved = 0;
  std::vector<bool> done(blocks.size(), false);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (done[i]) continue;
      NamesBlock& nb = blocks[i];
      std::vector<NodeId> fanins;
      bool ready = true;
      for (const std::string& in : nb.inputs) {
        auto it = by_name.find(in);
        if (it == by_name.end()) {
          ready = false;
          break;
        }
        fanins.push_back(it->second);
      }
      if (!ready) continue;
      if (by_name.count(nb.output))
        throw ParseError("node redefined: " + nb.output);
      TruthTable f = cover_to_truth_table(nb);
      NodeId id;
      if (nb.inputs.empty())
        id = net.add_constant(f.num_vars() == 0 && f.is_const1());
      else
        id = net.add_logic(std::move(fanins), std::move(f), nb.output);
      by_name.emplace(nb.output, id);
      done[i] = true;
      ++resolved;
      progress = true;
    }
  }
  if (resolved != blocks.size())
    throw ParseError("unresolvable names (cycle or undefined signal)");
  for (std::size_t i = 0; i < latch_pairs.size(); ++i) {
    auto it = by_name.find(latch_pairs[i].first);
    if (it == by_name.end())
      throw ParseError("unresolvable latch input " + latch_pairs[i].first);
    net.connect_latch(latch_nodes[i], it->second);
  }

  for (const std::string& out : output_names) {
    auto it = by_name.find(out);
    if (it == by_name.end()) throw ParseError("undefined output " + out);
    net.add_output(it->second, out);
  }
  return net;
}

Network read_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open BLIF file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_blif(ss.str());
}

namespace {

// A stable printable name for every node: PIs/latches use their given
// names, everything else gets n<id> (or its given name when unique).
std::vector<std::string> node_names(const Network& net) {
  std::vector<std::string> names(net.size());
  std::unordered_map<std::string, int> used;
  // Prefer the PO name for unnamed internal driver nodes so the writer
  // does not need alias buffers for them.
  std::vector<std::string> po_name(net.size());
  for (const Output& o : net.outputs())
    if (!net.is_source(o.node) && net.name(o.node).empty() &&
        po_name[o.node].empty())
      po_name[o.node] = o.name;
  for (NodeId id = 0; id < net.size(); ++id) {
    const std::string& given = net.name(id);
    std::string base = !given.empty()   ? given
                       : !po_name[id].empty() ? po_name[id]
                                              : "n" + std::to_string(id);
    if (used.count(base)) base += "_" + std::to_string(id);
    used[base] = 1;
    names[id] = base;
  }
  return names;
}

}  // namespace

std::string write_blif(const Network& net) {
  std::ostringstream out;
  auto names = node_names(net);
  out << ".model " << (net.name().empty() ? "top" : net.name()) << "\n";
  out << ".inputs";
  for (NodeId pi : net.inputs()) out << " " << names[pi];
  out << "\n.outputs";
  for (const Output& o : net.outputs()) out << " " << o.name;
  out << "\n";
  for (NodeId l : net.latches())
    out << ".latch " << names[net.fanins(l)[0]] << " " << names[l] << " 0\n";

  for (NodeId id : net.topo_order()) {
    // Constants are sources but still need a defining cover.
    if (net.kind(id) == NodeKind::Const0) {
      out << ".names " << names[id] << "\n";
      continue;
    }
    if (net.kind(id) == NodeKind::Const1) {
      out << ".names " << names[id] << "\n1\n";
      continue;
    }
    if (net.is_source(id)) continue;
    out << ".names";
    for (NodeId f : net.fanins(id)) out << " " << names[f];
    out << " " << names[id] << "\n";
    TruthTable f = net.local_function(id);
    // Emit the smaller of ON-set / OFF-set as minterm rows.
    std::size_t ones = f.count_ones();
    bool emit_on = ones * 2 <= f.num_minterms() || f.num_vars() == 0;
    if (f.num_vars() == 0) {
      if (f.is_const1()) out << "1\n";
      continue;
    }
    char out_char = emit_on ? '1' : '0';
    for (std::size_t m = 0; m < f.num_minterms(); ++m) {
      if (f.bit(m) != emit_on) continue;
      for (unsigned v = 0; v < f.num_vars(); ++v)
        out << (((m >> v) & 1) ? '1' : '0');
      out << " " << out_char << "\n";
    }
  }

  // POs that are driven by a node with a different printable name need an
  // alias buffer.
  for (const Output& o : net.outputs()) {
    if (names[o.node] != o.name)
      out << ".names " << names[o.node] << " " << o.name << "\n1 1\n";
  }
  out << ".end\n";
  return out.str();
}

void write_blif_file(const Network& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot write BLIF file " + path);
  out << write_blif(net);
}

std::string write_dot(const Network& net) {
  std::ostringstream out;
  auto names = node_names(net);
  out << "digraph \"" << (net.name().empty() ? "net" : net.name())
      << "\" {\n  rankdir=BT;\n";
  for (NodeId id = 0; id < net.size(); ++id) {
    out << "  n" << id << " [label=\"" << names[id] << "\\n"
        << to_string(net.kind(id)) << "\"";
    if (net.is_source(id)) out << " shape=box";
    out << "];\n";
    for (NodeId f : net.fanins(id))
      out << "  n" << f << " -> n" << id << ";\n";
  }
  for (std::size_t i = 0; i < net.outputs().size(); ++i) {
    const Output& o = net.outputs()[i];
    out << "  po" << i << " [label=\"" << o.name << "\" shape=invhouse];\n";
    out << "  n" << o.node << " -> po" << i << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace dagmap
