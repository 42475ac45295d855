#include "io/blif.hpp"

#include <fstream>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "io/blif_lines.hpp"
#include "io/expr.hpp"
#include "obs/obs.hpp"

namespace dagmap {

namespace {

// A .names block before resolution into the network: views of the text.
struct NamesBlock {
  std::uint32_t inputs_begin = 0, inputs_end = 0;  ///< into block_inputs
  std::uint32_t rows_begin = 0, rows_end = 0;      ///< into rows
  std::uint32_t output = 0;                        ///< name id
};

// A cover row: (input plane, output character).
using CoverRow = std::pair<std::string_view, char>;

TruthTable cover_to_truth_table(unsigned nv, std::span<const CoverRow> cover,
                                std::string_view output) {
  auto named = [&](const char* what) {
    return ParseError(what + std::string(output));
  };
  if (nv > TruthTable::kMaxVars)
    throw ParseError(".names for " + std::string(output) + " has " +
                     std::to_string(nv) + " inputs; at most " +
                     std::to_string(TruthTable::kMaxVars) + " are supported");
  // The cover lists either the ON-set (output '1') or the OFF-set ('0');
  // BLIF requires all rows to agree.
  bool on_set = true;
  for (auto& [plane, out] : cover) {
    if (plane.size() != nv) throw named("cover row width mismatch for ");
    if (out == '0') on_set = false;
  }
  // An OFF-set cover clears its cubes from the constant-1 table.
  TruthTable t = TruthTable::constant(!on_set, nv);
  for (auto& [plane, out] : cover) {
    if ((out == '1') != on_set) throw named("mixed ON/OFF cover for ");
    // Expand cube with '-' don't-cares.
    unsigned free_vars[TruthTable::kMaxVars];
    unsigned num_free = 0;
    std::size_t base = 0;
    for (unsigned i = 0; i < nv; ++i) {
      char c = plane[i];
      if (c == '1')
        base |= std::size_t{1} << i;
      else if (c == '-')
        free_vars[num_free++] = i;
      else if (c != '0')
        throw ParseError(std::string("bad cover character '") + c + "'");
    }
    for (std::size_t k = 0; k < (std::size_t{1} << num_free); ++k) {
      std::size_t m = base;
      for (unsigned j = 0; j < num_free; ++j)
        if ((k >> j) & 1) m |= std::size_t{1} << free_vars[j];
      t.set_bit(m, on_set);
    }
  }
  return t;  // an empty cover is constant 0
}

}  // namespace

Network parse_blif(const std::string& text) {
  Network net;
  // Names intern to dense ids by view; node_of[id] is the node a name
  // resolves to (the first definition wins), or kNullNode.
  BlifNames names;
  std::vector<NodeId> node_of;
  auto intern = [&](std::string_view s) {
    std::uint32_t id = names.intern(s);
    if (id == node_of.size()) node_of.push_back(kNullNode);
    return id;
  };
  auto define = [&](std::uint32_t id, NodeId node) {
    if (node_of[id] == kNullNode) node_of[id] = node;
  };
  auto str = [](std::string_view v) { return std::string(v); };

  // Blocks are resolved after reading the whole model because BLIF allows
  // forward references.
  std::vector<NamesBlock> blocks;
  std::vector<std::uint32_t> block_inputs;
  std::vector<CoverRow> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> latch_pairs;  // in, out
  std::vector<std::uint32_t> output_names;
  {
    obs::Scope scope("read.tokenize");
    bool saw_model = false, saw_end = false;
    BlifLines lines(text);
    std::vector<std::string_view> toks;
    while (lines.next(toks)) {
      std::string_view kw = toks[0];
      if (saw_end) throw ParseError("content after .end");
      if (kw == ".model") {
        if (saw_model) throw ParseError("multiple .model statements");
        saw_model = true;
        if (toks.size() > 1) net.set_name(str(toks[1]));
      } else if (kw == ".inputs") {
        for (std::size_t i = 1; i < toks.size(); ++i)
          define(intern(toks[i]), net.add_input(str(toks[i])));
      } else if (kw == ".outputs") {
        for (std::size_t i = 1; i < toks.size(); ++i)
          output_names.push_back(intern(toks[i]));
      } else if (kw == ".latch") {
        // .latch <input> <output> [<type> <control>] [<init>]
        if (toks.size() < 3) throw ParseError(".latch needs input and output");
        latch_pairs.emplace_back(intern(toks[1]), intern(toks[2]));
      } else if (kw == ".names") {
        NamesBlock nb;
        nb.inputs_begin = static_cast<std::uint32_t>(block_inputs.size());
        for (std::size_t i = 1; i + 1 < toks.size(); ++i)
          block_inputs.push_back(intern(toks[i]));
        if (toks.size() < 2) throw ParseError(".names without output");
        nb.inputs_end = static_cast<std::uint32_t>(block_inputs.size());
        nb.output = intern(toks.back());
        nb.rows_begin = nb.rows_end = static_cast<std::uint32_t>(rows.size());
        blocks.push_back(nb);
      } else if (kw == ".end") {
        saw_end = true;
      } else if (kw[0] != '.') {
        // Cover row for the last .names block; its rows are contiguous,
        // since no other statement adds rows.
        if (blocks.empty()) throw ParseError("cover row outside .names");
        NamesBlock& nb = blocks.back();
        if (toks.size() == 1 && nb.inputs_begin == nb.inputs_end)
          rows.emplace_back(std::string_view(), toks[0][0]);
        else if (toks.size() == 2)
          rows.emplace_back(toks[0], toks[1][0]);
        else
          throw ParseError("malformed cover row");
        nb.rows_end = static_cast<std::uint32_t>(rows.size());
      } else {
        throw ParseError("unsupported BLIF construct " + str(kw));
      }
    }
  }

  obs::Scope scope("read.build");
  net.reserve(net.size() + latch_pairs.size() + blocks.size(),
              latch_pairs.size() + block_inputs.size());
  // Latch outputs are combinational sources that may be read by logic in
  // their own D cone (feedback), so they are pre-created as placeholders
  // and wired to their D signal after every .names block is resolved.
  std::vector<NodeId> latch_nodes;
  for (auto [d, q] : latch_pairs) {
    if (node_of[q] != kNullNode)
      throw ParseError("latch output redefines " + str(names.name(q)));
    NodeId l = net.add_latch_placeholder(str(names.name(q)));
    define(q, l);
    latch_nodes.push_back(l);
  }

  // Resolve .names blocks in dependency order (BLIF allows forward
  // references): repeatedly pick up any block whose inputs are all known.
  std::size_t resolved = 0;
  std::vector<bool> done(blocks.size(), false);
  std::vector<NodeId> fanins;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (done[i]) continue;
      const NamesBlock& nb = blocks[i];
      fanins.clear();
      bool ready = true;
      for (std::uint32_t k = nb.inputs_begin; k < nb.inputs_end; ++k) {
        NodeId in = node_of[block_inputs[k]];
        if (in == kNullNode) {
          ready = false;
          break;
        }
        fanins.push_back(in);
      }
      if (!ready) continue;
      std::string_view output = names.name(nb.output);
      if (node_of[nb.output] != kNullNode)
        throw ParseError("node redefined: " + str(output));
      unsigned nv = nb.inputs_end - nb.inputs_begin;
      TruthTable f = cover_to_truth_table(
          nv, std::span(rows).subspan(nb.rows_begin, nb.rows_end - nb.rows_begin),
          output);
      NodeId id;
      if (nv == 0)
        id = net.add_constant(f.num_vars() == 0 && f.is_const1());
      else
        id = net.add_logic(fanins, std::move(f), str(output));
      define(nb.output, id);
      done[i] = true;
      ++resolved;
      progress = true;
    }
  }
  if (resolved != blocks.size())
    throw ParseError("unresolvable names (cycle or undefined signal)");
  for (std::size_t i = 0; i < latch_pairs.size(); ++i) {
    std::uint32_t d = latch_pairs[i].first;
    if (node_of[d] == kNullNode)
      throw ParseError("unresolvable latch input " + str(names.name(d)));
    net.connect_latch(latch_nodes[i], node_of[d]);
  }

  for (std::uint32_t out : output_names) {
    if (node_of[out] == kNullNode)
      throw ParseError("undefined output " + str(names.name(out)));
    net.add_output(node_of[out], str(names.name(out)));
  }
  return net;
}

Network read_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open BLIF file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_blif(std::move(ss).str());
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
