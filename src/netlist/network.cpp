#include "netlist/network.hpp"

#include <algorithm>
#include <numeric>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {
/// func_ids_ entry for nodes without an out-of-line truth table.
constexpr std::uint32_t kNoFunc = 0xFFFFFFFFu;
}  // namespace

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::PrimaryInput: return "pi";
    case NodeKind::Const0: return "const0";
    case NodeKind::Const1: return "const1";
    case NodeKind::Inv: return "inv";
    case NodeKind::Nand2: return "nand2";
    case NodeKind::Logic: return "logic";
    case NodeKind::Latch: return "latch";
  }
  return "?";
}

Network::Network() : topo_cache_(std::make_unique<TopologyCache>()) {}

Network::Network(std::string name) : Network() { name_ = std::move(name); }

Network::Network(const Network& other)
    : name_(other.name_),
      kinds_(other.kinds_),
      fanin_handles_(other.fanin_handles_),
      fanin_counts_(other.fanin_counts_),
      name_ids_(other.name_ids_),
      func_ids_(other.func_ids_),
      fanin_pool_(other.fanin_pool_),
      names_(other.names_),
      functions_(other.functions_),
      inputs_(other.inputs_),
      latches_(other.latches_),
      outputs_(other.outputs_),
      num_sources_(other.num_sources_),
      topo_cache_(std::make_unique<TopologyCache>()) {}

Network& Network::operator=(const Network& other) {
  if (this != &other) {
    Network copy(other);
    *this = std::move(copy);
  }
  return *this;
}

TopologyCache& Network::cache() const {
  if (!topo_cache_) topo_cache_ = std::make_unique<TopologyCache>();
  return *topo_cache_;
}

void Network::invalidate_topology() { cache().invalidate(); }

void Network::reserve(std::size_t nodes, std::size_t fanin_edges) {
  kinds_.reserve(nodes);
  fanin_handles_.reserve(nodes);
  fanin_counts_.reserve(nodes);
  name_ids_.reserve(nodes);
  func_ids_.reserve(nodes);
  fanin_pool_.reserve(fanin_edges);
}

NodeId Network::new_node(NodeKind kind, std::span<const NodeId> fanins,
                         std::string&& name) {
  for (NodeId f : fanins)
    DAGMAP_ASSERT_MSG(f < kinds_.size(), "fanin out of range");
  StablePool<NodeId>::Handle h = fanin_pool_.allocate(fanins.size());
  std::copy(fanins.begin(), fanins.end(), fanin_pool_.data(h));
  kinds_.push_back(kind);
  fanin_handles_.push_back(h);
  fanin_counts_.push_back(static_cast<std::uint16_t>(fanins.size()));
  name_ids_.push_back(names_.intern(std::move(name)));
  func_ids_.push_back(kNoFunc);
  NodeId id = static_cast<NodeId>(kinds_.size() - 1);
  if (is_source(id)) ++num_sources_;
  invalidate_topology();
  return id;
}

NodeId Network::add_input(std::string name) {
  DAGMAP_ASSERT_MSG(!name.empty(), "primary inputs must be named");
  NodeId id = new_node(NodeKind::PrimaryInput, {}, std::move(name));
  inputs_.push_back(id);
  return id;
}

NodeId Network::add_constant(bool value) {
  return new_node(value ? NodeKind::Const1 : NodeKind::Const0, {}, {});
}

NodeId Network::add_inv(NodeId a, std::string name) {
  const NodeId ins[1] = {a};
  return new_node(NodeKind::Inv, ins, std::move(name));
}

NodeId Network::add_nand2(NodeId a, NodeId b, std::string name) {
  const NodeId ins[2] = {a, b};
  return new_node(NodeKind::Nand2, ins, std::move(name));
}

NodeId Network::add_logic(std::vector<NodeId> fanins, TruthTable function,
                          std::string name) {
  DAGMAP_ASSERT_MSG(function.num_vars() == fanins.size(),
                    "function arity != fanin count");
  DAGMAP_ASSERT_MSG(fanins.size() <= TruthTable::kMaxVars,
                    "too many fanins on a logic node");
  NodeId id = new_node(NodeKind::Logic, fanins, std::move(name));
  func_ids_[id] = static_cast<std::uint32_t>(functions_.size());
  functions_.push_back(std::move(function));
  return id;
}

NodeId Network::add_latch(NodeId d, std::string name) {
  const NodeId ins[1] = {d};
  NodeId id = new_node(NodeKind::Latch, ins, std::move(name));
  latches_.push_back(id);
  return id;
}

NodeId Network::add_latch_placeholder(std::string name) {
  // Every latch owns one arena slot for its D input; a placeholder
  // reserves it holding kNullNode ("unconnected"), so `connect_latch`
  // later is a slot write, not a reallocation — fanin spans handed out
  // in between stay valid.
  StablePool<NodeId>::Handle h = fanin_pool_.allocate(1);
  *fanin_pool_.data(h) = kNullNode;
  kinds_.push_back(NodeKind::Latch);
  fanin_handles_.push_back(h);
  fanin_counts_.push_back(1);
  name_ids_.push_back(names_.intern(std::move(name)));
  func_ids_.push_back(kNoFunc);
  ++num_sources_;
  invalidate_topology();
  NodeId id = static_cast<NodeId>(kinds_.size() - 1);
  latches_.push_back(id);
  return id;
}

void Network::connect_latch(NodeId latch, NodeId d) {
  DAGMAP_ASSERT_MSG(latch < kinds_.size() && kinds_[latch] == NodeKind::Latch,
                    "connect_latch target is not a latch");
  NodeId* slot = fanin_pool_.data(fanin_handles_[latch]);
  DAGMAP_ASSERT_MSG(*slot == kNullNode, "latch D input already connected");
  DAGMAP_ASSERT_MSG(d < kinds_.size(), "latch D input out of range");
  *slot = d;
  invalidate_topology();
}

void Network::add_output(NodeId node, std::string name) {
  DAGMAP_ASSERT_MSG(node < kinds_.size(), "PO node out of range");
  DAGMAP_ASSERT_MSG(!name.empty(), "primary outputs must be named");
  outputs_.push_back({node, std::move(name)});
  invalidate_topology();  // fanout_counts include PO references
}

void Network::redirect_output(std::size_t output_index, NodeId node) {
  DAGMAP_ASSERT(output_index < outputs_.size());
  DAGMAP_ASSERT(node < kinds_.size());
  outputs_[output_index].node = node;
  invalidate_topology();
}

void Network::redirect_latch_input(NodeId latch, NodeId d) {
  DAGMAP_ASSERT(latch < kinds_.size() && kinds_[latch] == NodeKind::Latch);
  NodeId* slot = fanin_pool_.data(fanin_handles_[latch]);
  DAGMAP_ASSERT_MSG(*slot != kNullNode, "latch not yet connected");
  DAGMAP_ASSERT(d < kinds_.size());
  *slot = d;
  invalidate_topology();
}

NodeId Network::add_and(NodeId a, NodeId b, std::string name) {
  return add_logic({a, b}, TruthTable::from_bits(0b1000, 2), std::move(name));
}

NodeId Network::add_or(NodeId a, NodeId b, std::string name) {
  return add_logic({a, b}, TruthTable::from_bits(0b1110, 2), std::move(name));
}

NodeId Network::add_xor(NodeId a, NodeId b, std::string name) {
  return add_logic({a, b}, TruthTable::from_bits(0b0110, 2), std::move(name));
}

NodeId Network::add_and(std::span<const NodeId> ins, std::string name) {
  DAGMAP_ASSERT(!ins.empty() && ins.size() <= TruthTable::kMaxVars);
  unsigned n = static_cast<unsigned>(ins.size());
  TruthTable f = TruthTable::constant(true, n);
  for (unsigned i = 0; i < n; ++i) f = f & TruthTable::variable(i, n);
  return add_logic({ins.begin(), ins.end()}, std::move(f), std::move(name));
}

NodeId Network::add_or(std::span<const NodeId> ins, std::string name) {
  DAGMAP_ASSERT(!ins.empty() && ins.size() <= TruthTable::kMaxVars);
  unsigned n = static_cast<unsigned>(ins.size());
  TruthTable f = TruthTable::constant(false, n);
  for (unsigned i = 0; i < n; ++i) f = f | TruthTable::variable(i, n);
  return add_logic({ins.begin(), ins.end()}, std::move(f), std::move(name));
}

NodeId Network::add_mux(NodeId sel, NodeId then_in, NodeId else_in,
                        std::string name) {
  // Variables: 0 = sel, 1 = then, 2 = else; f = sel ? then : else.
  TruthTable s = TruthTable::variable(0, 3);
  TruthTable t = TruthTable::variable(1, 3);
  TruthTable e = TruthTable::variable(2, 3);
  return add_logic({sel, then_in, else_in}, (s & t) | (~s & e),
                   std::move(name));
}

NodeId Network::add_maj3(NodeId a, NodeId b, NodeId c, std::string name) {
  TruthTable x = TruthTable::variable(0, 3);
  TruthTable y = TruthTable::variable(1, 3);
  TruthTable z = TruthTable::variable(2, 3);
  return add_logic({a, b, c}, (x & y) | (y & z) | (x & z), std::move(name));
}

NodeKind Network::kind(NodeId id) const {
  DAGMAP_ASSERT_MSG(id < kinds_.size(), "node id out of range");
  return kinds_[id];
}

std::span<const NodeId> Network::fanins(NodeId id) const {
  DAGMAP_ASSERT_MSG(id < kinds_.size(), "node id out of range");
  const NodeId* p = fanin_pool_.data(fanin_handles_[id]);
  std::size_t n = fanin_counts_[id];
  // A latch's reserved slot holding kNullNode means "not yet connected".
  if (kinds_[id] == NodeKind::Latch && *p == kNullNode) return {};
  return {p, n};
}

const std::string& Network::name(NodeId id) const {
  DAGMAP_ASSERT_MSG(id < kinds_.size(), "node id out of range");
  return names_.at(name_ids_[id]);
}

const TruthTable& Network::function(NodeId id) const {
  DAGMAP_ASSERT_MSG(id < kinds_.size(), "node id out of range");
  DAGMAP_ASSERT_MSG(func_ids_[id] != kNoFunc,
                    "only Logic nodes carry a truth table");
  return functions_[func_ids_[id]];
}

bool Network::is_source(NodeId id) const {
  switch (kind(id)) {
    case NodeKind::PrimaryInput:
    case NodeKind::Const0:
    case NodeKind::Const1:
    case NodeKind::Latch:
      return true;
    default:
      return false;
  }
}

std::size_t Network::count_kind(NodeKind k) const {
  return static_cast<std::size_t>(std::count(kinds_.begin(), kinds_.end(), k));
}

TruthTable Network::local_function(NodeId id) const {
  switch (kind(id)) {
    case NodeKind::Const0: return TruthTable::constant(false, 0);
    case NodeKind::Const1: return TruthTable::constant(true, 0);
    case NodeKind::Inv: return ~TruthTable::variable(0, 1);
    case NodeKind::Nand2:
      return ~(TruthTable::variable(0, 2) & TruthTable::variable(1, 2));
    case NodeKind::Logic: return function(id);
    case NodeKind::PrimaryInput:
    case NodeKind::Latch:
      DAGMAP_ASSERT_MSG(false, "sources have no local function");
  }
  return {};
}

void Network::fill_topology(TopologyCache::Data& d) const {
  const std::size_t n = size();

  // One sweep computes all three products: the CSR fanout adjacency,
  // the fanout counts, and (via Kahn's algorithm over the adjacency)
  // the topological order.
  d.fanout_offsets.assign(n + 1, 0);
  for (NodeId id = 0; id < n; ++id)
    for (NodeId f : fanins(id)) ++d.fanout_offsets[f + 1];
  std::partial_sum(d.fanout_offsets.begin(), d.fanout_offsets.end(),
                   d.fanout_offsets.begin());
  d.fanout_edges.resize(d.fanout_offsets[n]);
  {
    // Filling by ascending reader id keeps every per-node edge list in
    // ascending reader order (duplicates preserved), matching the order
    // the old vector-of-vectors construction produced.
    std::vector<std::uint32_t> cursor(d.fanout_offsets.begin(),
                                      d.fanout_offsets.end() - 1);
    for (NodeId id = 0; id < n; ++id)
      for (NodeId f : fanins(id)) d.fanout_edges[cursor[f]++] = id;
  }

  d.fanout_counts.assign(n, 0);
  for (NodeId id = 0; id < n; ++id)
    d.fanout_counts[id] = d.fanout_offsets[id + 1] - d.fanout_offsets[id];
  for (const Output& o : outputs_) ++d.fanout_counts[o.node];

  // Kahn's algorithm over combinational edges; latch D-edges do not
  // count as incoming edges of the latch (latch outputs are sources).
  std::vector<std::uint32_t> pending(n, 0);
  for (NodeId id = 0; id < n; ++id)
    if (!is_source(id))
      pending[id] = static_cast<std::uint32_t>(fanins(id).size());

  d.topo.clear();
  d.topo.reserve(n);
  // Seeds: the sources, and any node without fanins (a Logic node of
  // zero inputs, which is a constant by another name).
  for (NodeId id = 0; id < n; ++id)
    if (is_source(id) || pending[id] == 0) d.topo.push_back(id);
  for (std::size_t head = 0; head < d.topo.size(); ++head) {
    NodeId v = d.topo[head];
    for (std::uint32_t e = d.fanout_offsets[v]; e < d.fanout_offsets[v + 1];
         ++e) {
      NodeId o = d.fanout_edges[e];
      if (kinds_[o] == NodeKind::Latch) continue;  // no combinational in-edge
      if (--pending[o] == 0) d.topo.push_back(o);
    }
  }
  DAGMAP_ASSERT_MSG(d.topo.size() == n, "combinational cycle detected");
}

const std::vector<NodeId>& Network::topo_order() const {
  return cache().get([this](TopologyCache::Data& d) { fill_topology(d); }).topo;
}

const std::vector<std::uint32_t>& Network::fanout_counts() const {
  return cache()
      .get([this](TopologyCache::Data& d) { fill_topology(d); })
      .fanout_counts;
}

FanoutView Network::fanout_view() const {
  const TopologyCache::Data& d =
      cache().get([this](TopologyCache::Data& dd) { fill_topology(dd); });
  return FanoutView(d.fanout_offsets.data(), d.fanout_edges.data(), size());
}

std::vector<NodeId> Network::transitive_fanin(NodeId root) const {
  std::vector<NodeId> stack{root}, result;
  std::vector<bool> seen(size(), false);
  seen[root] = true;
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    result.push_back(n);
    if (is_source(n)) continue;
    for (NodeId f : fanins(n))
      if (!seen[f]) {
        seen[f] = true;
        stack.push_back(f);
      }
  }
  return result;
}

bool Network::is_subject_graph() const {
  for (NodeId id = 0; id < size(); ++id) {
    if (is_source(id)) continue;
    NodeKind k = kinds_[id];
    if (k != NodeKind::Nand2 && k != NodeKind::Inv) return false;
  }
  return true;
}

bool Network::is_k_bounded(unsigned k) const {
  for (NodeId id = 0; id < size(); ++id)
    if (fanins(id).size() > k) return false;
  return true;
}

unsigned Network::depth() const {
  std::vector<unsigned> level(size(), 0);
  unsigned d = 0;
  for (NodeId id : topo_order()) {
    if (is_source(id)) continue;
    unsigned lv = 0;
    for (NodeId f : fanins(id)) lv = std::max(lv, level[f]);
    level[id] = lv + 1;
    d = std::max(d, level[id]);
  }
  return d;
}

void Network::check() const {
  for (NodeId id = 0; id < size(); ++id) {
    std::span<const NodeId> fi = fanins(id);
    for (NodeId f : fi)
      DAGMAP_ASSERT_MSG(f < size(), "fanin out of range");
    switch (kinds_[id]) {
      case NodeKind::PrimaryInput:
      case NodeKind::Const0:
      case NodeKind::Const1:
        DAGMAP_ASSERT_MSG(fi.empty(), "source node with fanins");
        break;
      case NodeKind::Inv:
      case NodeKind::Latch:
        DAGMAP_ASSERT_MSG(fi.size() == 1, "inv/latch needs 1 fanin");
        break;
      case NodeKind::Nand2:
        DAGMAP_ASSERT_MSG(fi.size() == 2, "nand2 needs 2 fanins");
        break;
      case NodeKind::Logic:
        DAGMAP_ASSERT_MSG(function(id).num_vars() == fi.size(),
                          "logic arity mismatch");
        break;
    }
  }
  for (const Output& o : outputs_)
    DAGMAP_ASSERT_MSG(o.node < size(), "PO out of range");
  (void)topo_order();  // throws on combinational cycles
}

std::pair<Network, std::vector<NodeId>> Network::cleaned_copy() const {
  std::vector<bool> live(size(), false);
  std::vector<NodeId> stack;
  auto mark = [&](NodeId id) {
    if (!live[id]) {
      live[id] = true;
      stack.push_back(id);
    }
  };
  for (const Output& o : outputs_) mark(o.node);
  for (NodeId l : latches_) mark(l);
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    for (NodeId f : fanins(id)) mark(f);
  }
  // Keep all primary inputs so the interface is preserved.
  for (NodeId pi : inputs_) live[pi] = true;

  Network out(name_);
  std::vector<NodeId> remap(size(), kNullNode);
  std::vector<NodeId> mapped_fanins;
  for (NodeId id : topo_order()) {
    if (!live[id]) continue;
    mapped_fanins.clear();
    if (kinds_[id] != NodeKind::Latch) {
      for (NodeId f : fanins(id)) {
        DAGMAP_ASSERT(remap[f] != kNullNode);
        mapped_fanins.push_back(remap[f]);
      }
    }
    switch (kinds_[id]) {
      case NodeKind::PrimaryInput:
        remap[id] = out.add_input(name(id));
        break;
      case NodeKind::Const0:
        remap[id] = out.add_constant(false);
        break;
      case NodeKind::Const1:
        remap[id] = out.add_constant(true);
        break;
      case NodeKind::Latch:
        remap[id] = out.add_latch_placeholder(name(id));
        break;
      case NodeKind::Inv:
        remap[id] = out.add_inv(mapped_fanins[0], name(id));
        break;
      case NodeKind::Nand2:
        remap[id] = out.add_nand2(mapped_fanins[0], mapped_fanins[1], name(id));
        break;
      case NodeKind::Logic:
        remap[id] = out.add_logic(mapped_fanins, function(id), name(id));
        break;
    }
  }
  // Latch D inputs may close cycles; connect them once everything exists.
  for (NodeId id : latches_) {
    if (!live[id] || fanins(id).empty()) continue;
    NodeId d = fanins(id)[0];
    DAGMAP_ASSERT(remap[d] != kNullNode);
    out.connect_latch(remap[id], remap[d]);
  }
  for (const Output& o : outputs_) out.add_output(remap[o.node], o.name);
  return {std::move(out), std::move(remap)};
}

}  // namespace dagmap
