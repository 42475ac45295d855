#include "mapnet/mapped_netlist.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "netlist/assert.hpp"

namespace dagmap {

MappedNetlist::MappedNetlist() : topo_cache_(std::make_unique<TopologyCache>()) {}

MappedNetlist::MappedNetlist(std::string name) : MappedNetlist() {
  name_ = std::move(name);
}

MappedNetlist::MappedNetlist(const MappedNetlist& other)
    : name_(other.name_),
      kinds_(other.kinds_),
      gates_(other.gates_),
      fanin_handles_(other.fanin_handles_),
      fanin_counts_(other.fanin_counts_),
      name_ids_(other.name_ids_),
      fanin_pool_(other.fanin_pool_),
      names_(other.names_),
      inputs_(other.inputs_),
      latches_(other.latches_),
      outputs_(other.outputs_),
      topo_cache_(std::make_unique<TopologyCache>()) {}

MappedNetlist& MappedNetlist::operator=(const MappedNetlist& other) {
  if (this != &other) {
    MappedNetlist copy(other);
    *this = std::move(copy);
  }
  return *this;
}

TopologyCache& MappedNetlist::cache() const {
  if (!topo_cache_) topo_cache_ = std::make_unique<TopologyCache>();
  return *topo_cache_;
}

void MappedNetlist::invalidate_topology() { cache().invalidate(); }

void MappedNetlist::reserve(std::size_t instances, std::size_t fanin_edges) {
  kinds_.reserve(instances);
  gates_.reserve(instances);
  fanin_handles_.reserve(instances);
  fanin_counts_.reserve(instances);
  name_ids_.reserve(instances);
  fanin_pool_.reserve(fanin_edges);
}

InstId MappedNetlist::new_instance(Instance::Kind kind, const Gate* gate,
                                   std::span<const InstId> fanins,
                                   std::string&& name) {
  StablePool<InstId>::Handle h = fanin_pool_.allocate(fanins.size());
  std::copy(fanins.begin(), fanins.end(), fanin_pool_.data(h));
  kinds_.push_back(kind);
  gates_.push_back(gate);
  fanin_handles_.push_back(h);
  fanin_counts_.push_back(static_cast<std::uint16_t>(fanins.size()));
  name_ids_.push_back(names_.intern(std::move(name)));
  invalidate_topology();
  return static_cast<InstId>(kinds_.size() - 1);
}

InstId MappedNetlist::add_input(std::string name) {
  DAGMAP_ASSERT_MSG(!name.empty(), "primary inputs must be named");
  InstId id = new_instance(Instance::Kind::PrimaryInput, nullptr, {},
                           std::move(name));
  inputs_.push_back(id);
  return id;
}

InstId MappedNetlist::add_latch_placeholder(std::string name) {
  // The latch reserves one arena slot for its D input (kNullInst =
  // unconnected) so `connect_latch` is a slot write, not a reallocation.
  StablePool<InstId>::Handle h = fanin_pool_.allocate(1);
  *fanin_pool_.data(h) = kNullInst;
  kinds_.push_back(Instance::Kind::Latch);
  gates_.push_back(nullptr);
  fanin_handles_.push_back(h);
  fanin_counts_.push_back(1);
  name_ids_.push_back(names_.intern(std::move(name)));
  invalidate_topology();
  InstId id = static_cast<InstId>(kinds_.size() - 1);
  latches_.push_back(id);
  return id;
}

void MappedNetlist::connect_latch(InstId latch, InstId d) {
  DAGMAP_ASSERT(latch < kinds_.size() &&
                kinds_[latch] == Instance::Kind::Latch);
  InstId* slot = fanin_pool_.data(fanin_handles_[latch]);
  DAGMAP_ASSERT_MSG(*slot == kNullInst, "latch already wired");
  DAGMAP_ASSERT(d < kinds_.size());
  *slot = d;
  invalidate_topology();
}

InstId MappedNetlist::add_constant(bool value) {
  return new_instance(
      value ? Instance::Kind::Const1 : Instance::Kind::Const0, nullptr, {},
      {});
}

InstId MappedNetlist::add_gate(const Gate* gate,
                               std::span<const InstId> fanins,
                               std::string name) {
  DAGMAP_ASSERT(gate != nullptr);
  DAGMAP_ASSERT_MSG(fanins.size() == gate->num_inputs(),
                    "gate " + gate->name + " fanin count != pin count");
  for (InstId f : fanins) DAGMAP_ASSERT(f < kinds_.size());
  return new_instance(Instance::Kind::GateInst, gate, fanins,
                      std::move(name));
}

void MappedNetlist::replace_gate(InstId inst, const Gate* gate) {
  DAGMAP_ASSERT(inst < kinds_.size() && gate != nullptr);
  DAGMAP_ASSERT_MSG(kinds_[inst] == Instance::Kind::GateInst,
                    "replace_gate target is not a gate instance");
  DAGMAP_ASSERT_MSG(gate->num_inputs() == fanin_counts_[inst],
                    "replacement gate pin count mismatch");
  DAGMAP_ASSERT_MSG(gate->function == gates_[inst]->function,
                    "replacement gate is not functionally identical");
  // Topology is unchanged: cached views stay valid by design.
  gates_[inst] = gate;
}

void MappedNetlist::add_output(InstId inst, std::string name) {
  DAGMAP_ASSERT(inst < kinds_.size());
  DAGMAP_ASSERT_MSG(!name.empty(), "primary outputs must be named");
  outputs_.push_back({inst, std::move(name)});
  invalidate_topology();  // fanout_counts include PO references
}

Instance::Kind MappedNetlist::kind(InstId id) const {
  DAGMAP_ASSERT(id < kinds_.size());
  return kinds_[id];
}

const Gate* MappedNetlist::gate(InstId id) const {
  DAGMAP_ASSERT(id < kinds_.size());
  return gates_[id];
}

std::span<const InstId> MappedNetlist::fanins(InstId id) const {
  DAGMAP_ASSERT(id < kinds_.size());
  const InstId* p = fanin_pool_.data(fanin_handles_[id]);
  std::size_t n = fanin_counts_[id];
  if (kinds_[id] == Instance::Kind::Latch && *p == kNullInst) return {};
  return {p, n};
}

const std::string& MappedNetlist::name(InstId id) const {
  DAGMAP_ASSERT(id < kinds_.size());
  return names_.at(name_ids_[id]);
}

std::size_t MappedNetlist::num_gates() const {
  return static_cast<std::size_t>(std::count(
      kinds_.begin(), kinds_.end(), Instance::Kind::GateInst));
}

double MappedNetlist::total_area() const {
  double a = 0.0;
  for (InstId id = 0; id < kinds_.size(); ++id)
    if (kinds_[id] == Instance::Kind::GateInst) a += gates_[id]->area;
  return a;
}

std::map<std::string, std::size_t> MappedNetlist::gate_histogram() const {
  // Count per gate, then look each distinct gate's name up once.
  std::unordered_map<const Gate*, std::size_t> per_gate;
  for (InstId id = 0; id < kinds_.size(); ++id)
    if (kinds_[id] == Instance::Kind::GateInst) ++per_gate[gates_[id]];
  std::map<std::string, std::size_t> h;
  for (auto [gate, n] : per_gate) h[gate->name] += n;
  return h;
}

void MappedNetlist::fill_topology(TopologyCache::Data& d) const {
  const std::size_t n = size();

  d.fanout_offsets.assign(n + 1, 0);
  for (InstId id = 0; id < n; ++id)
    for (InstId f : fanins(id)) ++d.fanout_offsets[f + 1];
  std::partial_sum(d.fanout_offsets.begin(), d.fanout_offsets.end(),
                   d.fanout_offsets.begin());
  d.fanout_edges.resize(d.fanout_offsets[n]);
  {
    std::vector<std::uint32_t> cursor(d.fanout_offsets.begin(),
                                      d.fanout_offsets.end() - 1);
    for (InstId id = 0; id < n; ++id)
      for (InstId f : fanins(id)) d.fanout_edges[cursor[f]++] = id;
  }

  d.fanout_counts.assign(n, 0);
  for (InstId id = 0; id < n; ++id)
    d.fanout_counts[id] = d.fanout_offsets[id + 1] - d.fanout_offsets[id];
  for (const Output& o : outputs_) ++d.fanout_counts[o.node];

  // Kahn over combinational edges: latch D-edges do not count as
  // incoming edges of the latch (latch outputs are sources).
  std::vector<std::uint32_t> pending(n, 0);
  for (InstId id = 0; id < n; ++id)
    if (kinds_[id] != Instance::Kind::Latch)
      pending[id] = static_cast<std::uint32_t>(fanins(id).size());

  d.topo.clear();
  d.topo.reserve(n);
  for (InstId id = 0; id < n; ++id)
    if (pending[id] == 0) d.topo.push_back(id);
  for (std::size_t head = 0; head < d.topo.size(); ++head) {
    InstId v = d.topo[head];
    for (std::uint32_t e = d.fanout_offsets[v]; e < d.fanout_offsets[v + 1];
         ++e) {
      InstId o = d.fanout_edges[e];
      if (kinds_[o] == Instance::Kind::Latch) continue;
      if (--pending[o] == 0) d.topo.push_back(o);
    }
  }
  DAGMAP_ASSERT_MSG(d.topo.size() == n,
                    "combinational cycle in mapped netlist");
}

const std::vector<InstId>& MappedNetlist::topo_order() const {
  return cache().get([this](TopologyCache::Data& d) { fill_topology(d); }).topo;
}

const std::vector<std::uint32_t>& MappedNetlist::fanout_counts() const {
  return cache()
      .get([this](TopologyCache::Data& d) { fill_topology(d); })
      .fanout_counts;
}

FanoutView MappedNetlist::fanout_view() const {
  const TopologyCache::Data& d =
      cache().get([this](TopologyCache::Data& dd) { fill_topology(dd); });
  return FanoutView(d.fanout_offsets.data(), d.fanout_edges.data(), size());
}

void MappedNetlist::check() const {
  for (InstId id = 0; id < kinds_.size(); ++id) {
    std::span<const InstId> fi = fanins(id);
    switch (kinds_[id]) {
      case Instance::Kind::PrimaryInput:
      case Instance::Kind::Const0:
      case Instance::Kind::Const1:
        DAGMAP_ASSERT(fi.empty());
        break;
      case Instance::Kind::Latch:
        DAGMAP_ASSERT_MSG(fi.size() == 1, "unwired latch");
        break;
      case Instance::Kind::GateInst:
        DAGMAP_ASSERT(gates_[id] != nullptr);
        DAGMAP_ASSERT(fi.size() == gates_[id]->num_inputs());
        break;
    }
  }
  for (const Output& o : outputs_) DAGMAP_ASSERT(o.node < kinds_.size());
  (void)topo_order();
}

std::uint64_t MappedNetlist::structural_hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix_byte = [&](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;  // FNV-1a prime
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
  };
  mix_u64(size());
  for (InstId i = 0; i < size(); ++i) {
    mix_byte(static_cast<std::uint8_t>(kinds_[i]));
    if (kinds_[i] == Instance::Kind::GateInst) mix_str(gates_[i]->name);
    std::span<const InstId> fi = fanins(i);
    mix_u64(fi.size());
    for (InstId f : fi) mix_u64(f);
    mix_str(name(i));
  }
  mix_u64(inputs_.size());
  for (InstId i : inputs_) mix_u64(i);
  mix_u64(latches_.size());
  for (InstId l : latches_) mix_u64(l);
  mix_u64(outputs_.size());
  for (const Output& o : outputs_) {
    mix_u64(o.node);
    mix_str(o.name);
  }
  return h;
}

Network MappedNetlist::to_network() const {
  Network net(name_);
  std::vector<NodeId> map(size(), kNullNode);
  for (InstId id : inputs_) map[id] = net.add_input(name(id));
  for (InstId id : latches_) map[id] = net.add_latch_placeholder(name(id));
  for (InstId id : topo_order()) {
    if (map[id] != kNullNode) continue;
    switch (kinds_[id]) {
      case Instance::Kind::Const0: map[id] = net.add_constant(false); break;
      case Instance::Kind::Const1: map[id] = net.add_constant(true); break;
      case Instance::Kind::GateInst: {
        std::vector<NodeId> node_fanins;
        node_fanins.reserve(fanins(id).size());
        for (InstId f : fanins(id)) node_fanins.push_back(map[f]);
        map[id] = net.add_logic(std::move(node_fanins), gates_[id]->function,
                                name(id));
        break;
      }
      default:
        DAGMAP_ASSERT_MSG(false, "source not pre-mapped");
    }
  }
  for (InstId l : latches_) {
    std::span<const InstId> fi = fanins(l);
    DAGMAP_ASSERT_MSG(!fi.empty(), "unwired latch");
    net.connect_latch(map[l], map[fi[0]]);
  }
  for (const Output& o : outputs_) net.add_output(map[o.node], o.name);
  return net;
}

}  // namespace dagmap
