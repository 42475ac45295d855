// Mapped netlists: the output of technology mapping.
//
// A `MappedNetlist` is a DAG of library-gate instances (plus primary
// inputs, latches and constants).  It is a separate type from `Network`
// so that area and gate-level timing are first-class, but it converts to
// a `Network` (each gate instance becomes a generic logic node carrying
// the gate's function) for simulation-based equivalence checking.
//
// Storage mirrors the `Network` core: struct-of-arrays with CSR fanins
// in a chunked stable arena (fanin spans stay valid as instances are
// added), interned names, and a memoized `TopologyCache` serving
// `topo_order()` / `fanout_counts()` / `fanout_view()`.  Structural
// mutations invalidate the cache; `replace_gate` swaps a gate for a
// pin-compatible one and deliberately does NOT (the sizing pass holds a
// topo order across replacements).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "library/gate_library.hpp"
#include "netlist/name_pool.hpp"
#include "netlist/network.hpp"
#include "netlist/stable_pool.hpp"
#include "netlist/topology.hpp"

namespace dagmap {

/// Index of an instance inside its `MappedNetlist`.
using InstId = std::uint32_t;

inline constexpr InstId kNullInst = 0xFFFFFFFFu;

/// Namespace shell for the instance kind (instance data itself is held
/// struct-of-arrays by `MappedNetlist`; query it via `kind()`, `gate()`,
/// `fanins()`, `name()`).
struct Instance {
  enum class Kind : std::uint8_t {
    PrimaryInput,
    Latch,     ///< D latch; fanins()[0] is the D driver
    GateInst,  ///< instance of a gate; fanins follow the gate's pin order
    Const0,
    Const1,
  };
};

/// A technology-mapped circuit.
class MappedNetlist {
 public:
  MappedNetlist();
  explicit MappedNetlist(std::string name);

  MappedNetlist(const MappedNetlist& other);
  MappedNetlist& operator=(const MappedNetlist& other);
  MappedNetlist(MappedNetlist&&) noexcept = default;
  MappedNetlist& operator=(MappedNetlist&&) noexcept = default;

  const std::string& name() const { return name_; }

  /// Growth hint for bulk construction (multi-million-instance covers):
  /// pre-sizes the instance arrays for `instances` total rows and the
  /// fanin arena for `fanin_edges` further edges.  Never required.
  void reserve(std::size_t instances, std::size_t fanin_edges);

  InstId add_input(std::string name);
  InstId add_latch_placeholder(std::string name = {});
  void connect_latch(InstId latch, InstId d);
  InstId add_constant(bool value);
  /// Adds a gate instance; `fanins.size()` must equal the gate's pin
  /// count and fanins follow pin order.  The fanins are copied into the
  /// netlist's arena.
  InstId add_gate(const Gate* gate, std::span<const InstId> fanins,
                  std::string name = {});
  /// Brace-list form, e.g. `add_gate(inv, {a})`.
  InstId add_gate(const Gate* gate, std::initializer_list<InstId> fanins,
                  std::string name = {}) {
    return add_gate(gate,
                    std::span<const InstId>(fanins.begin(), fanins.size()),
                    std::move(name));
  }

  /// Swaps the gate of an existing instance for a functionally identical
  /// one with the same pin count (used by the sizing pass).  Does not
  /// invalidate cached topology views — the structure is unchanged.
  void replace_gate(InstId inst, const Gate* gate);
  void add_output(InstId inst, std::string name);

  std::size_t size() const { return kinds_.size(); }
  Instance::Kind kind(InstId id) const;
  /// The instance's gate (`GateInst` only; nullptr for other kinds).
  const Gate* gate(InstId id) const;
  /// Fanins in pin order; the span stays valid as instances are added.
  /// An unconnected latch placeholder reports no fanins.
  std::span<const InstId> fanins(InstId id) const;
  /// The instance's name (interned; empty unless set).
  const std::string& name(InstId id) const;

  std::span<const InstId> inputs() const { return inputs_; }
  std::span<const InstId> latches() const { return latches_; }
  std::span<const Output> outputs() const { return outputs_; }

  /// Gate instances only (excludes sources/constants).
  std::size_t num_gates() const;

  /// Sum of instance gate areas — the "Area" column of the paper's
  /// tables.
  double total_area() const;

  /// Gate-name -> instance-count histogram (reporting aid).
  std::map<std::string, std::size_t> gate_histogram() const;

  /// Instances in topological order (latch outputs are sources).
  /// Memoized; the reference is valid until the next structural
  /// mutation.
  const std::vector<InstId>& topo_order() const;

  /// Fanin edges into each instance's readers plus one per
  /// primary-output reference.  Memoized.
  const std::vector<std::uint32_t>& fanout_counts() const;

  /// CSR fanout adjacency (latch D edges included, PO refs excluded).
  /// Memoized.
  FanoutView fanout_view() const;

  /// Structural sanity check (fanin arity vs pin count, acyclicity).
  void check() const;

  /// Order-sensitive FNV-1a hash over the full structure: instance
  /// kinds, gate names, fanins, instance names, inputs, latches and
  /// outputs.  Two netlists built through the same construction sequence
  /// hash equal iff they are bit-identical — the cheap large-scale
  /// equality check used by the thread-count identity comparisons,
  /// where materializing BLIF text would dominate.
  std::uint64_t structural_hash() const;

  /// Converts to a logic network for simulation/equivalence: gate
  /// instances become `Logic` nodes with the gate's truth table.
  Network to_network() const;

 private:
  InstId new_instance(Instance::Kind kind, const Gate* gate,
                      std::span<const InstId> fanins, std::string&& name);
  TopologyCache& cache() const;
  void invalidate_topology();
  void fill_topology(TopologyCache::Data& data) const;

  std::string name_;

  // Struct-of-arrays instance storage (one row per instance).
  std::vector<Instance::Kind> kinds_;
  std::vector<const Gate*> gates_;
  std::vector<StablePool<InstId>::Handle> fanin_handles_;
  std::vector<std::uint16_t> fanin_counts_;
  std::vector<std::uint32_t> name_ids_;
  StablePool<InstId> fanin_pool_;
  NamePool names_;

  std::vector<InstId> inputs_;
  std::vector<InstId> latches_;
  std::vector<Output> outputs_;  // Output::node indexes instances

  mutable std::unique_ptr<TopologyCache> topo_cache_;
};

}  // namespace dagmap
