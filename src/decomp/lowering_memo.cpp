#include "decomp/lowering_memo.hpp"

#include <algorithm>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {

// A sink whose handles are call indices: it only writes the calls down.
class Recorder : public NandSink {
 public:
  using Kind = NandRecording::Kind;

  Recorder(NandRecording& out, std::span<const std::string> vars)
      : out_(out), vars_(vars) {}

  Handle leaf(const std::string& name) override {
    auto it = std::find(vars_.begin(), vars_.end(), name);
    DAGMAP_ASSERT_MSG(it != vars_.end(), "unexpected leaf name " + name);
    return add(Kind::Leaf, static_cast<std::uint32_t>(it - vars_.begin()));
  }
  Handle make_nand2(Handle a, Handle b) override {
    return add(Kind::Nand2, a, b);
  }
  Handle make_inv(Handle a) override { return add(Kind::Inv, a); }
  Handle make_const(bool value) override {
    return add(value ? Kind::Const1 : Kind::Const0);
  }

 private:
  Handle add(Kind kind, std::uint32_t a = 0, std::uint32_t b = 0) {
    out_.calls.push_back({kind, a, b});
    return static_cast<Handle>(out_.calls.size() - 1);
  }

  NandRecording& out_;
  std::span<const std::string> vars_;
};

/// Records `lower_expr(e, shape, ·)`; the leaf named vars[i] is fanin i.
NandRecording record_lowering(const Expr& e, DecompShape shape,
                              std::span<const std::string> vars) {
  NandRecording r;
  Recorder recorder(r, vars);
  r.root = lower_expr(e, shape, recorder);
  return r;
}

}  // namespace

NodeId NandRecording::replay(NetworkNandBuilder& builder,
                             std::span<const NodeId> fanins,
                             std::vector<NodeId>& values) const {
  values.resize(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    switch (c.kind) {
      case Kind::Leaf:
        DAGMAP_ASSERT(c.a < fanins.size());
        values[i] = fanins[c.a];
        break;
      case Kind::Const0: values[i] = builder.make_const(false); break;
      case Kind::Const1: values[i] = builder.make_const(true); break;
      case Kind::Inv: values[i] = builder.make_inv(values[c.a]); break;
      case Kind::Nand2:
        values[i] = builder.make_nand2(values[c.a], values[c.b]);
        break;
    }
  }
  return values[root];
}

std::span<const NandRecording> LoweringMemo::get(const TruthTable& f) {
  auto it = by_function_.find(f);
  if (it == by_function_.end()) {
    std::vector<std::string> vars;
    for (unsigned i = 0; i < f.num_vars(); ++i)
      vars.push_back("v" + std::to_string(i));
    std::vector<NandRecording> recordings;
    for (const auto& [e, shape] : variants_(f, vars))
      recordings.push_back(record_lowering(e, shape, vars));
    it = by_function_.emplace(f, std::move(recordings)).first;
  }
  return it->second;
}

}  // namespace dagmap
