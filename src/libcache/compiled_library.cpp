#include "libcache/compiled_library.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "io/expr.hpp"
#include "io/liberty.hpp"
#include "libcache/binio.hpp"
#include "netlist/assert.hpp"
#include "obs/obs.hpp"

namespace dagmap {

using libcache::ByteReader;
using libcache::ByteWriter;
using libcache::FormatError;
using libcache::fnv1a64;

SupergateOptions LibCompileOptions::supergate_options() const {
  SupergateOptions o;
  o.max_depth = supergate_depth == 0 ? 1 : supergate_depth;
  o.max_inputs = supergate_max_inputs;
  o.max_components = supergate_max_components;
  o.max_component_inputs = supergate_max_component_inputs;
  o.max_area = supergate_max_area;
  o.max_steps_per_root = supergate_max_steps;
  o.num_threads = num_threads;
  return o;
}

std::uint64_t LibCompileOptions::hash() const {
  ByteWriter w;
  w.u32(supergate_depth);
  w.u32(supergate_max_inputs);
  w.u32(supergate_max_components);
  w.u32(supergate_max_component_inputs);
  w.f64(supergate_max_area);
  w.u64(supergate_max_steps);
  return fnv1a64(w.data());
}

std::uint64_t library_content_hash(std::string_view genlib_text,
                                   const LibCompileOptions& options) {
  ByteWriter w;
  w.u64(fnv1a64(genlib_text));
  w.u64(options.hash());
  return fnv1a64(w.data());
}

CompiledLibrary compile_library(const std::string& genlib_text,
                                const LibCompileOptions& options,
                                std::string name) {
  CompiledLibrary c;
  c.name = std::move(name);
  c.options = options;

  // Format sniff: a Liberty source (`library (...) { ... }`) routes
  // through the Liberty-subset reader, anything else is GENLIB.  The
  // content hash runs over the raw source bytes either way, so
  // artifact freshness checking is format-agnostic.
  std::vector<GenlibGate> base = [&] {
    obs::Scope scope("library.parse");
    c.source_hash = library_content_hash(genlib_text, options);
    return looks_like_liberty(genlib_text) ? parse_liberty(genlib_text).gates
                                           : parse_genlib(genlib_text);
  }();
  if (options.supergate_depth == 0) {
    c.gates = std::move(base);
    c.library = GateLibrary::from_genlib(c.gates, c.name);
  } else {
    SupergateLibrary sg =
        generate_supergates(base, options.supergate_options(), c.name);
    c.gates = std::move(sg.gates);
    c.library = std::move(sg.library);
    c.supergate_stats = sg.stats;
  }

  obs::Scope scope("library.index");
  c.index = PatternIndex::build(c.library);

  // NPN classes over the canonicalizable gate functions (1..6 inputs;
  // the supergate canonicalizer's domain).  First-appearance order keeps
  // the table a pure function of the gate list.
  std::unordered_map<CanonKey, std::uint32_t, CanonKeyHash> class_ids;
  const std::vector<Gate>& gates = c.library.gates();
  c.npn_class_of.reserve(gates.size());
  for (std::uint32_t gi = 0; gi < gates.size(); ++gi) {
    unsigned nv = gates[gi].function.num_vars();
    if (nv == 0 || nv > 6) {
      c.npn_class_of.push_back(kNoNpnClass);
      continue;
    }
    CanonKey key = canon_key(gates[gi].function.words()[0], nv);
    auto [it, inserted] =
        class_ids.emplace(key, static_cast<std::uint32_t>(c.npn_classes.size()));
    if (inserted) c.npn_classes.push_back(NpnClass{key, {}});
    c.npn_classes[it->second].gate_indices.push_back(gi);
    c.npn_class_of.push_back(it->second);
  }
  return c;
}

namespace {

// ---- payload writers ------------------------------------------------------

void write_genlib_gate(ByteWriter& w, const GenlibGate& g) {
  w.str(g.name);
  w.f64(g.area);
  w.str(g.output_name);
  w.str(to_string(g.function));
  w.u64(g.pins.size());
  for (const GenlibPin& p : g.pins) {
    w.str(p.name);
    w.u8(static_cast<std::uint8_t>(p.phase));
    w.f64(p.input_load);
    w.f64(p.max_load);
    w.f64(p.rise_block);
    w.f64(p.rise_fanout);
    w.f64(p.fall_block);
    w.f64(p.fall_fanout);
  }
}

void write_pattern(ByteWriter& w, const PatternGraph& p) {
  w.u64(p.nodes.size());
  for (const PatternNode& n : p.nodes) {
    w.u8(static_cast<std::uint8_t>(n.kind));
    w.i32(n.fanin0);
    w.i32(n.fanin1);
    w.i32(n.pin);
  }
  w.u32(p.root);
}

void write_built_gate(ByteWriter& w, const Gate& g) {
  w.str(g.name);
  w.f64(g.area);
  w.u64(g.pins.size());
  for (const GatePin& p : g.pins) {
    w.str(p.name);
    w.f64(p.rise_block);
    w.f64(p.fall_block);
    w.f64(p.input_load);
    w.f64(p.rise_fanout);
    w.f64(p.fall_fanout);
  }
  w.u32(g.function.num_vars());
  for (std::uint64_t word : g.function.words()) w.u64(word);
  w.u64(g.patterns.size());
  for (const PatternGraph& p : g.patterns) write_pattern(w, p);
}

void write_signature(ByteWriter& w, const PatternSignature& s) {
  w.u16(s.depth);
  w.u16(s.total);
  w.u16(s.inv_count);
  w.u16(s.nand_count);
  for (unsigned k = 0; k < 2; ++k)
    for (unsigned d = 0; d < kSignatureNearDepth; ++d) w.u8(s.near[k][d]);
  w.u64(s.paths);
}

void write_index_bucket(ByteWriter& w, const std::vector<PatternEntry>& b) {
  w.u64(b.size());
  for (const PatternEntry& e : b) {
    w.u32(e.gate_index);
    w.u32(e.pattern_index);
    w.u64(e.sym_hash.size());
    for (std::uint64_t h : e.sym_hash) w.u64(h);
    w.u64(e.out_deg.size());
    for (std::uint32_t d : e.out_deg) w.u32(d);
    write_signature(w, e.sig);
  }
}

// ---- payload readers ------------------------------------------------------

GenlibGate read_genlib_gate(ByteReader& r) {
  GenlibGate g;
  g.name = r.str();
  g.area = r.f64();
  g.output_name = r.str();
  g.function = parse_expression(r.str());
  std::uint64_t pins = r.count(8 + 1 + 6 * 8, "genlib pin");
  g.pins.reserve(static_cast<std::size_t>(pins));
  for (std::uint64_t i = 0; i < pins; ++i) {
    GenlibPin p;
    p.name = r.str();
    std::uint8_t phase = r.u8();
    if (phase > static_cast<std::uint8_t>(GenlibPin::Phase::Unknown))
      throw FormatError("bad pin phase " + std::to_string(phase));
    p.phase = static_cast<GenlibPin::Phase>(phase);
    p.input_load = r.f64();
    p.max_load = r.f64();
    p.rise_block = r.f64();
    p.rise_fanout = r.f64();
    p.fall_block = r.f64();
    p.fall_fanout = r.f64();
    g.pins.push_back(std::move(p));
  }
  return g;
}

PatternGraph read_pattern(ByteReader& r, std::size_t pin_count) {
  PatternGraph p;
  std::uint64_t nodes = r.count(1 + 3 * 4, "pattern node");
  if (nodes == 0) throw FormatError("empty pattern graph");
  p.nodes.reserve(static_cast<std::size_t>(nodes));
  for (std::uint64_t i = 0; i < nodes; ++i) {
    PatternNode n;
    std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(PatternNode::Kind::Nand2))
      throw FormatError("bad pattern node kind " + std::to_string(kind));
    n.kind = static_cast<PatternNode::Kind>(kind);
    n.fanin0 = r.i32();
    n.fanin1 = r.i32();
    n.pin = r.i32();
    // Topological storage (children strictly before parents) is what the
    // matcher and signature code rely on — enforce it here so corrupted
    // fanins can never walk out of bounds downstream.
    auto check_child = [&](std::int32_t c) {
      if (c < 0 || static_cast<std::uint64_t>(c) >= i)
        throw FormatError("pattern fanin " + std::to_string(c) +
                          " out of order at node " + std::to_string(i));
    };
    switch (n.kind) {
      case PatternNode::Kind::Leaf:
        if (n.pin < 0 || static_cast<std::size_t>(n.pin) >= pin_count)
          throw FormatError("pattern leaf pin " + std::to_string(n.pin) +
                            " out of range");
        break;
      case PatternNode::Kind::Inv:
        check_child(n.fanin0);
        break;
      case PatternNode::Kind::Nand2:
        check_child(n.fanin0);
        check_child(n.fanin1);
        break;
    }
    p.nodes.push_back(n);
  }
  p.root = r.u32();
  if (p.root >= p.nodes.size())
    throw FormatError("pattern root " + std::to_string(p.root) +
                      " out of range");
  return p;
}

Gate read_built_gate(ByteReader& r) {
  Gate g;
  g.name = r.str();
  g.area = r.f64();
  std::uint64_t pins = r.count(8 + 5 * 8, "gate pin");
  g.pins.reserve(static_cast<std::size_t>(pins));
  for (std::uint64_t i = 0; i < pins; ++i) {
    GatePin p;
    p.name = r.str();
    p.rise_block = r.f64();
    p.fall_block = r.f64();
    p.input_load = r.f64();
    p.rise_fanout = r.f64();
    p.fall_fanout = r.f64();
    g.pins.push_back(std::move(p));
  }
  std::uint32_t num_vars = r.u32();
  if (num_vars > TruthTable::kMaxVars)
    throw FormatError("truth table of " + std::to_string(num_vars) +
                      " variables");
  std::size_t words = num_vars <= 6 ? 1 : std::size_t{1} << (num_vars - 6);
  if (words * 8 > r.remaining())
    throw FormatError("truncated truth table");
  std::vector<std::uint64_t> bits(words);
  for (std::uint64_t& word : bits) word = r.u64();
  g.function = TruthTable::from_words(num_vars, std::move(bits));
  std::uint64_t patterns = r.count(8, "pattern");
  g.patterns.reserve(static_cast<std::size_t>(patterns));
  for (std::uint64_t i = 0; i < patterns; ++i)
    g.patterns.push_back(read_pattern(r, g.pins.size()));
  return g;
}

PatternSignature read_signature(ByteReader& r) {
  PatternSignature s;
  s.depth = r.u16();
  s.total = r.u16();
  s.inv_count = r.u16();
  s.nand_count = r.u16();
  for (unsigned k = 0; k < 2; ++k)
    for (unsigned d = 0; d < kSignatureNearDepth; ++d) s.near[k][d] = r.u8();
  s.paths = r.u64();
  return s;
}

std::vector<PatternEntry> read_index_bucket(ByteReader& r) {
  std::uint64_t n = r.count(4 + 4 + 8 + 8 + 16 + 8, "index entry");
  std::vector<PatternEntry> bucket;
  bucket.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    PatternEntry e;
    e.gate_index = r.u32();
    e.pattern_index = r.u32();
    std::uint64_t hashes = r.count(8, "symmetry hash");
    e.sym_hash.reserve(static_cast<std::size_t>(hashes));
    for (std::uint64_t h = 0; h < hashes; ++h) e.sym_hash.push_back(r.u64());
    std::uint64_t degs = r.count(4, "out-degree");
    e.out_deg.reserve(static_cast<std::size_t>(degs));
    for (std::uint64_t d = 0; d < degs; ++d) e.out_deg.push_back(r.u32());
    e.sig = read_signature(r);
    bucket.push_back(std::move(e));
  }
  return bucket;
}

std::string serialize_payload(const CompiledLibrary& c) {
  ByteWriter w;
  w.u64(c.source_hash);
  w.u32(c.options.supergate_depth);
  w.u32(c.options.supergate_max_inputs);
  w.u32(c.options.supergate_max_components);
  w.u32(c.options.supergate_max_component_inputs);
  w.f64(c.options.supergate_max_area);
  w.u64(c.options.supergate_max_steps);
  w.str(c.name);

  w.u64(c.gates.size());
  for (const GenlibGate& g : c.gates) write_genlib_gate(w, g);

  w.u64(c.library.gates().size());
  for (const Gate& g : c.library.gates()) write_built_gate(w, g);

  write_index_bucket(w, c.index.inv_rooted);
  write_index_bucket(w, c.index.nand_rooted);

  w.u64(c.npn_class_of.size());
  for (std::uint32_t id : c.npn_class_of) w.u32(id);
  w.u64(c.npn_classes.size());
  for (const NpnClass& cls : c.npn_classes) {
    w.u64(cls.key.tt);
    w.u32(cls.key.num_vars);
    w.u64(cls.gate_indices.size());
    for (std::uint32_t gi : cls.gate_indices) w.u32(gi);
  }

  const SupergateStats& s = c.supergate_stats;
  w.u64(s.roots);
  w.u64(s.candidates);
  w.u64(s.classes_seen);
  w.u64(s.kept);
  w.u64(s.pruned_by_class);
  w.u64(s.pruned_trivial);
  w.u64(s.pruned_vs_base);
  w.u64(s.pruned_degenerate);
  w.u64(s.truncated_roots);
  w.f64(s.generation_seconds);
  return w.take();
}

CompiledLibrary deserialize_payload(std::string_view payload) {
  ByteReader r(payload);
  CompiledLibrary c;
  c.source_hash = r.u64();
  c.options.supergate_depth = r.u32();
  c.options.supergate_max_inputs = r.u32();
  c.options.supergate_max_components = r.u32();
  c.options.supergate_max_component_inputs = r.u32();
  c.options.supergate_max_area = r.f64();
  c.options.supergate_max_steps = r.u64();
  c.name = r.str();

  std::uint64_t genlib_gates = r.count(8 + 8 + 8 + 8 + 8, "genlib gate");
  c.gates.reserve(static_cast<std::size_t>(genlib_gates));
  for (std::uint64_t i = 0; i < genlib_gates; ++i)
    c.gates.push_back(read_genlib_gate(r));

  std::uint64_t built_gates = r.count(8 + 8 + 8 + 4 + 8 + 8, "gate");
  if (built_gates != genlib_gates)
    throw FormatError("gate table sizes disagree: " +
                      std::to_string(genlib_gates) + " genlib vs " +
                      std::to_string(built_gates) + " built");
  std::vector<Gate> gates;
  gates.reserve(static_cast<std::size_t>(built_gates));
  for (std::uint64_t i = 0; i < built_gates; ++i)
    gates.push_back(read_built_gate(r));
  c.library = GateLibrary::from_compiled(std::move(gates), c.name);

  c.index.inv_rooted = read_index_bucket(r);
  c.index.nand_rooted = read_index_bucket(r);
  if (!c.index.matches_shape(c.library))
    throw FormatError("pattern index does not match the gate table");
  // The shape automaton is derived, not stored (artifact bytes stay as
  // they were before it existed).
  c.index.derive_shapes(c.library);

  std::uint64_t class_of = r.count(4, "npn class id");
  if (class_of != built_gates)
    throw FormatError("npn class table size disagrees with the gate table");
  c.npn_class_of.reserve(static_cast<std::size_t>(class_of));
  for (std::uint64_t i = 0; i < class_of; ++i)
    c.npn_class_of.push_back(r.u32());
  std::uint64_t classes = r.count(8 + 4 + 8, "npn class");
  c.npn_classes.reserve(static_cast<std::size_t>(classes));
  for (std::uint64_t i = 0; i < classes; ++i) {
    NpnClass cls;
    cls.key.tt = r.u64();
    cls.key.num_vars = r.u32();
    std::uint64_t members = r.count(4, "npn class member");
    cls.gate_indices.reserve(static_cast<std::size_t>(members));
    for (std::uint64_t m = 0; m < members; ++m) {
      std::uint32_t gi = r.u32();
      if (gi >= built_gates)
        throw FormatError("npn class member " + std::to_string(gi) +
                          " out of range");
      cls.gate_indices.push_back(gi);
    }
    c.npn_classes.push_back(std::move(cls));
  }
  for (std::uint32_t id : c.npn_class_of)
    if (id != kNoNpnClass && id >= c.npn_classes.size())
      throw FormatError("npn class id " + std::to_string(id) +
                        " out of range");

  SupergateStats& s = c.supergate_stats;
  s.roots = r.u64();
  s.candidates = r.u64();
  s.classes_seen = r.u64();
  s.kept = r.u64();
  s.pruned_by_class = r.u64();
  s.pruned_trivial = r.u64();
  s.pruned_vs_base = r.u64();
  s.pruned_degenerate = r.u64();
  s.truncated_roots = r.u64();
  s.generation_seconds = r.f64();

  if (!r.done())
    throw FormatError(std::to_string(r.remaining()) +
                      " trailing byte(s) after the payload");
  return c;
}

}  // namespace

std::string serialize_compiled_library(const CompiledLibrary& lib) {
  std::string payload = serialize_payload(lib);
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kLibCacheMagic[0]));
  w.u8(static_cast<std::uint8_t>(kLibCacheMagic[1]));
  w.u8(static_cast<std::uint8_t>(kLibCacheMagic[2]));
  w.u8(static_cast<std::uint8_t>(kLibCacheMagic[3]));
  w.u32(kLibCacheVersion);
  w.u64(payload.size());
  w.u64(fnv1a64(payload));
  std::string out = w.take();
  out += payload;
  return out;
}

LibraryLoadResult deserialize_compiled_library(std::string_view bytes) {
  LibraryLoadResult result;
  try {
    ByteReader header(bytes);
    char magic[4];
    for (char& m : magic) m = static_cast<char>(header.u8());
    if (std::string_view(magic, 4) != std::string_view(kLibCacheMagic, 4))
      throw FormatError("bad magic (not a dagmap compiled-library artifact)");
    std::uint32_t version = header.u32();
    if (version != kLibCacheVersion)
      throw FormatError("unsupported format version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kLibCacheVersion) +
                        "); regenerate with --save-lib");
    std::uint64_t payload_size = header.u64();
    std::uint64_t payload_hash = header.u64();
    if (payload_size != header.remaining())
      throw FormatError("payload size " + std::to_string(payload_size) +
                        " disagrees with artifact size (" +
                        std::to_string(header.remaining()) +
                        " byte(s) after the header)");
    std::string_view payload = bytes.substr(bytes.size() - header.remaining());
    if (fnv1a64(payload) != payload_hash)
      throw FormatError("payload checksum mismatch (corrupted artifact)");
    result.lib = deserialize_payload(payload);
    result.ok = true;
  } catch (const std::exception& e) {
    result = LibraryLoadResult{};  // never leak a partial bundle
    result.error = e.what();
  }
  return result;
}

void save_compiled_library_file(const CompiledLibrary& lib,
                                const std::string& path) {
  std::string bytes = serialize_compiled_library(lib);
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

LibraryLoadResult load_compiled_library_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    LibraryLoadResult r;
    r.error = "cannot open " + path;
    return r;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return deserialize_compiled_library(ss.str());
}

NpnLibraryIndex npn_index_from_compiled(const CompiledLibrary& lib) {
  return NpnLibraryIndex(lib.library);
}

bool validate_compiled_library(const CompiledLibrary& lib,
                               std::string_view genlib_text,
                               const LibCompileOptions& options,
                               std::string* why) {
  std::uint64_t expected = library_content_hash(genlib_text, options);
  if (lib.source_hash == expected) return true;
  if (why) {
    *why = lib.options.hash() != options.hash()
               ? "generation options changed (artifact was compiled with "
                 "different options)"
               : "genlib source changed since the artifact was compiled";
  }
  return false;
}

}  // namespace dagmap
