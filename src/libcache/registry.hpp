// LRU-bounded registry of compiled libraries for persistent serving.
//
// Serve mode (libcache/serve.hpp) maps a stream of circuits against a
// handful of libraries; compiling a library per request would dominate
// every response.  The registry loads each (genlib path, options) pair
// once — preferring the on-disk artifact sidecar `<path>.dmlc` when it
// is fresh, compiling (and optionally re-saving the sidecar) when it is
// missing or stale — and hands out `shared_ptr<const CompiledLibrary>`
// so an entry evicted mid-request stays alive until the request drops
// it.  Freshness is re-checked against the *current* genlib bytes on
// every lookup: editing a genlib between requests invalidates both the
// sidecar and the in-memory entry, no restart needed.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "libcache/compiled_library.hpp"

namespace dagmap {

/// Registry observability counters (monotonic, summed over lookups).
struct RegistryStats {
  std::uint64_t hits = 0;             ///< fresh in-memory entry reused
  std::uint64_t misses = 0;           ///< lookup had to load or compile
  std::uint64_t stale_entries = 0;    ///< in-memory entry dropped as stale
  std::uint64_t evictions = 0;        ///< dropped by the LRU capacity bound
  std::uint64_t artifact_loads = 0;   ///< sidecar accepted
  std::uint64_t artifact_rejects = 0; ///< sidecar present but unusable/stale
  std::uint64_t compiles = 0;         ///< compiled from genlib text
  std::uint64_t saves = 0;            ///< sidecar (re)written
};

class LibraryRegistry {
 public:
  struct Options {
    /// Maximum resident compiled libraries; least-recently-used entries
    /// beyond this are dropped (outstanding shared_ptrs keep them valid).
    std::size_t capacity = 4;
    /// Write/refresh the `<genlib>.dmlc` sidecar after compiling.
    bool auto_save = true;
  };

  LibraryRegistry();  ///< default Options
  explicit LibraryRegistry(Options options) : options_(options) {}

  struct Result {
    std::shared_ptr<const CompiledLibrary> lib;  ///< null on failure
    std::string error;
    /// Where the bundle came from: "memory", "artifact" or "compiled".
    std::string source;
    bool ok() const { return lib != nullptr; }
  };

  /// Looks up (genlib path, key options), loading or compiling on miss.
  /// Serialized on an internal mutex — concurrent callers are safe and a
  /// library is never compiled twice for one generation of its source.
  Result get(const std::string& genlib_path, const LibCompileOptions& options);

  /// The sidecar path lookups read and auto_save writes.
  static std::string artifact_path(const std::string& genlib_path) {
    return genlib_path + ".dmlc";
  }

  RegistryStats stats() const;
  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const CompiledLibrary> lib;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  Options options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  RegistryStats stats_;
};

}  // namespace dagmap
