#include "libcache/registry.hpp"

#include "libcache/binio.hpp"

namespace dagmap {

namespace {

/// Cache key: path bytes mixed with the generation-option key.  Distinct
/// option sets against one genlib coexist as distinct entries.
std::uint64_t registry_key(const std::string& path,
                           const LibCompileOptions& options) {
  return libcache::fnv1a64(path, options.hash());
}

}  // namespace

LibraryRegistry::LibraryRegistry() : LibraryRegistry(Options()) {}

LibraryRegistry::Result LibraryRegistry::get(const std::string& genlib_path,
                                             const LibCompileOptions& options) {
  Result result;
  std::optional<std::string> text = libcache::read_file(genlib_path);
  if (!text) {
    result.error = "cannot read library " + genlib_path;
    return result;
  }
  std::uint64_t expected = library_content_hash(*text, options);
  std::uint64_t key = registry_key(genlib_path, options);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.lib->source_hash == expected) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      result.lib = it->second.lib;
      result.source = "memory";
      return result;
    }
    // The genlib changed underneath a resident entry.
    ++stats_.stale_entries;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  ++stats_.misses;

  std::shared_ptr<const CompiledLibrary> lib;
  if (std::optional<std::string> artifact =
          libcache::read_file(artifact_path(genlib_path))) {
    LibraryLoadResult loaded = deserialize_compiled_library(*artifact);
    if (loaded.ok && loaded.lib.source_hash == expected) {
      ++stats_.artifact_loads;
      lib = std::make_shared<const CompiledLibrary>(std::move(loaded.lib));
      result.source = "artifact";
    } else {
      ++stats_.artifact_rejects;
    }
  }
  if (!lib) {
    try {
      CompiledLibrary compiled = compile_library(*text, options, genlib_path);
      ++stats_.compiles;
      if (options_.auto_save) {
        try {
          save_compiled_library_file(compiled, artifact_path(genlib_path));
          ++stats_.saves;
        } catch (const std::exception&) {
          // A read-only library directory is not an error; the next
          // process simply compiles again.
        }
      }
      lib = std::make_shared<const CompiledLibrary>(std::move(compiled));
      result.source = "compiled";
    } catch (const std::exception& e) {
      result.error = "cannot compile " + genlib_path + ": " + e.what();
      return result;
    }
  }

  lru_.push_front(key);
  entries_.emplace(key, Entry{lib, lru_.begin()});
  while (entries_.size() > options_.capacity && !lru_.empty()) {
    ++stats_.evictions;
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  result.lib = std::move(lib);
  return result;
}

RegistryStats LibraryRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t LibraryRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace dagmap
