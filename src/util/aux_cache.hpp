// Type-erased cache for derived structures attached to a host object.
//
// A built Graph's adjacency never changes, so structures derived from it
// (the edge partition plan) can be computed once and reused across embed()
// calls. The host owns one AuxCache; derived modules stash their artifacts
// under a module-chosen 64-bit key without the host ever naming their
// types -- which keeps low-level containers (graph/) free of dependencies
// on the subsystems built on top of them.
//
// Validity contract: an artifact is valid exactly as long as the data it
// was derived from, so a host must not mutate that data while its cache
// lives. Graph meets this by being immutable once built; its copies share
// both the adjacency and the cache.
//
// Concurrency: find/insert are mutex-guarded; insert is first-writer-wins so
// two threads racing to build the same artifact converge on one copy.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>

namespace gee::util {

class AuxCache {
 public:
  using Key = std::uint64_t;

  /// The cached value for `key`, or nullptr.
  [[nodiscard]] std::shared_ptr<void> find(Key key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
  }

  /// Store `value` under `key` unless already present; returns the winning
  /// entry (the existing one on a lost race). Capped at max_entries():
  /// cached artifacts can rival the host object in size (a partition plan
  /// is ~a transposed CSR), so an unbounded map would leak a graph-copy
  /// per distinct key on a long-lived host. Beyond the cap the lowest-key
  /// entry is evicted; holders of its shared_ptr keep it alive.
  std::shared_ptr<void> insert(Key key, std::shared_ptr<void> value) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.emplace(key, std::move(value));
    if (inserted && entries_.size() > max_entries()) {
      entries_.erase(entries_.begin() == it ? std::next(entries_.begin())
                                            : entries_.begin());
    }
    return it->second;
  }

  [[nodiscard]] static constexpr std::size_t max_entries() { return 8; }

  /// Drop every cached artifact (testing / memory pressure).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<void>> entries_;
};

}  // namespace gee::util
