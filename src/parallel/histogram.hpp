// Parallel histograms over small key spaces.
//
// Used for the partitioner's per-row entry counts and class counting in the
// GEE projection matrix (the paper's parallel O(nK) initialization).
// Per-thread local counts merged at the end: no atomics on the hot path,
// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace gee::par {

/// counts[key(i)] += 1 for i in [0,n); keys must lie in [0, nbuckets).
/// Returns the bucket counts. Keys outside the range are undefined behaviour
/// (callers validate inputs first -- see graph::validate).
template <class Key>
std::vector<std::uint64_t> histogram(std::size_t n, std::size_t nbuckets,
                                     Key&& key) {
  std::vector<std::uint64_t> counts(nbuckets, 0);
  if (n == 0) return counts;
  const int nthreads = num_threads();
  if (n < (std::size_t{1} << 14) || nthreads == 1 || in_parallel()) {
    for (std::size_t i = 0; i < n; ++i) counts[key(i)]++;
    return counts;
  }
  std::vector<std::vector<std::uint64_t>> local(
      static_cast<std::size_t>(nthreads));
  parallel_team([&](int tid, int team) {
    auto& mine = local[static_cast<std::size_t>(tid)];
    mine.assign(nbuckets, 0);
    const auto [lo, hi] = block_range(n, static_cast<std::size_t>(team),
                                      static_cast<std::size_t>(tid));
    for (std::size_t i = lo; i < hi; ++i) mine[key(i)]++;
  });
  // Merge: parallel over buckets (outer loop small, so simple serial-over-
  // threads inner accumulation is fine).
  parallel_for(std::size_t{0}, nbuckets, [&](std::size_t b) {
    std::uint64_t acc = 0;
    for (const auto& mine : local) {
      if (!mine.empty()) acc += mine[b];
    }
    counts[b] = acc;
  });
  return counts;
}

}  // namespace gee::par
