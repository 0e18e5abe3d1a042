// Stable parallel bucketing: the one counting sort in the project.
//
// The CSR build (graph::build_csr), the transpose and every partition plan
// builder group items by a small-integer key -- a source vertex, a target
// vertex, an owning block -- and all of them need the result independent
// of the thread count. stable_bucket does that with per-chunk histograms
// and an exclusive scan: no atomics, and entries with equal keys keep
// their input order (see DESIGN.md section 5).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"

namespace gee::par {

/// Stable counting sort of the entries of `num_items` items into
/// `num_buckets` buckets.
///
/// `emit(lo, hi, sink)` must call `sink(bucket, item...)` for every entry
/// of items [lo, hi), in order; an item may emit any number of entries and
/// must emit the same ones each time it is asked. `place(slot, item...)`
/// stores one entry at output position `slot`. Returns the num_buckets + 1
/// bucket offsets: bucket b's entries occupy [offsets[b], offsets[b+1]).
///
/// Entries land ordered by (bucket, item order, emit order), so the output
/// does not depend on the chunk or thread count. Each chunk of items is
/// emitted twice, once to count and once to place. Chunks number
/// clamp(num_items / (4 * num_buckets), 1, threads), so the per-chunk
/// counter matrix never holds more than one 8-byte counter per four items.
template <class Emit, class Place>
std::vector<std::uint64_t> stable_bucket(std::size_t num_items,
                                         std::size_t num_buckets, Emit&& emit,
                                         Place&& place) {
  const std::size_t num_chunks = std::clamp<std::size_t>(
      num_items / (4 * std::max<std::size_t>(num_buckets, 1)), 1,
      static_cast<std::size_t>(num_threads()));
  // The counter matrix, row c for chunk c, is one allocation by the calling
  // thread so that freeing it returns it to the system: rows allocated by
  // the workers would stay resident in their malloc arenas (24 MiB after an
  // embed-dense build).
  const auto cursor = std::make_unique_for_overwrite<std::uint64_t[]>(
      num_chunks * num_buckets);

  // Count pass: per-chunk histogram over buckets.
  parallel_team([&](int tid, int team) {
    for (auto c = static_cast<std::size_t>(tid); c < num_chunks;
         c += static_cast<std::size_t>(team)) {
      std::uint64_t* const mine = cursor.get() + c * num_buckets;
      std::fill_n(mine, num_buckets, 0);
      const auto [lo, hi] = block_range(num_items, num_chunks, c);
      emit(lo, hi, [&](std::size_t bucket, auto&&...) { ++mine[bucket]; });
    }
  });

  // Bucket totals, scanned into offsets; then each bucket hands its chunks
  // consecutive write cursors in chunk order, which is what keeps equal
  // keys in input order.
  std::vector<std::uint64_t> offsets(num_buckets + 1);
  parallel_for(std::size_t{0}, num_buckets, [&](std::size_t b) {
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      total += cursor[c * num_buckets + b];
    }
    offsets[b] = total;
  });
  offsets[num_buckets] =
      scan_exclusive(offsets.data(), offsets.data(), num_buckets);
  parallel_for(std::size_t{0}, num_buckets, [&](std::size_t b) {
    std::uint64_t at = offsets[b];
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::uint64_t count = cursor[c * num_buckets + b];
      cursor[c * num_buckets + b] = at;
      at += count;
    }
  });

  // Scatter pass: re-emit and place each entry at its chunk's cursor.
  parallel_team([&](int tid, int team) {
    for (auto c = static_cast<std::size_t>(tid); c < num_chunks;
         c += static_cast<std::size_t>(team)) {
      std::uint64_t* const mine = cursor.get() + c * num_buckets;
      const auto [lo, hi] = block_range(num_items, num_chunks, c);
      emit(lo, hi, [&](std::size_t bucket, auto&&... item) {
        place(mine[bucket]++, item...);
      });
    }
  });
  return offsets;
}

}  // namespace gee::par
