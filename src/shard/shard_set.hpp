// ShardSet: N QueryEngine replicas over per-shard DynamicGee instances --
// the data plane of the sharded serving tier (DESIGN.md section 11).
//
// Two placement modes:
//
//  * kOwned -- each shard holds the sub-stream of edges incident to its
//    ShardMap range. Z's row v is a sum over v's incident edges only, and
//    filtering the edge sequence to "touches shard s" preserves the
//    relative order of every edge incident to an owned vertex, so OWNED
//    rows of a shard's embedding are bitwise equal to the unsharded
//    engine's (same additions, same order). Rows outside the range see
//    only a partial edge stream and are never served; the Router enforces
//    that by construction. Cross-shard edges are duplicated into both
//    endpoint shards, so per-shard edge mass tracks the degree-weighted
//    boundaries rather than a cut metric.
//  * kReplicated -- every shard holds the full graph. Any replica answers
//    any request (lookups included) bitwise-identically, so the router
//    spreads ALL traffic round-robin and full-range scans need no merge:
//    memory traded for routing freedom.
//
// In both modes the full label vector (and therefore W) is shared: the
// projection depends on global class counts, so every shard synthesizes
// out-of-sample rows bitwise-identically to the unsharded engine.
//
// Threading contract: ONE writer thread calls apply();
// any number of reader threads use the engines concurrently (each engine
// inherits its DynamicGee's reader guarantees). Per-shard epochs advance
// independently -- a shard only publishes when a batch actually touches
// it -- so reply epochs are per-shard coordinates, not global ones.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gee/options.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "serve/query_engine.hpp"
#include "shard/shard_map.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"

namespace gee::shard {

enum class ShardMode : std::uint8_t {
  kOwned,       ///< contiguous degree-weighted vertex ranges (default)
  kReplicated,  ///< every shard holds the full graph
};

[[nodiscard]] std::string to_string(ShardMode mode);

class ShardSet {
 public:
  /// Build `num_shards` replicas over `base` (mode-dependent edge
  /// placement; see the file comment). `options` is forwarded to every
  /// DynamicGee and QueryEngine -- shard-local query fan-out usually wants
  /// options.num_threads = 1 so parallelism comes from concurrent
  /// requests, not intra-request threads.
  ShardSet(const graph::EdgeList& base, std::span<const std::int32_t> labels,
           int num_shards, ShardMode mode = ShardMode::kOwned,
           core::Options options = {});

  [[nodiscard]] int num_shards() const noexcept { return map_.num_shards(); }
  [[nodiscard]] ShardMode mode() const noexcept { return mode_; }
  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }
  [[nodiscard]] graph::VertexId num_vertices() const noexcept {
    return map_.num_vertices();
  }
  [[nodiscard]] int num_classes() const noexcept {
    return engines_.front()->num_classes();
  }

  [[nodiscard]] const serve::QueryEngine& engine(int s) const noexcept {
    return *engines_[static_cast<std::size_t>(s)];
  }
  /// Writer-side access (single-writer methods like stats()).
  [[nodiscard]] stream::DynamicGee& gee(int s) noexcept {
    return *gees_[static_cast<std::size_t>(s)];
  }

  /// What one apply() routed where, for metering.
  struct ApplyReport {
    std::uint64_t raw_ops = 0;       ///< batch entries before routing
    std::uint64_t routed_ops = 0;    ///< per-shard entries after fan-out
    std::uint64_t shards_touched = 0;
  };

  /// Route one batch to the owning shards (kOwned: each op lands in its
  /// endpoints' shards, once when both agree; kReplicated: every shard)
  /// and apply the sub-batches in shard order. Arrival order is preserved
  /// within every sub-batch, so owned rows stay bitwise equal to an
  /// unsharded engine applying the same batch. Endpoint bounds are
  /// validated before any shard mutates; removal coverage is per-shard
  /// state, so a removal the live multiset cannot cover throws from its
  /// owning shard and leaves earlier shards applied (no cross-shard
  /// atomicity -- validate removals upstream, as the stream layer does).
  ApplyReport apply(const stream::UpdateBatch& batch);

 private:
  ShardMap map_;
  ShardMode mode_;
  std::vector<std::unique_ptr<stream::DynamicGee>> gees_;
  std::vector<std::unique_ptr<serve::QueryEngine>> engines_;
};

}  // namespace gee::shard
