#include "shard/shard_set.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace gee::shard {

std::string to_string(ShardMode mode) {
  switch (mode) {
    case ShardMode::kOwned:
      return "owned";
    case ShardMode::kReplicated:
      return "replicated";
  }
  return "unknown";
}

namespace {

/// Writer-side series, resolved once so each apply() is one relaxed add
/// per counter, not a registry lookup.
struct WriterMetrics {
  obs::Counter& batches = obs::counter("gee.shard.writer.batches");
  obs::Counter& routed_ops = obs::counter("gee.shard.writer.routed_ops");

  static WriterMetrics& get() {
    static WriterMetrics m;
    return m;
  }
};

/// The sub-stream of `base` a shard seeds from: every edge with at least
/// one endpoint in [lo, hi), in original order (order preservation is what
/// keeps owned rows bitwise equal to the unsharded embed).
graph::EdgeList incident_slice(const graph::EdgeList& base, graph::VertexId lo,
                               graph::VertexId hi) {
  graph::EdgeList out(base.num_vertices());
  for (std::size_t i = 0; i < base.num_edges(); ++i) {
    const auto u = base.src(i);
    const auto v = base.dst(i);
    if ((u >= lo && u < hi) || (v >= lo && v < hi)) {
      out.add(u, v, base.weight(i));
    }
  }
  return out;
}

}  // namespace

ShardSet::ShardSet(const graph::EdgeList& base,
                   std::span<const std::int32_t> labels, int num_shards,
                   ShardMode mode, core::Options options)
    : map_(mode == ShardMode::kOwned
               ? ShardMap::build(base, static_cast<graph::VertexId>(
                                           labels.size()),
                                 num_shards)
               : ShardMap::uniform(
                     static_cast<graph::VertexId>(labels.size()), num_shards)),
      mode_(mode) {
  if (labels.empty()) {
    throw std::invalid_argument("ShardSet: empty label vector");
  }
  const int shards = map_.num_shards();
  gees_.reserve(static_cast<std::size_t>(shards));
  engines_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    const auto [lo, hi] = map_.range(s);
    if (mode_ == ShardMode::kOwned) {
      gees_.push_back(std::make_unique<stream::DynamicGee>(
          incident_slice(base, lo, hi), labels, options));
    } else {
      gees_.push_back(
          std::make_unique<stream::DynamicGee>(base, labels, options));
    }
    engines_.push_back(
        std::make_unique<serve::QueryEngine>(*gees_.back(), options));
  }
  obs::gauge("gee.shard.count").set(static_cast<double>(shards));
}

ShardSet::ApplyReport ShardSet::apply(const stream::UpdateBatch& batch) {
  ApplyReport report;
  report.raw_ops = batch.size();
  if (batch.empty()) return report;
  // Endpoint bounds are checkable before any shard mutates; removal
  // coverage is not (each shard validates against its own live multiset),
  // so a bad removal throws from its shard and leaves earlier shards
  // applied -- see the header's partial-failure contract.
  batch.validate(num_vertices());

  const int shards = num_shards();
  std::vector<stream::UpdateBatch> sub(static_cast<std::size_t>(shards));
  auto route = [&](int s, const stream::UpdateBatch::Op& op) {
    auto& b = sub[static_cast<std::size_t>(s)];
    if (op.is_add) {
      b.add(op.u, op.v, op.weight);
    } else {
      b.remove(op.u, op.v, op.weight);
    }
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto op = batch.op(i);
    if (mode_ == ShardMode::kReplicated) {
      for (int s = 0; s < shards; ++s) route(s, op);
      continue;
    }
    const int su = map_.shard_of(op.u);
    const int sv = map_.shard_of(op.v);
    route(su, op);
    if (sv != su) route(sv, op);
  }

  for (int s = 0; s < shards; ++s) {
    const auto& b = sub[static_cast<std::size_t>(s)];
    if (b.empty()) continue;
    gees_[static_cast<std::size_t>(s)]->apply(b);
    report.routed_ops += b.size();
    ++report.shards_touched;
  }
  WriterMetrics& metrics = WriterMetrics::get();
  metrics.batches.add();
  metrics.routed_ops.add(static_cast<std::int64_t>(report.routed_ops));
  return report;
}

}  // namespace gee::shard
