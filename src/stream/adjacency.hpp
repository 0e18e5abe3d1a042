// DynamicAdjacency: a per-vertex indexable mirror of DynamicGee's live
// edge multiset.
//
// The live multiset (pair key -> merged weight/count) answers "what is
// edge (u,v) now?" but not "what are v's incident edges?" -- the question
// the k-hop strategy's row recompute asks for every subset member. This
// structure maintains, per vertex, a neighbor-id-sorted vector of
// (neighbor, merged double weight, multiplicity) entries, updated in
// O(log d + d) per coalesced delta (binary search + possible insert), and
// erased exactly when the multiset erases (count hits zero).
//
// Exactness contract: an entry's `weight` accumulates the same doubles in
// the same order as the live multiset's entry, so iterating v's entries
// ascending and casting each merged weight through Weight (float) replays
// precisely the contributions a full rebuild() feeds row v -- including
// their order. That makes subset recomputes bitwise equal to rebuild rows
// (gee/subset.hpp; DESIGN.md section 10).
//
// Writer-thread-only, like the multiset it mirrors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gee/options.hpp"
#include "graph/types.hpp"

namespace gee::stream {

class DynamicAdjacency {
 public:
  struct Entry {
    graph::VertexId neighbor = 0;
    double weight = 0;         ///< merged, accumulated in multiset order
    std::int64_t count = 0;    ///< multiplicity of the pair
  };

  DynamicAdjacency() = default;
  explicit DynamicAdjacency(graph::VertexId n) : lists_(n) {}

  [[nodiscard]] graph::VertexId num_vertices() const noexcept {
    return static_cast<graph::VertexId>(lists_.size());
  }

  /// Fold one coalesced delta (canonical u <= v) into both endpoint lists.
  /// Caller has already validated removals against the live multiset.
  void apply(graph::VertexId u, graph::VertexId v, double weight_delta,
             std::int64_t count_delta);

  /// v's live neighbor entries, ascending by neighbor id. A self-loop
  /// appears once here (see for_each_incident for edge-pass semantics).
  [[nodiscard]] std::span<const Entry> neighbors(graph::VertexId v) const {
    return lists_[v];
  }

  /// Incident arc count of v as the edge pass sees it: one per distinct
  /// neighbor pair, self-loops counted twice.
  [[nodiscard]] graph::EdgeId degree(graph::VertexId v) const;

  /// Replay v's incident edges in rebuild order: ascending neighbor id,
  /// merged weight cast through Weight (float), self-loops emitted twice
  /// in place. fn(graph::VertexId neighbor, core::Real weight).
  template <class Fn>
  void for_each_incident(graph::VertexId v, Fn&& fn) const {
    for (const Entry& e : lists_[v]) {
      const auto w = static_cast<core::Real>(static_cast<graph::Weight>(
          e.weight));
      fn(e.neighbor, w);
      if (e.neighbor == v) fn(e.neighbor, w);  // both endpoints contribute
    }
  }

 private:
  std::vector<std::vector<Entry>> lists_;
};

}  // namespace gee::stream
