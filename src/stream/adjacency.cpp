#include "stream/adjacency.hpp"

#include <algorithm>
#include <cassert>

namespace gee::stream {

namespace {

void fold(std::vector<DynamicAdjacency::Entry>* list, graph::VertexId neighbor,
          double weight_delta, std::int64_t count_delta) {
  auto it = std::lower_bound(
      list->begin(), list->end(), neighbor,
      [](const DynamicAdjacency::Entry& e, graph::VertexId v) {
        return e.neighbor < v;
      });
  if (it == list->end() || it->neighbor != neighbor) {
    assert(count_delta > 0 && "removal of an edge the adjacency never saw");
    it = list->insert(it, DynamicAdjacency::Entry{neighbor, 0, 0});
  }
  it->weight += weight_delta;
  it->count += count_delta;
  assert(it->count >= 0);
  // Mirror the multiset exactly: the entry dies when its multiplicity does
  // (any floating-point weight residue dies with it).
  if (it->count == 0) list->erase(it);
}

}  // namespace

void DynamicAdjacency::apply(graph::VertexId u, graph::VertexId v,
                             double weight_delta, std::int64_t count_delta) {
  assert(u <= v && v < num_vertices());
  fold(&lists_[u], v, weight_delta, count_delta);
  if (u != v) fold(&lists_[v], u, weight_delta, count_delta);
}

graph::EdgeId DynamicAdjacency::degree(graph::VertexId v) const {
  const auto& list = lists_[v];
  graph::EdgeId arcs = static_cast<graph::EdgeId>(list.size());
  // Self-loop entries sort to position lower_bound(v); count it twice.
  const auto it = std::lower_bound(
      list.begin(), list.end(), v,
      [](const Entry& e, graph::VertexId x) { return e.neighbor < x; });
  if (it != list.end() && it->neighbor == v) ++arcs;
  return arcs;
}

}  // namespace gee::stream
