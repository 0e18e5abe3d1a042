#include "gee/preprocess.hpp"

#include <cmath>

#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"

namespace gee::core {

using graph::Csr;
using graph::EdgeId;
using graph::VertexId;
using graph::Weight;

std::vector<Real> weighted_degrees(const graph::EdgeList& edges,
                                   bool diag_augment) {
  std::vector<Real> d(edges.num_vertices(), diag_augment ? Real{2} : Real{0});
  const EdgeId m = edges.num_edges();
  gee::par::parallel_for(EdgeId{0}, m, [&](EdgeId e) {
    const auto w = static_cast<Real>(edges.weight(e));
    gee::par::write_add(d[edges.src(e)], w);
    gee::par::write_add(d[edges.dst(e)], w);
  });
  return d;
}

std::vector<Real> weighted_degrees(const graph::Graph& g, bool diag_augment) {
  const VertexId n = g.num_vertices();
  std::vector<Real> d(n, diag_augment ? Real{2} : Real{0});
  auto add_row_sums = [&](const Csr& csr) {
    gee::par::parallel_for_dynamic(VertexId{0}, n, [&](VertexId u) {
      const auto weights = csr.edge_weights(u);
      Real sum = 0;
      if (weights.empty()) {
        sum = static_cast<Real>(csr.degree(u));
      } else {
        for (const Weight w : weights) sum += static_cast<Real>(w);
      }
      d[u] += sum;  // rows are owned: no atomics needed
    });
  };
  add_row_sums(g.out());
  if (g.directed()) {
    if (g.has_in()) {
      add_row_sums(g.in());
    } else {
      // No transpose available: scatter over targets with atomics.
      const auto targets = g.out().targets();
      gee::par::parallel_for(EdgeId{0}, g.num_arcs(), [&](EdgeId e) {
        gee::par::write_add(d[targets[e]],
                            static_cast<Real>(g.out().weight_at(e)));
      });
    }
  }
  return d;
}

std::vector<Real> fold_laplacian_scales(std::span<Real> d,
                                        std::span<const Real> vertex_weight) {
  std::vector<Real> pass_weight(d.size());
  gee::par::parallel_for(std::size_t{0}, d.size(), [&](std::size_t v) {
    const Real s = d[v] == 0 ? Real{0} : Real{1} / std::sqrt(d[v]);
    d[v] = s;
    pass_weight[v] = vertex_weight[v] * s;
  });
  return pass_weight;
}

namespace {

Csr reweight_csr(const Csr& csr, std::span<const Real> degrees) {
  const VertexId n = csr.num_vertices();
  std::vector<graph::EdgeId> offsets(csr.offsets().begin(),
                                     csr.offsets().end());
  std::vector<VertexId> targets(csr.targets().begin(), csr.targets().end());
  std::vector<Weight> weights(csr.num_edges());
  gee::par::parallel_for_dynamic(VertexId{0}, n, [&](VertexId u) {
    const Real su = std::sqrt(degrees[u]);
    const auto off = csr.offsets()[u];
    const auto row = csr.neighbors(u);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const Real w = static_cast<Real>(csr.weight_at(off + j));
      weights[off + j] =
          static_cast<Weight>(w / (su * std::sqrt(degrees[row[j]])));
    }
  });
  return Csr(std::move(offsets), std::move(targets), std::move(weights));
}

}  // namespace

graph::Graph reweight_laplacian(const graph::Graph& g,
                                std::span<const Real> degrees) {
  if (!g.directed()) {
    return graph::Graph::from_symmetric_csr(reweight_csr(g.out(), degrees));
  }
  Csr out = reweight_csr(g.out(), degrees);
  Csr in = g.has_in() ? reweight_csr(g.in(), degrees) : Csr{};
  return graph::Graph::from_directed_csr(std::move(out), std::move(in));
}

}  // namespace gee::core
