#include "graph/csr.hpp"

#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/transform.hpp"

namespace gee::graph {

Csr::Csr(std::vector<EdgeId> offsets, std::vector<VertexId> targets,
         std::vector<Weight> weights)
    : offsets_(std::move(offsets)),
      targets_(std::move(targets)),
      weights_(std::move(weights)) {
  if (offsets_.empty() || offsets_.front() != 0 ||
      offsets_.back() != targets_.size() ||
      (!weights_.empty() && weights_.size() != targets_.size())) {
    throw std::invalid_argument("Csr: inconsistent arrays");
  }
}

Graph Graph::build(const EdgeList& edges, GraphKind kind, BuildOptions options,
                   VertexId n) {
  if (n == 0) n = edges.num_vertices();
  Graph g;
  switch (kind) {
    case GraphKind::kUndirected: {
      const EdgeList sym = symmetrize(edges);
      g.out_ = std::make_shared<Csr>(build_csr(sym, n, options));
      g.in_ = g.out_;
      g.directed_ = false;
      break;
    }
    case GraphKind::kSymmetrized: {
      g.out_ = std::make_shared<Csr>(build_csr(edges, n, options));
      g.in_ = g.out_;
      g.directed_ = false;
      break;
    }
    case GraphKind::kDirected: {
      g.out_ = std::make_shared<Csr>(build_csr(edges, n, options));
      if (options.build_in_csr) {
        g.in_ = std::make_shared<Csr>(transpose(*g.out_));
      }
      g.directed_ = true;
      break;
    }
  }
  return g;
}

Graph Graph::from_symmetric_csr(Csr csr) {
  Graph g;
  g.out_ = std::make_shared<Csr>(std::move(csr));
  g.in_ = g.out_;
  g.directed_ = false;
  return g;
}

Graph Graph::from_directed_csr(Csr out, Csr in) {
  Graph g;
  g.out_ = std::make_shared<Csr>(std::move(out));
  if (in.num_vertices() != 0) {
    g.in_ = std::make_shared<Csr>(std::move(in));
  }
  g.directed_ = true;
  return g;
}

}  // namespace gee::graph
