#include "gee/projection.hpp"

#include <stdexcept>

#include "parallel/histogram.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"

namespace gee::core {

Projection build_projection(std::span<const std::int32_t> labels,
                            int num_classes) {
  const std::int32_t max_label = gee::par::reduce_max<std::int32_t>(
      labels.size(), -1, [&](std::size_t i) { return labels[i]; });
  const std::int32_t min_label = gee::par::reduce_min<std::int32_t>(
      labels.size(), 0, [&](std::size_t i) { return labels[i]; });
  if (min_label < -1) {
    throw std::invalid_argument("build_projection: label below -1");
  }
  if (num_classes == 0) {
    num_classes = max_label + 1;
  } else if (max_label >= num_classes) {
    throw std::invalid_argument("build_projection: label >= num_classes");
  }

  Projection p;
  p.num_classes = num_classes;
  // Histogram over shifted labels (bucket 0 = unlabeled) -- one parallel
  // pass, deterministic.
  const auto counts = gee::par::histogram(
      labels.size(), static_cast<std::size_t>(num_classes) + 1,
      [&](std::size_t i) { return static_cast<std::size_t>(labels[i] + 1); });
  p.class_counts.assign(counts.begin() + 1, counts.end());

  p.vertex_weight.resize(labels.size());
  gee::par::parallel_for(std::size_t{0}, labels.size(), [&](std::size_t v) {
    const std::int32_t y = labels[v];
    p.vertex_weight[v] =
        (y >= 0 && p.class_counts[static_cast<std::size_t>(y)] > 0)
            ? Real{1} / static_cast<Real>(
                            p.class_counts[static_cast<std::size_t>(y)])
            : Real{0};
  });
  return p;
}

gee::util::UninitBuffer<Real> build_dense_w(
    const Projection& projection, std::span<const std::int32_t> labels) {
  const std::size_t n = labels.size();
  const auto k = static_cast<std::size_t>(projection.num_classes);
  auto w = gee::util::UninitBuffer<Real>::zeroed(n * k);
  gee::par::parallel_for(std::size_t{0}, n, [&](std::size_t v) {
    const std::int32_t y = labels[v];
    if (y >= 0) w[v * k + static_cast<std::size_t>(y)] = projection.vertex_weight[v];
  });
  return w;
}

}  // namespace gee::core
