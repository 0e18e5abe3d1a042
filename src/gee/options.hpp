// Public option types for One-Hot Graph Encoder Embedding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>

namespace gee::core {

/// Accumulation precision for the embedding matrix Z and projection W.
using Real = double;

/// Which implementation executes the edge pass. The first four reproduce
/// the paper's Table I columns; the rest are ablations/extensions.
enum class Backend : std::uint8_t {
  /// Boxed-value bytecode interpreter (stand-in for the Python reference;
  /// see DESIGN.md section 3 on this substitution).
  kInterpreted,
  /// Tight -O3 serial loop (stand-in for the Numba JIT version).
  kCompiledSerial,
  /// The engine code path of kLigraParallel pinned to one thread
  /// (the paper's "GEE-Ligra Serial" column).
  kLigraSerial,
  /// Ligra-style edgeMap with lock-free atomic writeAdd -- the paper's
  /// contribution (Algorithm 2). Undirected graphs push from the labelled
  /// vertices only; directed graphs walk every row (DESIGN.md section 2).
  kLigraParallel,
  /// kLigraParallel with atomics replaced by racy load/add/store; the
  /// paper's "atomics off" experiment (section IV). Results may drop
  /// updates -- benchmarking only.
  kParallelUnsafe,
  /// Race-free two-sided pull: pass over out-CSR updates source rows, pass
  /// over in-CSR updates destination rows; no atomics, deterministic.
  /// (Extension; not in the paper.)
  kParallelPull,
  /// Plain OpenMP parallel-for over the raw edge array with atomics; no
  /// graph engine. Baseline for the engine-ablation bench (A3).
  kFlatParallel,
  /// Edge-partition execution (src/partition/): updates bucketed into P
  /// destination-range blocks, each worker exclusively owning its rows of
  /// Z. Zero atomics; bitwise equal to kCompiledSerial for any block count
  /// (stable bucketing preserves per-cell accumulation order -- DESIGN.md
  /// section 5). The plan is cached on the Graph across embed() calls.
  kPartitioned,
};

/// Every Backend value, in declaration order (CLI parsers and backend
/// sweeps iterate this instead of hand-maintaining their own lists).
inline constexpr Backend kAllBackends[] = {
    Backend::kInterpreted,    Backend::kCompiledSerial,
    Backend::kLigraSerial,    Backend::kLigraParallel,
    Backend::kParallelUnsafe, Backend::kParallelPull,
    Backend::kFlatParallel,   Backend::kPartitioned,
};
// When adding a Backend: append it to kAllBackends AND update the last
// enumerator named here; the assert catches insertions that shift values.
static_assert(static_cast<std::size_t>(Backend::kPartitioned) + 1 ==
                  std::size(kAllBackends),
              "kAllBackends is out of sync with the Backend enum");

[[nodiscard]] std::string to_string(Backend backend);

/// Parse a backend name as printed by to_string(Backend); nullopt for
/// unknown names. Round-trips every Backend value --
/// parse_backend(to_string(b)) == b (enforced by util_misc_test).
[[nodiscard]] std::optional<Backend> parse_backend(const std::string& name);

/// All backend names, comma-joined, for --help text.
[[nodiscard]] std::string backend_choices();

/// How DynamicGee (src/stream/) folds a coalesced update batch into Z
/// (Options::stream_update_strategy). The delta strategy touches each
/// changed cell once per net delta; the k-hop strategy instead *recomputes*
/// the changed endpoints' rows from the exact live adjacency --
/// rebuild-grade rows, which erases removal drift and wins when a batch
/// concentrates many updates on few vertices (DESIGN.md section 10).
enum class UpdateStrategy : std::uint8_t {
  /// Threshold-gated delta application: the serial loop below
  /// Options::stream_parallel_threshold, owned-row partitioned above.
  /// The default.
  kDelta,
  /// Endpoint re-embedding: recompute exactly the rows of the net-changed
  /// pairs' endpoints. W is indexed by labels alone, so an edge update
  /// changes no other row; the recomputed rows come out bitwise equal to
  /// a full rebuild's.
  kKHop,
  /// kKHop when the batch's distinct endpoints stay within
  /// stream_khop_auto_ratio of n, kDelta otherwise.
  kAuto,
};

/// Every UpdateStrategy value, in declaration order (CLI parsers sweep
/// this instead of hand-maintaining their own lists).
inline constexpr UpdateStrategy kAllUpdateStrategies[] = {
    UpdateStrategy::kDelta,
    UpdateStrategy::kKHop,
    UpdateStrategy::kAuto,
};
static_assert(static_cast<std::size_t>(UpdateStrategy::kAuto) + 1 ==
                  std::size(kAllUpdateStrategies),
              "kAllUpdateStrategies is out of sync with the enum");

[[nodiscard]] std::string to_string(UpdateStrategy strategy);

/// Parse an update-strategy name as printed by to_string(UpdateStrategy);
/// nullopt for unknown names. Round-trips every value (enforced by
/// util_misc_test).
[[nodiscard]] std::optional<UpdateStrategy> parse_update_strategy(
    const std::string& name);

/// All update-strategy names, comma-joined, for --help text.
[[nodiscard]] std::string update_strategy_choices();

struct Options {
  Backend backend = Backend::kLigraParallel;

  /// Number of classes K. 0 = deduce as 1 + max(label). Labels must lie in
  /// {-1} U [0, K).
  int num_classes = 0;

  /// Normalized-Laplacian preprocessing from the GEE reference code:
  /// the pass runs over D^-1/2 A D^-1/2, each edge weight becoming
  /// w / sqrt(d(u) * d(v)) with d the weighted degree (both endpoints of
  /// every edge contribute; self-loops count twice, matching the
  /// reference's accumarray over both columns). Applied as two diagonal
  /// scalings in double (preprocess.hpp): s = d^-1/2 folds into the
  /// projection the pass reads and into a final row scale, so the graph is
  /// never copied or reweighted.
  bool laplacian = false;

  /// Diagonal augmentation (reference code's DiagA): a unit self-loop per
  /// vertex. Applied algebraically -- the row pass after the edge pass adds
  /// the loop's 2 * W(v) to Z(v, Y(v)), or 2 * W(v) / d(v) under the
  /// Laplacian -- so no graph rebuild is needed.
  bool diag_augment = false;

  /// L2-normalize each nonzero embedding row afterwards (reference code's
  /// "Correlation" option).
  bool correlation = false;

  /// Thread count for parallel backends; 0 = current OpenMP setting.
  /// Serial backends ignore this.
  int num_threads = 0;

  /// Block count P for Backend::kPartitioned; 0 = one block per thread.
  /// The embedding is identical for every P (see Backend::kPartitioned);
  /// P only shapes load balance and the per-block working set.
  int partition_blocks = 0;

  /// Streaming (src/stream/ DynamicGee): a batch with at least this many
  /// coalesced updates is bucketed through the edge partitioner and applied
  /// in parallel with owned rows (zero atomics); smaller batches take the
  /// serial delta loop, whose O(b*K) plain adds beat the partition sort
  /// below the crossover. Measure with bench_stream; <= 0 forces the
  /// partitioned path for every batch, INT64_MAX the serial loop.
  std::int64_t stream_parallel_threshold = 8192;

  /// Streaming: rebuild Z from the live edge set once removals since the
  /// last rebuild exceed this fraction of the live edge count. Removals
  /// leave ~1 ulp of floating-point residue per operation (DynamicGee's
  /// delta path); the rebuild bounds accumulated drift. <= 0 disables
  /// drift rebuilds.
  double stream_rebuild_drift = 0.5;

  /// Streaming: how apply() folds a batch into Z (see UpdateStrategy).
  /// kKHop/kAuto maintain an exact per-vertex adjacency mirror beside the
  /// live multiset; kDelta keeps the zero-extra-memory behavior.
  UpdateStrategy stream_update_strategy = UpdateStrategy::kDelta;

  /// kAuto guard: take the k-hop path only while the batch's distinct
  /// endpoints number at most this fraction of all vertices; otherwise
  /// fall back to delta application. <= 0 makes kAuto behave as kDelta.
  double stream_khop_auto_ratio = 0.01;

  /// Serving (src/serve/ QueryEngine): refresh the engine's pinned epoch
  /// snapshot when it lags the writer's published epoch by MORE than this
  /// many batches; within the bound, queries reuse the pin and never touch
  /// the publication lock. 0 = always serve the freshest epoch; < 0 =
  /// never refresh (serve the construction-time pin forever).
  std::int64_t serve_max_staleness = 0;
};

/// Wall-clock breakdown of an embed() call (seconds).
struct Timings {
  double projection = 0;   ///< W construction (Algorithm 2 lines 2-6);
                           ///< under the Laplacian also d, s and W' = W s
  double z_init = 0;       ///< allocating the zeroed n x K matrix Z
  double edge_pass = 0;    ///< the O(s) loop / edgeMap (lines 7 / line 7)
  double postprocess = 0;  ///< the row pass: diag augmentation, then row
                           ///< normalization or the Laplacian row scale
  double graph_build = 0;  ///< derived-structure construction: the CSR when
                           ///< embed_edges() needs one, the partition plan
                           ///< for kPartitioned (0 on an AuxCache hit)
  double total = 0;
};

}  // namespace gee::core
