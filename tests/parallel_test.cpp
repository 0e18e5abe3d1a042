// Tests for the parallel primitives: parallel_for, reductions, scans, pack,
// histograms, stable bucketing, and the lock-free atomic operations. Parallel results
// are always checked against serial oracles, and key invariants (stability,
// determinism across thread counts) are exercised with TEST_P sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/histogram.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "util/rng.hpp"

namespace {

using gee::par::ThreadScope;
using gee::util::Xoshiro256;

// ------------------------------------------------------------- parallel_for

TEST(ParallelFor, VisitsEveryIndexOnce) {
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> visits(kN);
  gee::par::parallel_for(std::size_t{0}, kN,
                         [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  gee::par::parallel_for(5, 5, [&](int) { ++calls; });
  gee::par::parallel_for(7, 3, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  // Below the grain size the loop must run on the calling thread, in order.
  std::vector<int> order;
  gee::par::parallel_for(0, 100, [&](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ParallelForDynamic, VisitsEveryIndexOnce) {
  constexpr std::size_t kN = 50000;
  std::vector<std::atomic<int>> visits(kN);
  gee::par::parallel_for_dynamic(std::size_t{0}, kN,
                                 [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(visits[i].load(), 1);
}

TEST(ParallelTeam, CoversThreadIds) {
  std::vector<int> seen(static_cast<std::size_t>(gee::par::num_threads()), 0);
  gee::par::parallel_team([&](int tid, int team) {
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, team);
    seen[static_cast<std::size_t>(tid)] = 1;
  });
  EXPECT_EQ(seen[0], 1);  // at minimum thread 0 ran
}

TEST(ThreadScope, RestoresThreadCount) {
  const int before = gee::par::num_threads();
  {
    ThreadScope scope(1);
    EXPECT_EQ(gee::par::num_threads(), 1);
  }
  EXPECT_EQ(gee::par::num_threads(), before);
}

TEST(BlockRange, PartitionIsExactAndBalanced) {
  for (std::size_t n : {0u, 1u, 7u, 100u, 1001u}) {
    for (std::size_t blocks : {1u, 2u, 3u, 8u, 24u}) {
      std::size_t covered = 0;
      std::size_t prev_hi = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        const auto [lo, hi] = gee::par::block_range(n, blocks, b);
        ASSERT_EQ(lo, prev_hi);
        ASSERT_LE(hi - lo, n / blocks + 1);
        covered += hi - lo;
        prev_hi = hi;
      }
      ASSERT_EQ(covered, n);
      ASSERT_EQ(prev_hi, n);
    }
  }
}

TEST(FillZero, ZeroesEverything) {
  std::vector<double> v(200000, 3.5);
  gee::par::fill_zero(v.data(), v.size());
  for (double x : v) ASSERT_EQ(x, 0.0);
}

TEST(Fill, SetsValue) {
  std::vector<std::uint32_t> v(100000, 0);
  gee::par::fill(v.data(), v.size(), std::uint32_t{7});
  for (auto x : v) ASSERT_EQ(x, 7u);
}

// ------------------------------------------------------------------ atomics

TEST(Atomics, WriteAddIntegerUnderContention) {
  std::int64_t total = 0;
  constexpr std::size_t kN = 1 << 20;
  gee::par::parallel_for(std::size_t{0}, kN, [&](std::size_t) {
    gee::par::write_add(total, std::int64_t{1});
  }, /*grain=*/1024);
  EXPECT_EQ(total, static_cast<std::int64_t>(kN));
}

TEST(Atomics, WriteAddDoubleUnderContention) {
  double total = 0;
  constexpr std::size_t kN = 1 << 20;
  gee::par::parallel_for(std::size_t{0}, kN, [&](std::size_t) {
    gee::par::write_add(total, 1.0);
  }, /*grain=*/1024);
  // All increments are exactly representable: equality must hold.
  EXPECT_EQ(total, static_cast<double>(kN));
}

TEST(Atomics, WriteAddFloatNegativeDeltas) {
  float x = 100.0f;
  gee::par::write_add(x, -30.0f);
  EXPECT_EQ(x, 70.0f);
}

TEST(Atomics, WriteMinLowersMonotonically) {
  std::uint32_t x = 1000;
  EXPECT_TRUE(gee::par::write_min(x, 10u));
  EXPECT_EQ(x, 10u);
  EXPECT_FALSE(gee::par::write_min(x, 500u));
  EXPECT_EQ(x, 10u);
  EXPECT_FALSE(gee::par::write_min(x, 10u));
}

TEST(Atomics, WriteMinParallelFindsGlobalMin) {
  std::uint64_t best = UINT64_MAX;
  constexpr std::size_t kN = 1 << 18;
  gee::par::parallel_for(std::size_t{0}, kN, [&](std::size_t i) {
    // hash to scramble order; min over i of hash(i)
    gee::par::write_min(best, gee::util::hash_combine(99, i));
  }, 1024);
  std::uint64_t expected = UINT64_MAX;
  for (std::size_t i = 0; i < kN; ++i)
    expected = std::min(expected, gee::util::hash_combine(99, i));
  EXPECT_EQ(best, expected);
}

TEST(Atomics, WriteMaxRaises) {
  int x = 5;
  EXPECT_TRUE(gee::par::write_max(x, 9));
  EXPECT_FALSE(gee::par::write_max(x, 2));
  EXPECT_EQ(x, 9);
}

TEST(Atomics, CasSucceedsOnceUnderContention) {
  std::uint32_t slot = 0;
  std::atomic<int> winners{0};
  gee::par::parallel_for(std::size_t{0}, std::size_t{1 << 16},
                         [&](std::size_t i) {
                           if (gee::par::cas<std::uint32_t>(
                                   slot, 0, static_cast<std::uint32_t>(i + 1)))
                             winners++;
                         }, 256);
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(slot, 0u);
}

TEST(Atomics, TestAndSetFlagSingleWinner) {
  constexpr std::size_t kFlags = 1000;
  std::vector<unsigned char> flags(kFlags, 0);
  std::vector<std::atomic<int>> wins(kFlags);
  gee::par::parallel_for(std::size_t{0}, kFlags * 64, [&](std::size_t i) {
    const std::size_t f = i % kFlags;
    if (gee::par::test_and_set_flag(flags[f])) wins[f]++;
  }, 512);
  for (std::size_t f = 0; f < kFlags; ++f) {
    ASSERT_EQ(wins[f].load(), 1) << "flag " << f;
    ASSERT_EQ(flags[f], 1);
  }
}

// ------------------------------------------------------------------- reduce

TEST(Reduce, SumMatchesSerial) {
  constexpr std::size_t kN = 1 << 20;
  const auto sum = gee::par::reduce_sum<std::uint64_t>(
      kN, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST(Reduce, EmptyReturnsIdentity) {
  EXPECT_EQ(gee::par::reduce_sum<int>(0, [](std::size_t) { return 1; }), 0);
  EXPECT_EQ(gee::par::reduce_max<int>(0, -1, [](std::size_t) { return 5; }), -1);
}

TEST(Reduce, MaxAndMin) {
  constexpr std::size_t kN = 1 << 18;
  auto key = [](std::size_t i) {
    return static_cast<std::int64_t>(gee::util::hash_combine(3, i) % 100000);
  };
  const auto mx = gee::par::reduce_max<std::int64_t>(kN, INT64_MIN, key);
  const auto mn = gee::par::reduce_min<std::int64_t>(kN, INT64_MAX, key);
  std::int64_t emx = INT64_MIN, emn = INT64_MAX;
  for (std::size_t i = 0; i < kN; ++i) {
    emx = std::max(emx, key(i));
    emn = std::min(emn, key(i));
  }
  EXPECT_EQ(mx, emx);
  EXPECT_EQ(mn, emn);
}

TEST(Reduce, CountIf) {
  const auto c = gee::par::count_if(1 << 20, [](std::size_t i) { return i % 3 == 0; });
  EXPECT_EQ(c, (std::size_t{1} << 20) / 3 + 1);
}

// --------------------------------------------------------------------- scan

class ScanSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSweep, ExclusiveMatchesSerialOracle) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n);
  std::vector<std::uint64_t> in(n);
  for (auto& x : in) x = rng.next_below(1000);

  std::vector<std::uint64_t> expected(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = acc;
    acc += in[i];
  }

  std::vector<std::uint64_t> out(n);
  const auto total = gee::par::scan_exclusive(in.data(), out.data(), n);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(out, expected);

  // In-place operation must give identical results.
  std::vector<std::uint64_t> inplace = in;
  const auto total2 =
      gee::par::scan_exclusive(inplace.data(), inplace.data(), n);
  EXPECT_EQ(total2, acc);
  EXPECT_EQ(inplace, expected);
}

TEST_P(ScanSweep, InclusiveMatchesSerialOracle) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n * 7 + 1);
  std::vector<std::uint64_t> in(n);
  for (auto& x : in) x = rng.next_below(1000);

  std::vector<std::uint64_t> expected(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += in[i];
    expected[i] = acc;
  }

  std::vector<std::uint64_t> out(n);
  const auto total = gee::par::scan_inclusive(in.data(), out.data(), n);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(out, expected);

  std::vector<std::uint64_t> inplace = in;
  gee::par::scan_inclusive(inplace.data(), inplace.data(), n);
  EXPECT_EQ(inplace, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSweep,
                         ::testing::Values(0, 1, 2, 100, 1 << 15, (1 << 15) + 1,
                                           1 << 18, 333333));

TEST(Scan, DeterministicAcrossThreadCounts) {
  constexpr std::size_t kN = 1 << 18;
  std::vector<std::uint64_t> in(kN);
  Xoshiro256 rng(5);
  for (auto& x : in) x = rng.next_below(100);
  std::vector<std::uint64_t> ref(kN);
  {
    ThreadScope scope(1);
    gee::par::scan_exclusive(in.data(), ref.data(), kN);
  }
  for (int t : {2, 4, 8}) {
    ThreadScope scope(t);
    std::vector<std::uint64_t> out(kN);
    gee::par::scan_exclusive(in.data(), out.data(), kN);
    ASSERT_EQ(out, ref) << "threads=" << t;
  }
}

// --------------------------------------------------------------------- pack

TEST(Pack, KeepsOrderedSubset) {
  constexpr std::size_t kN = 200000;
  std::vector<std::uint32_t> in(kN);
  for (std::size_t i = 0; i < kN; ++i) in[i] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> out(kN);
  const auto count = gee::par::pack(in.data(), out.data(), kN,
                                    [&](std::size_t i) { return i % 7 == 0; });
  ASSERT_EQ(count, (kN + 6) / 7);
  for (std::size_t j = 0; j < count; ++j) ASSERT_EQ(out[j], j * 7);
}

TEST(Pack, EmptyAndFull) {
  std::vector<int> in{1, 2, 3};
  std::vector<int> out(3);
  EXPECT_EQ(gee::par::pack(in.data(), out.data(), 3,
                           [](std::size_t) { return false; }),
            0u);
  EXPECT_EQ(gee::par::pack(in.data(), out.data(), 3,
                           [](std::size_t) { return true; }),
            3u);
  EXPECT_EQ(out, in);
}

TEST(PackIndex, ProducesSortedIndices) {
  constexpr std::size_t kN = 100000;
  std::vector<std::uint32_t> out(kN);
  const auto count = gee::par::pack_index(
      out.data(), kN, [](std::size_t i) { return i % 2 == 1; });
  ASSERT_EQ(count, kN / 2);
  for (std::size_t j = 0; j < count; ++j) ASSERT_EQ(out[j], 2 * j + 1);
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, MatchesSerialCount) {
  constexpr std::size_t kN = 1 << 19;
  constexpr std::size_t kBuckets = 257;
  auto key = [](std::size_t i) {
    return gee::util::hash_combine(1, i) % kBuckets;
  };
  const auto counts = gee::par::histogram(kN, kBuckets, key);
  std::vector<std::uint64_t> expected(kBuckets, 0);
  for (std::size_t i = 0; i < kN; ++i) expected[key(i)]++;
  EXPECT_EQ(counts, expected);
}

TEST(Histogram, EmptyInput) {
  const auto counts =
      gee::par::histogram(0, 5, [](std::size_t) { return 0u; });
  EXPECT_EQ(counts, std::vector<std::uint64_t>(5, 0));
}

// ------------------------------------------------------------ stable bucket

/// Placed payloads and bucket offsets of one bucketing run.
struct Bucketed {
  std::vector<std::uint64_t> payloads;
  std::vector<std::uint64_t> offsets;
};

/// stable_bucket over items whose entries `entries_of(i, out)` appends to
/// out as (bucket, payload) pairs.
template <class EntriesOf>
Bucketed run_stable_bucket(std::size_t num_items, std::size_t num_buckets,
                           EntriesOf&& entries_of) {
  std::vector<std::pair<std::size_t, std::uint64_t>> all;
  for (std::size_t i = 0; i < num_items; ++i) entries_of(i, all);
  Bucketed got;
  got.payloads.assign(all.size(), ~std::uint64_t{0});
  got.offsets = gee::par::stable_bucket(
      num_items, num_buckets,
      [&](std::size_t lo, std::size_t hi, auto&& sink) {
        std::vector<std::pair<std::size_t, std::uint64_t>> mine;
        for (std::size_t i = lo; i < hi; ++i) entries_of(i, mine);
        for (const auto& [bucket, payload] : mine) sink(bucket, payload);
      },
      [&](std::uint64_t slot, std::uint64_t payload) {
        got.payloads[slot] = payload;
      });
  return got;
}

/// Serial oracle: the whole entry stream stably sorted by bucket.
template <class EntriesOf>
Bucketed serial_bucket(std::size_t num_items, std::size_t num_buckets,
                       EntriesOf&& entries_of) {
  std::vector<std::pair<std::size_t, std::uint64_t>> stream;
  for (std::size_t i = 0; i < num_items; ++i) entries_of(i, stream);
  std::stable_sort(stream.begin(), stream.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Bucketed want;
  want.offsets.assign(num_buckets + 1, 0);
  for (const auto& [bucket, payload] : stream) {
    want.payloads.push_back(payload);
    ++want.offsets[bucket + 1];
  }
  std::partial_sum(want.offsets.begin(), want.offsets.end(),
                   want.offsets.begin());
  return want;
}

TEST(StableBucket, ProducesStableAscendingPermutation) {
  constexpr std::size_t kN = 1 << 16;
  constexpr std::size_t kBuckets = 97;
  std::vector<std::uint32_t> keys(kN);
  Xoshiro256 rng(21);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_below(kBuckets));

  const auto got = run_stable_bucket(kN, kBuckets, [&](std::size_t i, auto& out) {
    out.emplace_back(keys[i], i);
  });
  const auto& perm = got.payloads;
  ASSERT_EQ(perm.size(), kN);
  ASSERT_EQ(got.offsets.size(), kBuckets + 1);
  EXPECT_EQ(got.offsets.front(), 0u);
  EXPECT_EQ(got.offsets.back(), kN);

  // Permutation property: every input index appears exactly once.
  std::vector<char> seen(kN, 0);
  for (auto idx : perm) {
    ASSERT_LT(idx, kN);
    ASSERT_EQ(seen[idx], 0);
    seen[idx] = 1;
  }
  // Sortedness + stability: keys ascend, ties keep input order, and every
  // index sits inside its key's bucket.
  for (std::size_t j = 0; j < kN; ++j) {
    const auto k = keys[perm[j]];
    ASSERT_GE(j, got.offsets[k]);
    ASSERT_LT(j, got.offsets[k + 1]);
    if (j > 0) {
      ASSERT_LE(keys[perm[j - 1]], k);
      if (keys[perm[j - 1]] == k) {
        ASSERT_LT(perm[j - 1], perm[j]);
      }
    }
  }
}

TEST(StableBucket, DeterministicAcrossThreadCounts) {
  constexpr std::size_t kN = 1 << 16;
  std::vector<std::uint32_t> keys(kN);
  Xoshiro256 rng(33);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_below(64));
  auto run = [&] {
    return run_stable_bucket(kN, 64, [&](std::size_t i, auto& out) {
      out.emplace_back(keys[i], i);
    });
  };
  Bucketed ref;
  {
    ThreadScope scope(1);
    ref = run();
  }
  for (int t : {2, 8}) {
    ThreadScope scope(t);
    const auto got = run();
    ASSERT_EQ(got.payloads, ref.payloads) << "threads=" << t;
    ASSERT_EQ(got.offsets, ref.offsets) << "threads=" << t;
  }
}

TEST(StableBucket, TinyInput) {
  const auto got = run_stable_bucket(3, 2, [](std::size_t i, auto& out) {
    out.emplace_back(i == 1 ? 0u : 1u, i);
  });
  EXPECT_EQ(got.payloads, (std::vector<std::uint64_t>{1, 0, 2}));
  EXPECT_EQ(got.offsets, (std::vector<std::uint64_t>{0, 1, 3}));
}

TEST(StableBucket, ItemsEmitZeroOneOrTwoEntries) {
  // Item i emits i % 3 entries, the second one to a different bucket:
  // entries keep (bucket, item order, emit order) at every thread count.
  constexpr std::size_t kN = 3 << 13;
  constexpr std::size_t kBuckets = 37;
  auto entries_of = [](std::size_t i, auto& out) {
    const std::size_t key = gee::util::hash_combine(5, i) % kBuckets;
    if (i % 3 >= 1) out.emplace_back(key, 2 * i);
    if (i % 3 == 2) out.emplace_back((key * 7 + 1) % kBuckets, 2 * i + 1);
  };
  const auto want = serial_bucket(kN, kBuckets, entries_of);
  ASSERT_EQ(want.payloads.size(), kN);  // 0 + 1 + 2 entries per 3 items
  for (int t : {1, 2, 7}) {
    ThreadScope scope(t);
    const auto got = run_stable_bucket(kN, kBuckets, entries_of);
    ASSERT_EQ(got.payloads, want.payloads) << "threads=" << t;
    ASSERT_EQ(got.offsets, want.offsets) << "threads=" << t;
  }
}

TEST(StableBucket, MoreBucketsThanItems) {
  // Fewer than 4 items per bucket: the chunk cap leaves one chunk, and
  // empty buckets get empty ranges.
  constexpr std::size_t kN = 50;
  constexpr std::size_t kBuckets = 1000;
  auto entries_of = [](std::size_t i, auto& out) {
    out.emplace_back(gee::util::hash_combine(9, i) % kBuckets, i);
  };
  const auto want = serial_bucket(kN, kBuckets, entries_of);
  for (int t : {1, 8}) {
    ThreadScope scope(t);
    const auto got = run_stable_bucket(kN, kBuckets, entries_of);
    ASSERT_EQ(got.payloads, want.payloads) << "threads=" << t;
    ASSERT_EQ(got.offsets, want.offsets) << "threads=" << t;
  }
  const auto none = run_stable_bucket(0, kBuckets, entries_of);
  EXPECT_TRUE(none.payloads.empty());
  EXPECT_EQ(none.offsets, std::vector<std::uint64_t>(kBuckets + 1, 0));
}

}  // namespace
