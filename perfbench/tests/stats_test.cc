// Tests of the benchmark's own arithmetic: the percentile estimators, the
// rate search behind max_rate_ops_s, span self time and stage coverage.

#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  std::vector<double> v = {40, 10, 30, 20};  // sorted: 10 20 30 40
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25);    // rank 1.5
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 17.5);  // rank 0.75
}

TEST(PercentileTest, EdgeCases) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Percentile(empty, 99), 0);
  std::vector<double> one = {7};
  EXPECT_DOUBLE_EQ(Percentile(one, 99), 7);
  std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 150), 3);  // clamped
}

TEST(PercentileTest, P99OfHundredValues) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 99.01);  // rank 98.01
}

TEST(ChunkMedianPercentileTest, OneStalledChunkMovesTheResultOneRank) {
  // Three chunks of 100 samples of 1..100; the second has a stall that
  // pushes its top tenth to 10000. The pooled p99 lands in the stall; the
  // chunk median does not.
  std::vector<double> v;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 100; ++i) v.push_back(c == 1 && i > 90 ? 10000 : i);
  }
  std::vector<double> pooled = v;
  EXPECT_GT(Percentile(pooled, 99), 9000);
  EXPECT_DOUBLE_EQ(ChunkMedianPercentile(v, 100, 99), 99.01);
}

TEST(ChunkMedianPercentileTest, FewSamplesFallBackToAll) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(ChunkMedianPercentile(v, 100, 50), 2.5);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(ChunkMedianPercentile(empty, 100, 99), 0);
}

TEST(ChunkMedianPercentileTest, RemainderJoinsLastChunk) {
  // 250 samples in chunks of 100: chunks [0,100) and [100,250).
  std::vector<double> v;
  for (int i = 0; i < 250; ++i) v.push_back(i < 100 ? 1 : 2);
  EXPECT_DOUBLE_EQ(ChunkMedianPercentile(v, 100, 50), 1.5);  // median of {1, 2}
}

TEST(BucketPercentileTest, InterpolatesInsideTheBucket) {
  // 10 samples in (0,100], 10 in (100,200].
  const std::vector<std::pair<uint64_t, uint64_t>> buckets = {{100, 10}, {200, 10}};
  EXPECT_DOUBLE_EQ(BucketPercentile(buckets, 50), 100);
  EXPECT_DOUBLE_EQ(BucketPercentile(buckets, 75), 150);
  EXPECT_DOUBLE_EQ(BucketPercentile(buckets, 25), 50);
  EXPECT_DOUBLE_EQ(BucketPercentile({}, 50), 0);
}

TEST(BucketPercentileTest, SkipsEmptyBuckets) {
  const std::vector<std::pair<uint64_t, uint64_t>> buckets = {
      {10, 0}, {20, 4}, {40, 0}, {80, 4}};
  EXPECT_DOUBLE_EQ(BucketPercentile(buckets, 100), 80);
  EXPECT_DOUBLE_EQ(BucketPercentile(buckets, 25), 15);
}

/// Runs a search against a server whose true limit is `limit`.
double Search(RateSearch search, double limit, int* probes = nullptr) {
  while (!search.done()) search.Record(search.next() <= limit);
  if (probes != nullptr) *probes = search.probes();
  return search.best();
}

TEST(RateSearchTest, GrowsThenBisectsBelowTheLimit) {
  int probes = 0;
  const double best = Search(RateSearch(1000, 2, 100, 100000, 6), 5000, &probes);
  EXPECT_LE(best, 5000);
  EXPECT_GT(best, 5000 / std::pow(2.0, 1.0 / 32));  // bracket 2^(1/64) wide
  EXPECT_EQ(probes, 4 + 6);                         // 1k 2k 4k 8k, 6 bisections
}

TEST(RateSearchTest, ShrinksWhenTheStartFails) {
  const double best = Search(RateSearch(1000, 2, 10, 100000, 4), 300);
  EXPECT_LE(best, 300);
  EXPECT_GT(best, 250);
}

TEST(RateSearchTest, StopsAtTheCap) {
  int probes = 0;
  EXPECT_DOUBLE_EQ(Search(RateSearch(1000, 2, 100, 3000, 4), 1e9, &probes), 3000);
  EXPECT_EQ(probes, 3);  // 1000, 2000, 3000
}

TEST(RateSearchTest, ReportsZeroWhenNothingPasses) {
  EXPECT_DOUBLE_EQ(Search(RateSearch(1000, 2, 100, 3000, 4), 1), 0);
}

TEST(SelfTimesTest, SubtractsTheUnionOfChildren) {
  // Root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [90,120) (sticking out): covered = [10,50) + [90,100) = 50.
  const std::vector<Span> spans = {
      {1, 0, "root", 0, 100},
      {2, 1, "child", 10, 30},
      {3, 1, "child", 20, 50},
      {4, 1, "child", 90, 120},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at("root").spans, 1u);
  EXPECT_DOUBLE_EQ(self.at("root").total_ns, 100);
  EXPECT_DOUBLE_EQ(self.at("root").self_ns, 50);
  EXPECT_EQ(self.at("child").spans, 3u);
  EXPECT_DOUBLE_EQ(self.at("child").total_ns, 20 + 30 + 30);
  EXPECT_DOUBLE_EQ(self.at("child").self_ns, 80);  // leaves: self = total
}

TEST(SelfTimesTest, GrandchildrenCountOnlyForTheirParent) {
  const std::vector<Span> spans = {
      {1, 0, "op", 0, 100},
      {2, 1, "call", 0, 60},
      {3, 2, "inner", 0, 60},
  };
  const auto self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at("op").self_ns, 40);
  EXPECT_DOUBLE_EQ(self.at("call").self_ns, 0);
  EXPECT_DOUBLE_EQ(self.at("inner").self_ns, 60);
}

TEST(StageCoverageTest, StagesPlusNetworkOverRoundTrip) {
  // 100 us round trip, 60 us in the server of which stages explain 55.
  EXPECT_DOUBLE_EQ(StageCoverage(100, 60, 55), 0.95);
  EXPECT_GE(StageCoverage(100, 60, 55), kMinStageCoverage);
  // Stages explain only half the server time: 0.7 < 0.9.
  EXPECT_DOUBLE_EQ(StageCoverage(100, 60, 30), 0.7);
  EXPECT_LT(StageCoverage(100, 60, 30), kMinStageCoverage);
}

TEST(StageCoverageTest, ClampsAndGuards) {
  EXPECT_DOUBLE_EQ(StageCoverage(0, 10, 10), 0);
  EXPECT_DOUBLE_EQ(StageCoverage(100, 120, 130), 1);  // never above 1
  EXPECT_DOUBLE_EQ(StageCoverage(100, 0, 0), 1);      // all network
}

}  // namespace
}  // namespace perfbench
