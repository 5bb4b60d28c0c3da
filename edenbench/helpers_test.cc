// Tests of the benchmark's own helpers and of its per-system aggregation.
#include <gtest/gtest.h>

#include <set>

#include "edenbench/helpers.h"
#include "edenbench/metric_names.h"
#include "edenbench/workloads.h"

namespace edenbench {
namespace {

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(19).label, "");
  EXPECT_EQ(TailPercentile(20).label, "p50");
  EXPECT_EQ(TailPercentile(99).label, "p50");
  EXPECT_EQ(TailPercentile(100).label, "p90");
  EXPECT_EQ(TailPercentile(999).label, "p90");
  EXPECT_EQ(TailPercentile(1000).label, "p99");
  EXPECT_EQ(TailPercentile(10000).label, "p99.9");
  EXPECT_EQ(TailPercentile(100000).label, "p99.99");
  EXPECT_DOUBLE_EQ(TailPercentile(1000).fraction, 0.99);
}

TEST(TailPercentileTest, NearestRankOnSortedSamples) {
  std::vector<int64_t> sorted;
  for (int64_t v = 1; v <= 1000; v++) {
    sorted.push_back(v);
  }
  EXPECT_EQ(PercentileOfSorted(sorted, 0.5), 500);
  EXPECT_EQ(PercentileOfSorted(sorted, 0.99), 990);
  EXPECT_EQ(PercentileOfSorted(sorted, 1.0), 1000);
  EXPECT_EQ(PercentileOfSorted(sorted, 0.0), 1);
  EXPECT_EQ(PercentileOfSorted({}, 0.5), 0);
  // Ten samples lie beyond the reported p99.
  EXPECT_EQ(sorted.end() - std::upper_bound(sorted.begin(), sorted.end(),
                                            PercentileOfSorted(sorted, 0.99)),
            10);
}

TEST(ZipfSamplerTest, DeterministicForASeed) {
  ZipfSampler zipf(256, 1.0);
  eden::Rng a(42);
  eden::Rng b(42);
  eden::Rng c(43);
  std::vector<size_t> from_a, from_b, from_c;
  for (int i = 0; i < 1000; i++) {
    from_a.push_back(zipf.Sample(a));
    from_b.push_back(zipf.Sample(b));
    from_c.push_back(zipf.Sample(c));
  }
  EXPECT_EQ(from_a, from_b);
  EXPECT_NE(from_a, from_c);
}

TEST(ZipfSamplerTest, SkewedTowardLowRanks) {
  ZipfSampler zipf(256, 1.0);
  eden::Rng rng(7);
  std::vector<int> hits(256, 0);
  for (int i = 0; i < 100000; i++) {
    size_t rank = zipf.Sample(rng);
    ASSERT_LT(rank, 256u);
    hits[rank]++;
  }
  // P(rank 0) = 1 / H(256) ~ 0.16; rank 1 is half as likely.
  EXPECT_NEAR(hits[0] / 100000.0, 0.163, 0.01);
  EXPECT_NEAR(static_cast<double>(hits[1]) / hits[0], 0.5, 0.05);
}

TEST(MetricNamesTest, EveryNameIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *list) {
      EXPECT_TRUE(ValidMetricName(d.name)) << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
      EXPECT_FALSE(d.unit.empty()) << d.name;
    }
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("trace.phase.store read"));
  EXPECT_FALSE(ValidMetricName("lan/frames"));
}

TEST(LedgerTest, SharesAndUnexplainedSumToOne) {
  Ledger ledger = BuildLedger(1000, {{"sim", 250}, {"lan", 100}, {"codec", 40}});
  double total = ledger.unexplained;
  for (const LedgerEntry& e : ledger.entries) {
    total += e.share;
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_DOUBLE_EQ(ledger.entries[0].share, 0.25);
  EXPECT_NEAR(ledger.unexplained, 0.61, 1e-12);

  // Over-explained: the remainder goes negative, the sum still holds.
  Ledger over = BuildLedger(100, {{"sim", 80}, {"lan", 40}});
  EXPECT_NEAR(over.unexplained, -0.2, 1e-12);
  EXPECT_NEAR(over.entries[0].share + over.entries[1].share + over.unexplained,
              1.0, 1e-12);
}

// Each workload's Rollup() comes from its own installation only: a system
// gauge reads this system's value, never a sum across systems.
TEST(AggregationTest, MembershipGaugeEqualsNodeCount) {
  for (WorkloadSpec spec : AllWorkloads()) {
    spec.warmup = eden::Milliseconds(1);
    spec.window = eden::Milliseconds(5);
    PassOptions options;
    options.seed = 3;
    PassResult pass = RunPass(spec, options);
    const eden::Gauge* members = pass.after.FindGauge("membership.members");
    ASSERT_NE(members, nullptr) << spec.name;
    EXPECT_EQ(members->value(), static_cast<int64_t>(spec.nodes)) << spec.name;
    EXPECT_EQ(pass.error, "") << spec.name;
  }
}

}  // namespace
}  // namespace edenbench
