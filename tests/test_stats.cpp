// Unit tests for the statistics helpers and the network-wide collector.

#include <gtest/gtest.h>

#include "common/stats_util.hpp"
#include "noc/stats.hpp"

namespace ftnoc {
namespace {

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeEqualsCombinedStream) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeTakesMinAndMaxFromEitherSide) {
  RunningStat mid, wide;
  mid.add(5.0);
  mid.add(7.0);
  wide.add(1.0);
  wide.add(9.0);
  mid.merge(wide);
  EXPECT_DOUBLE_EQ(mid.min(), 1.0);
  EXPECT_DOUBLE_EQ(mid.max(), 9.0);

  // Disjoint ranges, each side contributing one extreme.
  RunningStat lo, hi;
  lo.add(-3.0);
  lo.add(-1.0);
  hi.add(10.0);
  hi.add(20.0);
  lo.merge(hi);
  EXPECT_DOUBLE_EQ(lo.min(), -3.0);
  EXPECT_DOUBLE_EQ(lo.max(), 20.0);
  EXPECT_EQ(lo.count(), 4u);
}

TEST(RunningStat, MergeWithEmptyIsIdentity) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10.0, 5);  // [0,50) + overflow.
  h.add(0.0);
  h.add(9.99);
  h.add(10.0);
  h.add(49.0);
  h.add(50.0);
  h.add(1e9);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, QuantileEstimates) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1.5);
}

TEST(Histogram, QuantileZeroFindsFirstNonEmptyBucket) {
  Histogram h(10.0, 5);
  h.add(25.0);  // Bucket 2; buckets 0-1 are empty.
  h.add(26.0);
  h.add(27.0);
  // q=0 must not report the empty first bucket (the old ceil(0)=0 target
  // made `seen >= target` true immediately).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 25.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 25.0);
}

TEST(Histogram, QuantileReportsBucketMidpoint) {
  Histogram h(10.0, 5);
  for (int i = 0; i < 4; ++i) h.add(12.0);  // All in bucket 1: [10, 20).
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 15.0);
}

TEST(Histogram, QuantileSingleBucket) {
  Histogram h(5.0, 1);
  h.add(1.0);
  h.add(4.0);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 2.5);
  }
}

TEST(Histogram, QuantileOverflowBucketReportsRangeEnd) {
  Histogram h(1.0, 2);  // Range [0, 2) + overflow.
  h.add(10.0);
  h.add(11.0);
  // Both samples overflow: every quantile is bounded below by the range
  // end, the tightest estimate the histogram can give.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);

  // Mixed: the median is in range, the tail is not.
  Histogram m(1.0, 2);
  m.add(0.5);
  m.add(0.5);
  m.add(10.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(m.quantile(1.0), 2.0);
}

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(CounterSet, IncrementAndReset) {
  CounterSet c(3);
  c.inc(0);
  c.inc(2, 5);
  EXPECT_EQ(c.get(0), 1u);
  EXPECT_EQ(c.get(1), 0u);
  EXPECT_EQ(c.get(2), 5u);
  c.reset();
  EXPECT_EQ(c.get(2), 0u);
}

TEST(StatsCollector, WarmupGatesEverything) {
  StatsCollector s;
  // Before measurement: events counted only in lifetime totals.
  s.on_message_ejected(100, 10, 20, false, 4);
  s.count(Counter::link_single_corrected);
  s.count(Counter::probes_sent);
  EXPECT_EQ(s.messages_ejected(), 1u);
  EXPECT_EQ(s.measured_messages(), 0u);
  EXPECT_EQ(s.link_single_corrected(), 0u);
  EXPECT_EQ(s.probes_sent(), 0u);

  s.begin_measurement(200);
  s.on_message_ejected(260, 200, 230, false, 4);
  s.count(Counter::link_single_corrected);
  EXPECT_EQ(s.measured_messages(), 1u);
  EXPECT_EQ(s.link_single_corrected(), 1u);
  // Network latency uses the injection stamp: 260 - 230.
  EXPECT_DOUBLE_EQ(s.latency().mean(), 30.0);
  EXPECT_DOUBLE_EQ(s.total_latency().mean(), 60.0);
}

TEST(StatsCollector, MissingInjectStampFallsBackToBirth) {
  StatsCollector s;
  s.begin_measurement(0);
  s.on_message_ejected(50, 10, 0, false, 4);
  EXPECT_DOUBLE_EQ(s.latency().mean(), 40.0);
}

TEST(StatsCollector, CorruptedOnlyCountedWhenMeasuring) {
  StatsCollector s;
  s.on_message_ejected(1, 0, 0, true, 4);
  EXPECT_EQ(s.corrupted_delivered(), 0u);
  s.begin_measurement(2);
  s.on_message_ejected(3, 0, 0, true, 4);
  EXPECT_EQ(s.corrupted_delivered(), 1u);
}

TEST(StatsCollector, LinkErrorsCorrectedCombinesSecAndRetransmissions) {
  StatsCollector s;
  s.begin_measurement(0);
  s.count(Counter::link_single_corrected);
  s.count(Counter::link_single_corrected);
  s.count(Counter::link_retransmission_events);
  s.count(Counter::link_flits_retransmitted, 3);
  EXPECT_EQ(s.link_errors_corrected(), 3u);  // 2 SEC + 1 retransmission.
  EXPECT_EQ(s.link_flits_retransmitted(), 3u);
}

TEST(StatsCollector, BufferSamplesOnlyDuringMeasurement) {
  StatsCollector s;
  s.sample_buffers(0.9, 0.9);
  EXPECT_EQ(s.tx_buffer_utilization().count(), 0u);
  s.begin_measurement(0);
  s.sample_buffers(0.5, 0.25);
  EXPECT_DOUBLE_EQ(s.tx_buffer_utilization().mean(), 0.5);
  EXPECT_DOUBLE_EQ(s.rtx_buffer_utilization().mean(), 0.25);
}

}  // namespace
}  // namespace ftnoc
