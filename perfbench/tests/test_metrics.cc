// Tests of the benchmark's own statistics: order statistics, the tail
// percentile rule and failure accounting.

#include <gtest/gtest.h>

#include "metrics.hh"

using namespace perfbench;

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    std::vector<double> v;
    for (int i = 10; i >= 1; --i)
        v.push_back(i);
    auto q = quartiles(v);
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    auto q2 = quartiles({2.0, 1.0});
    EXPECT_DOUBLE_EQ(q2[0], 0.75);
    EXPECT_DOUBLE_EQ(q2[1], 1.5);
    EXPECT_DOUBLE_EQ(q2[2], 2.25);
    EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(TailPercentile, LeavesTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(1000), 99u); // 10 beyond p99
    EXPECT_EQ(tailPercentile(5000), 99u); // capped
    EXPECT_EQ(tailPercentile(174), 94u);  // 174 - ceil(163.56) = 10
    EXPECT_EQ(tailPercentile(999), 98u);  // p99 would leave 9
    EXPECT_EQ(tailPercentile(20), 50u);
    EXPECT_EQ(tailPercentile(19), 0u);    // too few samples for a tail
    for (std::size_t n : {20, 57, 174, 333, 1000, 1234}) {
        unsigned p = tailPercentile(n);
        std::size_t rank = (p * n + 99) / 100;
        EXPECT_GE(n - rank, 10u) << n;
        if (p < 99) {
            std::size_t next = ((p + 1) * n + 99) / 100;
            EXPECT_LT(n - next, 10u) << n;
        }
    }
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 990.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 500.0);
    EXPECT_DOUBLE_EQ(percentile({5.0}, 99), 5.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(FailureTally, CountsEveryNonOkOutcome)
{
    FailureTally t;
    for (int i = 0; i < 6; ++i)
        t.add(Outcome::Ok);
    t.add(Outcome::ErrorFrame);
    t.add(Outcome::BusyFrame);
    t.add(Outcome::Transport);
    t.add(Outcome::BadOutput);
    EXPECT_EQ(t.attempted, 10u);
    EXPECT_EQ(t.failed(), 4u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.4);

    FailureTally u;
    EXPECT_DOUBLE_EQ(u.failedFrac(), 0.0);
    u.add(Outcome::Ok);
    u.merge(t);
    EXPECT_EQ(u.attempted, 11u);
    EXPECT_EQ(u.failed(), 4u);
}

TEST(ResultJson, HasExactlyTheContractKeys)
{
    std::string s = resultJson(true, 3, 0, {{"latency_ms", 1.25, "ms"}});
    EXPECT_EQ(s, "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"latency_ms\": {\"value\": 1.25, "
                 "\"unit\": \"ms\"}}}");
}
