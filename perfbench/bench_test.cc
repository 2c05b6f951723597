/**
 * @file
 * Tests of the benchmark's own arithmetic and seeding: nearest-rank
 * percentiles and the tail rule, span self time, and seed
 * determinism of every workload's inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bench.hh"

using namespace svf;
using namespace svf::perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(nearestRank(v, 50), 50);
    EXPECT_EQ(nearestRank(v, 99), 99);
    EXPECT_EQ(nearestRank(v, 100), 100);
    EXPECT_EQ(nearestRank(v, 0.5), 1);
    EXPECT_EQ(nearestRank({7.0}, 99), 7.0);
    EXPECT_EQ(nearestRank({}, 50), 0.0);
    // Rank ceil(0.5 * 5) = 3 of {1..5}.
    EXPECT_EQ(nearestRank({1, 2, 3, 4, 5}, 50), 3);
}

TEST(Percentile, TailRule)
{
    // p99 of 1000 samples is rank 990: ten samples lie beyond it.
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_TRUE(tailResolved(1000, 99));
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_FALSE(tailResolved(999, 99));
    EXPECT_TRUE(tailResolved(20, 50));
    EXPECT_FALSE(tailResolved(19, 50));
    EXPECT_EQ(samplesBeyond(0, 99), 0u);
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime)
{
    //  root [0,10]
    //    a [1,4]      (child b [2,3] inside it)
    //    c [3,6]      overlaps a: the union [1,6] covers 5 s of root
    //    d [9,12]     sticks out of root: only [9,10] counts
    std::vector<Span> s = {
        {"root", 0, 10, -1, 0}, {"a", 1, 4, 0, 1}, {"b", 2, 3, 1, 1},
        {"c", 3, 6, 0, 2},      {"d", 9, 12, 0, 3},
    };
    std::vector<double> self = selfTimes(s);
    EXPECT_DOUBLE_EQ(self[0], 10 - 5 - 1);
    EXPECT_DOUBLE_EQ(self[1], 3 - 1);
    EXPECT_DOUBLE_EQ(self[2], 1);
    EXPECT_DOUBLE_EQ(self[3], 3);
    EXPECT_DOUBLE_EQ(self[4], 3);

    auto by_name = selfTimeByName(s);
    EXPECT_DOUBLE_EQ(by_name["root"], 4);
    double total = 0;
    for (const auto &[name, secs] : by_name)
        total += secs;
    EXPECT_DOUBLE_EQ(total, 4 + 2 + 1 + 3 + 3);
}

TEST(Spans, DisabledLogRecordsNothing)
{
    SpanLog off(false);
    EXPECT_EQ(off.open("x"), -1);
    off.close(-1);
    EXPECT_TRUE(off.spans().empty());

    SpanLog on(true);
    int root = on.open("root");
    {
        ScopedSpan child(on, "child", root, 7);
    }
    on.close(root);
    std::vector<Span> s = on.spans();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[1].parent, root);
    EXPECT_EQ(s[1].id, 7u);
    EXPECT_LE(s[0].start, s[1].start);
    EXPECT_GE(s[0].end, s[1].end);
}

namespace
{

std::vector<std::uint64_t>
keys(const harness::ExperimentPlan &plan)
{
    std::vector<std::uint64_t> out;
    for (const harness::Job &j : plan.jobs())
        out.push_back(harness::setupKey(j.setup));
    return out;
}

} // anonymous namespace

TEST(Seed, PaperSweepShufflesTheSamePlan)
{
    const harness::ExperimentPlan plan = paperSweepPlan();
    ASSERT_EQ(plan.size(), 503u);
    std::vector<std::uint64_t> base = keys(plan);
    EXPECT_EQ(std::set<std::uint64_t>(base.begin(), base.end()).size(),
              387u);

    std::vector<std::uint64_t> a = keys(shuffledPlan(plan, 1));
    EXPECT_EQ(a, keys(shuffledPlan(plan, 1)));
    std::vector<std::uint64_t> b = keys(shuffledPlan(plan, 2));
    EXPECT_NE(a, b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::sort(base.begin(), base.end());
    EXPECT_EQ(a, base);
    EXPECT_EQ(b, base);
}

TEST(Seed, SampledRunsDrawFromThePoolWithOneBudget)
{
    std::set<std::uint64_t> pool;
    for (const SampledRun &r : sampledPool())
        pool.insert(r.setup.key());

    auto total = [](const std::vector<SampledRun> &runs) {
        std::uint64_t n = 0;
        for (const SampledRun &r : runs)
            n += r.setup.maxInsts;
        return n;
    };
    std::vector<SampledRun> a = sampledRuns(1);
    std::vector<SampledRun> again = sampledRuns(1);
    ASSERT_EQ(a.size(), again.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].setup.key(), again[i].setup.key());

    std::set<std::string> orders;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::vector<SampledRun> runs = sampledRuns(seed);
        EXPECT_EQ(total(runs), total(a));
        std::string order;
        for (const SampledRun &r : runs) {
            EXPECT_TRUE(pool.count(r.setup.key())) << r.name;
            EXPECT_TRUE(r.setup.sample.enabled());
            order += r.name + " ";
        }
        orders.insert(order);
    }
    EXPECT_GT(orders.size(), 1u);
}

TEST(Seed, ServedRequestsDrawFromThePool)
{
    const std::size_t pool = servedPool().size();
    auto a = servedRequests(1, 500, pool);
    EXPECT_EQ(a, servedRequests(1, 500, pool));
    auto b = servedRequests(2, 500, pool);
    EXPECT_NE(a, b);
    std::size_t jobs_a = 0, first_rank = 0;
    for (const auto *reqs : {&a, &b}) {
        for (const Request &r : *reqs) {
            ASSERT_GE(r.size(), 1u);
            ASSERT_LE(r.size(), 3u);
            std::set<std::uint32_t> distinct(r.begin(), r.end());
            EXPECT_EQ(distinct.size(), r.size());
            for (std::uint32_t j : r) {
                EXPECT_LT(j, pool);
                first_rank += j == 0;
            }
            if (reqs == &a)
                jobs_a += r.size();
        }
    }
    // Skewed popularity: rank 0 is drawn far more than uniformly.
    EXPECT_GT(double(first_rank), 5.0 * (2.0 * jobs_a / double(pool)));
}

TEST(Seed, ServedRoundsCoverTheWholePool)
{
    // Every seed draws the same set of setups, the whole pool, so a
    // round's instruction total does not depend on the seed. 100
    // requests leave most of the pool undrawn; 2500 is one round.
    const std::size_t pool = servedPool().size();
    for (std::size_t count : {100u, 2500u}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            std::vector<Request> reqs = servedRequests(seed, count, pool);
            EXPECT_GE(reqs.size(), count);
            std::set<std::uint32_t> drawn;
            for (const Request &r : reqs)
                drawn.insert(r.begin(), r.end());
            EXPECT_EQ(drawn.size(), pool) << "seed " << seed;
            EXPECT_EQ(*drawn.rbegin(), pool - 1) << "seed " << seed;
        }
    }
}
