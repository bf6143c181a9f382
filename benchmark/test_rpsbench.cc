/**
 * @file
 * Unit tests of rpsbench's statistics and span recorder: percentile
 * selection under the at-least-ten-samples-beyond rule, windowed
 * tails, and the per-seed determinism of the Poisson schedule and the
 * goodput bisection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "harness/json.hh"
#include "stats.hh"
#include "trace.hh"

using namespace rpsbench;

namespace {

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    std::vector<double> v = ramp(100);
    EXPECT_EQ(percentile(v, 50.0), 50.0);
    EXPECT_EQ(percentile(v, 99.0), 99.0);
    EXPECT_EQ(percentile(v, 100.0), 100.0);
    EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
    // Order of the input does not matter.
    std::vector<double> rev(v.rbegin(), v.rend());
    EXPECT_EQ(percentile(rev, 90.0), 90.0);
}

TEST(Percentile, TailLeavesTenSamplesBeyond)
{
    EXPECT_EQ(tailPercent(19), 0.0);
    EXPECT_EQ(tailPercent(20), 50.0);
    EXPECT_EQ(tailPercent(40), 75.0);
    EXPECT_EQ(tailPercent(100), 90.0);
    EXPECT_EQ(tailPercent(999), 95.0);
    EXPECT_EQ(tailPercent(1000), 99.0);
    EXPECT_EQ(tailPercent(10000), 99.9);
    for (size_t n : {20u, 57u, 128u, 1000u, 4321u, 10000u}) {
        double pct = tailPercent(n);
        std::vector<double> v = ramp(n);
        double at = percentile(v, pct);
        size_t beyond = static_cast<size_t>(
            std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > at; }));
        EXPECT_GE(beyond, 10u) << "n=" << n;
    }
}

TEST(WindowedTail, MedianOfWindowP99sIgnoresOneStall)
{
    std::vector<double> t, v;
    for (int w = 0; w < 5; ++w)
        for (int i = 0; i < 1000; ++i) {
            t.push_back(w + i / 1000.0);
            // Window 2 holds a stall: its tail is 100x the others.
            v.push_back(w == 2 && i % 10 == 0 ? 100.0 : 1.0 + i / 1000.0);
        }
    Tail tail = windowedTail(t, v, 0.0, 5.0, 5);
    EXPECT_EQ(tail.pct, 99.0);
    EXPECT_EQ(tail.perWindow.size(), 5u);
    EXPECT_LT(tail.value, 2.0);
}

TEST(WindowedTail, FallsBackWhenWindowsCannotSupportP99)
{
    std::vector<double> t, v;
    for (int i = 0; i < 500; ++i) {
        t.push_back(i / 100.0);
        v.push_back(static_cast<double>(i));
    }
    Tail tail = windowedTail(t, v, 0.0, 5.0, 5);
    EXPECT_TRUE(tail.perWindow.empty());
    EXPECT_EQ(tail.pct, tailPercent(500));
    EXPECT_EQ(tail.value, percentile(v, tailPercent(500)));
}

TEST(Poisson, DeterministicPerSeed)
{
    std::vector<double> a = poissonSchedule(42, 1000.0, 2.0);
    std::vector<double> b = poissonSchedule(42, 1000.0, 2.0);
    std::vector<double> c = poissonSchedule(43, 1000.0, 2.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_GT(a.size(), 1800u);
    EXPECT_LT(a.size(), 2200u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], 0.0);
        EXPECT_LT(a[i], 2.0);
        if (i > 0) {
            EXPECT_GE(a[i], a[i - 1]);
        }
    }
}

TEST(Bisection, DeterministicAndConverges)
{
    auto run = [](double knee, std::vector<double> &probes) {
        LogBisection bis(4000.0, 64000.0, 6);
        while (!bis.done()) {
            probes.push_back(bis.next());
            bis.record(bis.next() <= knee);
        }
        return bis.result();
    };
    std::vector<double> p1, p2;
    double r1 = run(35000.0, p1);
    double r2 = run(35000.0, p2);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(p1.size(), 6u);
    EXPECT_EQ(p1[0], 16000.0);
    // Six halvings of a 16x range leave a 16^(1/64) bracket.
    EXPECT_LE(r1, 35000.0);
    EXPECT_GE(r1, 35000.0 / std::pow(16.0, 1.0 / 64.0));
    std::vector<double> p3;
    EXPECT_EQ(run(1000.0, p3), 4000.0); // nothing passes: the floor
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer t(true);
    int u = t.begin("unit");
    int a = t.begin("install");
    t.end(a);
    int b = t.begin("execute");
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + std::sqrt(static_cast<double>(i));
    t.end(b);
    t.end(u);
    int other = t.begin("setup");
    t.end(other);
    std::map<std::string, double> self = t.selfTimeUs("unit");
    double unit = t.durationsUs("unit")[0];
    EXPECT_EQ(self.count("setup"), 0u);
    EXPECT_NEAR(self["unit"] + self["install"] + self["execute"], unit, 1e-6);
    EXPECT_EQ(self["execute"], t.durationsUs("execute")[0]);

    twoinone::harness::Json doc =
        twoinone::harness::Json::parse(t.chromeJson("test"));
    EXPECT_EQ(doc.find("traceEvents")->items().size(), 5u);

    Tracer off(false);
    EXPECT_EQ(off.begin("unit"), -1);
    off.end(-1);
    EXPECT_TRUE(off.durationsUs("unit").empty());
}
