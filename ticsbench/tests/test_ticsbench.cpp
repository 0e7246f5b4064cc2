/**
 * @file
 * Unit tests of the benchmark itself: metric arithmetic, and negative
 * tests in which fabricated bad results must trip each correctness
 * check. Run with `python3 ticsbench/run.py --test`.
 */

#include <gtest/gtest.h>

#include <set>

#include "checks.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace ticsbench;
using ticsim::sweep::Cell;
using ticsim::sweep::CellResult;

namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

Cell
cell(const char *runtime, const char *supplyToken)
{
    Cell c;
    c.app = "BC";
    c.runtime = runtime;
    EXPECT_TRUE(ticsim::sweep::parseSupplyToken(supplyToken, c.supply));
    return c;
}

/** A result that satisfies every per-cell property at 1000 ns/cycle. */
CellResult
goodResult()
{
    CellResult r;
    r.completed = true;
    r.verified = true;
    r.reboots = 3;
    r.cycles = 5000;
    r.onTimeNs = 5'000'000;
    r.elapsedNs = 9'000'000;
    r.simMs.sample(r.simMsValue());
    return r;
}

bool
hasFailure(const std::vector<std::string> &bad, const std::string &needle)
{
    for (const auto &b : bad)
        if (b.find(needle) != std::string::npos)
            return true;
    return false;
}

} // namespace

// ---- metric arithmetic ----------------------------------------------------

TEST(Metrics, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Metrics, PercentileNeedsTenSamplesBeyond)
{
    EXPECT_FALSE(percentile(ramp(19), 0.5).has_value());
    ASSERT_TRUE(percentile(ramp(20), 0.5).has_value());
    EXPECT_DOUBLE_EQ(*percentile(ramp(20), 0.5), 10.0);
    EXPECT_FALSE(percentile(ramp(999), 0.99).has_value());
    ASSERT_TRUE(percentile(ramp(1000), 0.99).has_value());
    EXPECT_DOUBLE_EQ(*percentile(ramp(1000), 0.99), 990.0);
    // Exactly ten samples lie beyond the reported one.
    const std::vector<double> v = ramp(1000);
    const double p99 = *percentile(v, 0.99);
    EXPECT_EQ(std::count_if(v.begin(), v.end(),
                            [&](double x) { return x > p99; }),
              10);
}

TEST(Metrics, PercentileRejectsDegenerateQuantiles)
{
    EXPECT_FALSE(percentile(ramp(5000), 0.0).has_value());
    EXPECT_FALSE(percentile(ramp(5000), 1.0).has_value());
    EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Metrics, PoolEfficiency)
{
    EXPECT_DOUBLE_EQ(poolEfficiency(300.0, 100.0, 4), 0.75);
    EXPECT_DOUBLE_EQ(poolEfficiency(400.0, 100.0, 4), 1.0);
    EXPECT_DOUBLE_EQ(poolEfficiency(100.0, 100.0, 1), 1.0);
    EXPECT_DOUBLE_EQ(poolEfficiency(100.0, 0.0, 4), 0.0);
}

TEST(Metrics, FleetOverheadSubtractsInProcessTime)
{
    // 1.84 s through one worker vs 1.22 s in-process over 4,800 cells.
    EXPECT_NEAR(overheadUsPerCell(1.84, 1.22, 4800), 129.1667, 1e-3);
    EXPECT_LT(overheadUsPerCell(1.0, 1.2, 100), 0.0);
    EXPECT_DOUBLE_EQ(overheadUsPerCell(1.0, 0.5, 0), 0.0);
}

TEST(Metrics, UncoveredShare)
{
    EXPECT_DOUBLE_EQ(uncoveredShare(100.0, 95.0), 0.05);
    EXPECT_DOUBLE_EQ(uncoveredShare(0.0, 1.0), 0.0);
}

TEST(Metrics, DigestSeesEveryByte)
{
    Digest a;
    Digest b;
    a.add(std::uint64_t{1});
    b.add(std::uint64_t{2});
    EXPECT_NE(a.value(), b.value());
    Digest c;
    c.add(std::uint64_t{1});
    EXPECT_EQ(a.value(), c.value());
}

TEST(Metrics, SeedsAreDeterministicDistinctAndPerStream)
{
    const auto a = derivedSeeds(7, "grid-short", 500);
    EXPECT_EQ(a, derivedSeeds(7, "grid-short", 500));
    EXPECT_EQ(std::set<std::uint64_t>(a.begin(), a.end()).size(), 500u);
    EXPECT_NE(a, derivedSeeds(8, "grid-short", 500));
    EXPECT_NE(a, derivedSeeds(7, "harvest-long", 500));
}

TEST(Spans, SelfTimeExcludesChildren)
{
    SpanLog log;
    const auto parent = log.open("cell", -1, 0);
    const auto child = log.open("board.run", parent, 0);
    log.close(child);
    log.close(parent);
    EXPECT_NEAR(log.selfUs(parent),
                log.at(parent).durUs() - log.at(child).durUs(), 1e-9);
    EXPECT_GE(log.selfUs(parent), 0.0);
}

// ---- correctness checks: fabricated bad results must trip them --------------

TEST(Checks, GoodResultPasses)
{
    EXPECT_TRUE(checkCell(cell("TICS", "continuous"), goodResult(), 1000)
                    .empty());
    EXPECT_TRUE(checkCell(cell("plain-C", "continuous"), goodResult(), 1000)
                    .empty());
}

TEST(Checks, OnTimeMustEqualCyclesTimesCycleTime)
{
    CellResult r = goodResult();
    r.onTimeNs += 1;
    EXPECT_TRUE(hasFailure(checkCell(cell("TICS", "continuous"), r, 1000),
                           "on_time_ns != cycles"));
}

TEST(Checks, ElapsedMustCoverOnTime)
{
    CellResult r = goodResult();
    r.elapsedNs = r.onTimeNs - 1;
    EXPECT_TRUE(hasFailure(checkCell(cell("TICS", "continuous"), r, 1000),
                           "elapsed_ns < on_time_ns"));
}

TEST(Checks, ProtectedCompletedButUnverifiedFails)
{
    CellResult r = goodResult();
    r.verified = false;
    EXPECT_TRUE(hasFailure(checkCell(cell("TICS", "rf"), r, 1000),
                           "completed but did not verify"));
}

TEST(Checks, ProtectedMustCompleteOnBenchSupplies)
{
    CellResult r = goodResult();
    r.completed = false;
    r.verified = false;
    EXPECT_TRUE(hasFailure(
        checkCell(cell("Chinchilla-like", "pattern:30:0.6"), r, 1000),
        "did not complete"));
    // On a harvested supply an unfinished run is an outcome, not a
    // failure.
    EXPECT_TRUE(checkCell(cell("TICS", "rf"), r, 1000).empty());
}

TEST(Checks, PlainCOnContinuousMustCompleteAndVerify)
{
    CellResult r = goodResult();
    r.verified = false;
    EXPECT_TRUE(hasFailure(checkCell(cell("plain-C", "continuous"), r, 1000),
                           "plain-C cell did not complete"));
    // Under a reset pattern plain C is allowed to livelock.
    r.completed = false;
    EXPECT_TRUE(
        checkCell(cell("plain-C", "pattern:30:0.6"), r, 1000).empty());
}

TEST(Checks, JobsOneVersusJobsNMismatchIsCaught)
{
    const CellResult a = goodResult();
    EXPECT_EQ(diffResults(a, a), "");
    CellResult b = a;
    b.cycles += 1;
    EXPECT_EQ(diffResults(a, b), "cycles");
    b = a;
    b.reboots = 0;
    EXPECT_EQ(diffResults(a, b), "reboots");
    b = a;
    b.simMs.sample(1.0);
    EXPECT_EQ(diffResults(a, b), "sim_ms");
}

TEST(Checks, OutcomeClasses)
{
    CellResult r = goodResult();
    EXPECT_EQ(classify(cell("TICS", "rf"), r), Outcome::Completed);
    r.completed = false;
    EXPECT_EQ(classify(cell("plain-C", "pattern:30:0.6"), r),
              Outcome::Livelocked);
    EXPECT_EQ(classify(cell("TICS", "rf"), r), Outcome::OutOfBudget);
    r.starved = true;
    EXPECT_EQ(classify(cell("TICS", "rf"), r), Outcome::Starved);
}

TEST(Checks, IndependentBitcountMatchesTheAppsReference)
{
    ticsim::apps::BcParams p;
    EXPECT_EQ(bcExpectedBits(p), ticsim::apps::BcLegacyApp::expectedTotal(p));
    p.iterations = 0;
    EXPECT_EQ(bcExpectedBits(p), 0u);
    p.iterations = 1;
    p.seed = 0;
    EXPECT_EQ(bcExpectedBits(p), std::uint64_t(std::popcount(1013904223u)));
}

TEST(Checks, ExplorationVerdicts)
{
    ticsim::fault::PairExploreResult p;
    p.app = "BC";
    p.runtime = "TICS";
    p.refCompleted = true;
    p.exhausted = true;
    EXPECT_TRUE(checkExplore(p).empty());
    p.confirmedViolations = 1;
    EXPECT_TRUE(hasFailure(checkExplore(p), "protected pair"));
    p.isProtected = false;
    EXPECT_TRUE(checkExplore(p).empty());
    p.confirmedViolations = 0;
    EXPECT_TRUE(hasFailure(checkExplore(p), "no confirmed violation"));
    p.confirmedViolations = 1;
    p.exhausted = false;
    EXPECT_TRUE(hasFailure(checkExplore(p), "not exhausted"));
}

TEST(Checks, ExplorationJobsMismatchIsCaught)
{
    ticsim::fault::PairExploreResult a;
    a.statesExplored = 10;
    ticsim::fault::PairExploreResult b = a;
    EXPECT_EQ(diffExplore(a, b), "");
    b.statesExplored = 11;
    EXPECT_EQ(diffExplore(a, b), "states_explored");
    b = a;
    b.violations.push_back({});
    EXPECT_EQ(diffExplore(a, b), "violations");
}
