#include "checks.hpp"

#include <bit>

namespace ticsbench {

using ticsim::sweep::Cell;
using ticsim::sweep::CellResult;
using ticsim::sweep::SupplyKind;

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Completed:
        return "completed";
      case Outcome::Livelocked:
        return "livelocked";
      case Outcome::Starved:
        return "starved";
      case Outcome::OutOfBudget:
        return "out_of_budget";
    }
    return "?";
}

Outcome
classify(const Cell &cell, const CellResult &r)
{
    if (r.completed)
        return Outcome::Completed;
    if (r.starved)
        return Outcome::Starved;
    if (cell.runtime == "plain-C" && r.reboots > 0)
        return Outcome::Livelocked;
    return Outcome::OutOfBudget;
}

namespace {

/** Cells on a continuous or pattern supply (not harvested, no trace). */
bool
onBenchSupply(const Cell &cell)
{
    return cell.env.empty() &&
           (cell.supply.kind == SupplyKind::Continuous ||
            cell.supply.kind == SupplyKind::Pattern);
}

} // namespace

std::vector<std::string>
checkCell(const Cell &cell, const CellResult &r, std::uint64_t nsPerCycle)
{
    std::vector<std::string> bad;
    const bool isProtected = cell.runtime != "plain-C";
    if (r.onTimeNs != r.cycles * nsPerCycle)
        bad.push_back("on_time_ns != cycles x ns_per_cycle");
    if (r.elapsedNs < r.onTimeNs)
        bad.push_back("elapsed_ns < on_time_ns");
    if (isProtected && r.completed && !r.verified)
        bad.push_back("protected cell completed but did not verify");
    if (isProtected && onBenchSupply(cell) && !r.completed)
        bad.push_back("protected cell did not complete on " +
                      cell.supply.token());
    if (!isProtected && cell.env.empty() &&
        cell.supply.kind == SupplyKind::Continuous &&
        !(r.completed && r.verified))
        bad.push_back("plain-C cell did not complete and verify on a "
                      "continuous supply");
    return bad;
}

std::string
diffResults(const CellResult &a, const CellResult &b)
{
    if (a.completed != b.completed)
        return "completed";
    if (a.starved != b.starved)
        return "starved";
    if (a.verified != b.verified)
        return "verified";
    if (a.reboots != b.reboots)
        return "reboots";
    if (a.cycles != b.cycles)
        return "cycles";
    if (a.elapsedNs != b.elapsedNs)
        return "elapsed_ns";
    if (a.onTimeNs != b.onTimeNs)
        return "on_time_ns";
    if (a.simMs.encode() != b.simMs.encode())
        return "sim_ms";
    return "";
}

std::uint64_t
bcExpectedBits(const ticsim::apps::BcParams &p)
{
    std::uint32_t x = p.seed;
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < p.iterations; ++i) {
        x = x * 1664525u + 1013904223u;
        total += static_cast<std::uint64_t>(std::popcount(x));
    }
    return total;
}

std::vector<std::string>
checkExplore(const ticsim::fault::PairExploreResult &p)
{
    std::vector<std::string> bad;
    if (!p.refCompleted)
        bad.push_back("reference run did not complete");
    if (!p.recordingConsistent)
        bad.push_back("recording diverged from the reference");
    if (!p.exhausted)
        bad.push_back("walk not exhausted");
    if (p.isProtected && p.confirmedViolations != 0)
        bad.push_back("protected pair has confirmed violations");
    if (!p.isProtected && p.confirmedViolations == 0)
        bad.push_back("plain-C pair has no confirmed violation");
    return bad;
}

std::string
diffExplore(const ticsim::fault::PairExploreResult &a,
            const ticsim::fault::PairExploreResult &b)
{
    if (a.statesExplored != b.statesExplored)
        return "states_explored";
    if (a.branchesTaken != b.branchesTaken)
        return "branches_taken";
    if (a.decisionPoints != b.decisionPoints)
        return "decision_points";
    if (a.exhausted != b.exhausted)
        return "exhausted";
    if (a.confirmedViolations != b.confirmedViolations)
        return "confirmed_violations";
    if (a.violations.size() != b.violations.size())
        return "violations";
    for (std::size_t i = 0; i < a.violations.size(); ++i)
        if (a.violations[i].plan != b.violations[i].plan ||
            a.violations[i].kind != b.violations[i].kind)
            return "violation plan";
    return "";
}

} // namespace ticsbench
