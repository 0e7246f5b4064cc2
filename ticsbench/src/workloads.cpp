#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "cells.hpp"
#include "device/costs.hpp"
#include "energy/trace_supply.hpp"
#include "fault/explore.hpp"
#include "fault/plan.hpp"
#include "fleet/coordinator.hpp"
#include "mem/nv.hpp"
#include "mem/nvram.hpp"
#include "metrics.hpp"
#include "perf/counters.hpp"
#include "perf/host_profiler.hpp"
#include "spans.hpp"
#include "sweep/grid.hpp"
#include "sweep/sweep.hpp"

namespace ticsbench {

using namespace ticsim;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** splitmix64 finalizer (seed derivation). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

std::vector<std::uint64_t>
derivedSeeds(std::uint64_t benchSeed, const std::string &stream,
             std::size_t n)
{
    const std::uint64_t base = mix64(benchSeed) ^ sweep::fnv1a64(stream);
    std::vector<std::uint64_t> out;
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t i = 0; out.size() < n; ++i) {
        const std::uint64_t s = mix64(base + i) >> 32;
        if (seen.insert(s).second)
            out.push_back(s);
    }
    return out;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Report::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "grid-short", "harvest-long", "mc-proof", "fleet-short"};
    return names;
}

namespace {

const std::vector<std::string> kRuntimes{
    "TICS", "plain-C", "MementOS-like", "Chinchilla-like", "Alpaca-like"};
const std::vector<std::string> kEnvs{"rf_mobile", "thermal_gradient",
                                     "solar_diurnal"};
/** Setups per run; setup_s is their median. */
constexpr int kSetups = 7;
/** Rounds every timed run makes at least, whatever --seconds says. */
constexpr int kMinRounds = 2;

/** Input sizes; --smoke shrinks every one of them. */
struct Sizes {
    std::size_t gridSeeds;    ///< grid-short / fleet-short: 30 cells each
    std::size_t harvestSeeds; ///< rf + stochastic: 30 cells each
    std::size_t envStrata;    ///< start-time bins per env trace: 15 each
    std::size_t livelockSeeds; ///< BC/plain-C on pattern:30:0.6
    std::size_t refSeeds;     ///< mc-proof reference cells: 20 each
    std::uint32_t mcDepth;
};

Sizes
sizesFor(const Options &opt)
{
    if (opt.smoke)
        return Sizes{2, 1, 2, 1, 2, 1};
    return Sizes{160, 10, 12, 20, 50, 2};
}

sweep::SupplyAxis
supply(const char *token)
{
    sweep::SupplyAxis a;
    if (!sweep::parseSupplyToken(token, a))
        throw std::logic_error(std::string("bad supply token ") + token);
    return a;
}

sweep::GridSpec
makeGrid(std::vector<std::string> apps,
         std::vector<sweep::SupplyAxis> supplies,
         std::vector<std::uint64_t> seeds, std::string env = "",
         std::vector<std::string> runtimes = kRuntimes)
{
    sweep::GridSpec g;
    g.apps = std::move(apps);
    g.runtimes = std::move(runtimes);
    g.supplies = std::move(supplies);
    g.envs = {std::move(env)};
    g.seeds = std::move(seeds);
    return g;
}

std::shared_ptr<const energy::EnvTrace>
loadTrace(const Options &opt, const std::string &name)
{
    std::string err;
    auto t = energy::EnvTrace::load(opt.traceDir + "/" + name + ".csv", err);
    if (!t)
        throw std::runtime_error("cannot load trace " + name + ": " + err);
    return t;
}

/**
 * One seed per equal-length bin of the trace's timeline, so every run
 * starts the same share of devices at night, at dawn and so on,
 * whatever the benchmark seed: the seeds differ, the mix does not.
 */
std::vector<std::uint64_t>
stratifiedSeeds(std::uint64_t benchSeed, const std::string &env,
                const energy::EnvTrace &trace, std::size_t strata)
{
    const std::uint64_t base =
        mix64(benchSeed) ^ sweep::fnv1a64("env:" + env);
    const auto dur = static_cast<std::uint64_t>(trace.duration());
    std::vector<std::uint64_t> out;
    for (std::uint64_t bin = 0; bin < strata; ++bin) {
        for (std::uint64_t a = 0;; ++a) {
            const std::uint64_t s = mix64(base + (bin << 24) + a) >> 32;
            const auto off = static_cast<std::uint64_t>(
                energy::TraceSupply::offsetForSeed(s, trace));
            if (off * strata / dur == bin) {
                out.push_back(s);
                break;
            }
        }
    }
    return out;
}

/** The cells a workload runs: grids in order, each enumerated. */
struct CellPlan {
    std::vector<sweep::GridSpec> grids;
    std::vector<std::vector<sweep::Cell>> cells;
    std::size_t total = 0;
};

CellPlan
planCells(const Options &opt)
{
    const Sizes sz = sizesFor(opt);
    CellPlan plan;
    const std::vector<std::string> allApps{"AR", "BC", "CF"};
    if (opt.workload == "grid-short" || opt.workload == "fleet-short") {
        plan.grids.push_back(makeGrid(
            allApps, {supply("continuous"), supply("pattern:30:0.6")},
            derivedSeeds(opt.seed, "grid-short", sz.gridSeeds)));
    } else if (opt.workload == "harvest-long") {
        plan.grids.push_back(makeGrid(
            allApps, {supply("rf"), supply("stochastic")},
            derivedSeeds(opt.seed, "harvest-long", sz.harvestSeeds)));
        for (const std::string &env : kEnvs) {
            const auto trace = loadTrace(opt, env);
            plan.grids.push_back(makeGrid(
                allApps, {supply("continuous")},
                stratifiedSeeds(opt.seed, env, *trace, sz.envStrata), env));
        }
        // The livelock row: plain C restarts BC from scratch on every
        // reboot of the reset pattern until its budget runs out.
        plan.grids.push_back(makeGrid(
            {"BC"}, {supply("pattern:30:0.6")},
            derivedSeeds(opt.seed, "harvest-long-livelock", sz.livelockSeeds),
            "", {"plain-C"}));
    } else {
        // mc-proof: the explored pairs' own cells (BC and Cuckoo under
        // every runtime), which its traced run times layer by layer.
        plan.grids.push_back(makeGrid(
            {"BC", "CF"}, {supply("continuous"), supply("pattern:30:0.6")},
            derivedSeeds(opt.seed, "mc-proof", sz.refSeeds)));
    }
    for (const auto &g : plan.grids) {
        plan.cells.push_back(g.cells());
        plan.total += plan.cells.back().size();
    }
    return plan;
}

sweep::SweepConfig
sweepConfig(const sweep::GridSpec &grid, unsigned jobs)
{
    sweep::SweepConfig cfg;
    cfg.grid = grid;
    cfg.jobs = jobs;
    cfg.useCache = false;
    return cfg;
}

/** One pass over every cell of a plan at one worker count. */
struct Batch {
    double seconds = 0.0;
    std::vector<sweep::SweepCellOutcome> cells;
    bool complete = true;
    std::uint64_t workersSpawned = 0;
    std::uint64_t retries = 0;
};

Batch
runBatch(const CellPlan &plan, unsigned workers, bool viaFleet,
         const Options &opt)
{
    Batch b;
    std::vector<sweep::SweepResult> parts;
    parts.reserve(plan.grids.size());
    const double t0 = nowS();
    for (const auto &grid : plan.grids) {
        if (viaFleet) {
            fleet::FleetConfig fc;
            fc.sweep = sweepConfig(grid, workers);
            fc.workers = workers;
            fc.workerBin = opt.workerBin;
            fleet::FleetResult r = fleet::runFleet(fc);
            b.complete = b.complete && r.complete;
            b.workersSpawned += r.fleet.workersSpawned;
            b.retries += r.fleet.retries;
            parts.push_back(std::move(r.sweep));
        } else {
            parts.push_back(sweep::runSweep(sweepConfig(grid, workers)));
        }
    }
    b.seconds = nowS() - t0;
    for (auto &p : parts)
        for (auto &c : p.cells)
            b.cells.push_back(std::move(c));
    return b;
}

std::uint64_t
nsPerCycle()
{
    return static_cast<std::uint64_t>(device::CostModel{}.cycleTimeNs());
}

/**
 * Check every cell of @p b and, with @p ref, that it is bit-identical
 * to the reference pass. Each cell is one attempted operation.
 */
void
checkBatch(const Batch &b, const Batch *ref, const char *label,
           Report &out)
{
    const std::uint64_t ns = nsPerCycle();
    for (std::size_t i = 0; i < b.cells.size(); ++i) {
        const sweep::SweepCellOutcome &o = b.cells[i];
        std::vector<std::string> bad = checkCell(o.cell, o.result, ns);
        if (ref) {
            const std::string d =
                i < ref->cells.size()
                    ? diffResults(ref->cells[i].result, o.result)
                    : "missing";
            if (!d.empty())
                bad.push_back("differs from the jobs-1 pass in " + d);
        }
        ++out.attempted;
        if (!bad.empty())
            out.fail(std::string(label) + " " + o.cell.label() + ": " +
                     bad.front());
    }
    if (ref && b.cells.size() != ref->cells.size())
        out.fail(std::string(label) + ": cell count differs");
    if (!b.complete)
        out.fail(std::string(label) + ": fleet run incomplete");
}

std::uint64_t
digestCells(const std::vector<sweep::SweepCellOutcome> &cells)
{
    Digest d;
    for (const auto &o : cells) {
        d.add(o.cell.canonical());
        d.add(o.result.completed);
        d.add(o.result.starved);
        d.add(o.result.verified);
        d.add(o.result.reboots);
        d.add(o.result.cycles);
        d.add(o.result.elapsedNs);
        d.add(o.result.onTimeNs);
        d.add(o.result.simMs.encode());
    }
    return d.value();
}

void
countOutcomes(const std::vector<sweep::SweepCellOutcome> &cells,
              Report &out)
{
    out.outcomes = {};
    for (const auto &o : cells)
        ++out.outcomes[static_cast<int>(classify(o.cell, o.result))];
}

std::string
join(const std::vector<double> &v)
{
    std::string s;
    char buf[32];
    for (const double x : v) {
        std::snprintf(buf, sizeof(buf), "%s%.1f", s.empty() ? "" : " ", x);
        s += buf;
    }
    return s;
}

// ---- set-up ---------------------------------------------------------------

/** Load the trace CSVs the workload reads, enumerate its cells and run
 *  one warm-up cell per configuration. */
CellPlan
setUpCells(const Options &opt, bool viaFleet)
{
    CellPlan plan = planCells(opt);
    // One warm-up cell per configuration, at each grid's middle seed
    // (the midday stratum of a trace grid, so the warm-up never waits
    // out a night), run at N workers so the pool's threads and their
    // allocator arenas exist before the first timed pass.
    CellPlan warm;
    for (const auto &grid : plan.grids) {
        warm.grids.push_back(grid);
        warm.grids.back().seeds = {grid.seeds[grid.seeds.size() / 2]};
    }
    const Batch b = runBatch(warm, opt.jobsN, viaFleet, opt);
    if (!b.complete)
        throw std::runtime_error("warm-up run incomplete");
    return plan;
}

fault::ExploreConfig
mcConfig(const Options &opt)
{
    fault::ExploreConfig cfg;
    // ticsmc's exploration sizes (the smallest apps that still cross
    // several commit boundaries), except Cuckoo at 4 keys instead of 8:
    // 52k explored states per pass instead of 136k, so one run holds
    // enough rounds for a steady median.
    cfg.base.bc.iterations = 2;
    cfg.base.cuckoo.workScale = 1.0;
    cfg.base.cuckoo.keys = 4;
    cfg.base.seed = derivedSeeds(opt.seed, "mc-proof-board", 1).front();
    cfg.maxFaults = sizesFor(opt).mcDepth;
    return cfg;
}

/** The pairs, each warmed up by a depth-1 exploration at N workers. */
std::vector<fault::PairSpec>
setUpPairs(const fault::ExploreConfig &cfg, unsigned jobsN)
{
    std::vector<fault::PairSpec> specs = fault::campaignPairs(cfg.base);
    fault::ExploreConfig warm = cfg;
    warm.maxFaults = 1;
    warm.jobs = jobsN;
    for (const auto &p : fault::exploreMatrix(warm, specs).pairs)
        if (!p.refCompleted)
            throw std::runtime_error("mc-proof warm-up: " + p.app + "/" +
                                     p.runtime + " did not complete");
    return specs;
}

/** Run @p setUp kSetups times; the first is timed from process start.
 *  @return the median set-up time; @p keep gets the last result. */
template <typename F, typename T>
double
timedSetUps(const Options &opt, const F &setUp, T &keep)
{
    std::vector<double> times;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = i == 0 ? opt.processStartS : nowS();
        keep = setUp();
        times.push_back(nowS() - t0);
    }
    return median(times);
}

/** Whether another round of @p lastRoundS fits before @p deadline. */
bool
roundFits(int rounds, double lastRoundS, double deadline)
{
    return rounds < kMinRounds || nowS() + lastRoundS <= deadline;
}

// ---- mc-proof -------------------------------------------------------------

struct ExplorePass {
    std::vector<fault::PairExploreResult> pairs;
    std::vector<double> pairSeconds; ///< per-pair (jobs-1 pass only)
    double seconds = 0.0;
};

ExplorePass
exploreJ1(const fault::ExploreConfig &base,
          const std::vector<fault::PairSpec> &specs, SpanLog *log,
          std::int32_t parent)
{
    fault::ExploreConfig cfg = base;
    cfg.jobs = 1;
    ExplorePass p;
    const double t0 = nowS();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double p0 = nowS();
        const std::int32_t span =
            log ? log->open("fault.explore_pair", parent,
                            static_cast<std::int64_t>(i))
                : -1;
        p.pairs.push_back(fault::explorePair(cfg, specs[i]));
        if (log)
            log->close(span);
        p.pairSeconds.push_back(nowS() - p0);
    }
    p.seconds = nowS() - t0;
    return p;
}

ExplorePass
exploreJN(const fault::ExploreConfig &base,
          const std::vector<fault::PairSpec> &specs, unsigned jobs)
{
    fault::ExploreConfig cfg = base;
    cfg.jobs = jobs;
    ExplorePass p;
    const double t0 = nowS();
    p.pairs = fault::exploreMatrix(cfg, specs).pairs;
    p.seconds = nowS() - t0;
    return p;
}

void
checkExplorePass(const ExplorePass &p, const ExplorePass *ref,
                 const char *label, Report &out)
{
    for (std::size_t i = 0; i < p.pairs.size(); ++i) {
        const auto &pr = p.pairs[i];
        std::vector<std::string> bad = checkExplore(pr);
        if (ref) {
            const std::string d = i < ref->pairs.size()
                                      ? diffExplore(ref->pairs[i], pr)
                                      : "missing";
            if (!d.empty())
                bad.push_back("differs from the jobs-1 pass in " + d);
        }
        ++out.attempted;
        if (!bad.empty())
            out.fail(std::string(label) + " " + pr.app + "/" + pr.runtime +
                     ": " + bad.front());
    }
}

/**
 * Replay every confirmed minimal plan through the from-boot injector
 * (fault::replayPlan). A plan that replays clean fails its pair.
 * @return plans replayed.
 */
std::uint64_t
replayPlans(const fault::ExploreConfig &cfg, const ExplorePass &p,
            Report &out)
{
    std::uint64_t replayed = 0;
    for (const auto &pr : p.pairs) {
        std::string bad;
        for (const auto &v : pr.violations) {
            if (!v.confirmed)
                continue;
            fault::FaultPlan plan;
            std::string verdict;
            ++replayed;
            if (!fault::FaultPlan::parse(v.plan, plan)) {
                bad = "unparseable plan " + v.plan;
            } else if (!fault::replayPlan(cfg.base,
                                          pr.app + "/" + pr.runtime, plan,
                                          verdict) ||
                       verdict == "consistent") {
                bad = "plan " + v.plan + " does not replay as a violation";
            }
        }
        if (!bad.empty())
            out.fail("replay " + pr.app + "/" + pr.runtime + ": " + bad);
    }
    return replayed;
}

std::uint64_t
digestPairs(const std::vector<fault::PairExploreResult> &pairs)
{
    Digest d;
    for (const auto &p : pairs) {
        d.add(p.app);
        d.add(p.runtime);
        d.add(p.decisionPoints);
        d.add(p.branchesTaken);
        d.add(p.statesExplored);
        d.add(p.exhausted);
        d.add(p.confirmedViolations);
        for (const auto &v : p.violations) {
            d.add(v.plan);
            d.add(v.kind);
            d.add(v.divergentBytes);
            d.add(v.confirmed);
        }
    }
    return d.value();
}

// ---- timed (end-to-end) runs ----------------------------------------------

void
timedCells(const Options &opt, Report &out)
{
    const bool viaFleet = opt.workload == "fleet-short";
    CellPlan plan;
    const double setupS = timedSetUps(
        opt, [&] { return setUpCells(opt, viaFleet); }, plan);
    if (opt.digestOnly) {
        const Batch b = runBatch(plan, 1, false, opt);
        out.digest = digestCells(b.cells);
        return;
    }
    const double deadline = nowS() + opt.seconds;
    std::vector<double> rate1;
    std::vector<double> rateN;
    Batch first;
    double lastRound = 0.0;
    for (int round = 0; roundFits(round, lastRound, deadline); ++round) {
        const double r0 = nowS();
        Batch b1 = runBatch(plan, 1, viaFleet, opt);
        Batch bN = runBatch(plan, opt.jobsN, viaFleet, opt);
        rate1.push_back(static_cast<double>(plan.total) / b1.seconds);
        rateN.push_back(static_cast<double>(plan.total) / bN.seconds);
        checkBatch(b1, nullptr, viaFleet ? "fleet-1" : "jobs-1", out);
        checkBatch(bN, &b1, viaFleet ? "fleet-N" : "jobs-N", out);
        if (round == 0)
            first = std::move(b1);
        lastRound = nowS() - r0;
        if (opt.smoke)
            break;
    }
    if (viaFleet) {
        // The fleet's results must also equal the in-process engine's.
        // One thread: this is the only pass that builds Boards in this
        // process, and N threads' allocator arenas would make the peak
        // RSS bimodal from run to run.
        Batch inProc = runBatch(plan, 1, false, opt);
        checkBatch(inProc, &first, "in-process", out);
    }
    countOutcomes(first.cells, out);
    out.digest = digestCells(first.cells);
    out.notes.push_back("cells per round: " + std::to_string(plan.total) +
                        ", rounds: " + std::to_string(rate1.size()));
    out.notes.push_back("per-round cells/s at 1 worker: " + join(rate1));
    out.notes.push_back("per-round cells/s at N workers: " + join(rateN));
    out.metric("setup_s", setupS, "s");
    out.metric("ops_per_sec.j1", median(rate1), "1/s");
    out.metric("ops_per_sec.jN", median(rateN), "1/s");
    out.metric("peak_rss_mib", peakRssMiB(), "MiB");
}

void
timedMc(const Options &opt, Report &out)
{
    const fault::ExploreConfig cfg = mcConfig(opt);
    std::vector<fault::PairSpec> specs;
    const double setupS =
        timedSetUps(opt, [&] { return setUpPairs(cfg, opt.jobsN); }, specs);
    if (opt.digestOnly) {
        out.digest = digestPairs(exploreJ1(cfg, specs, nullptr, -1).pairs);
        return;
    }
    const double deadline = nowS() + opt.seconds;
    std::vector<double> rate1;
    std::vector<double> rateN;
    ExplorePass first;
    double lastRound = 0.0;
    const auto pairs = static_cast<double>(specs.size());
    for (int round = 0; roundFits(round, lastRound, deadline); ++round) {
        const double r0 = nowS();
        // A fixed order: every jobs-1 pass but the first follows a
        // jobs-N pass, and set-up ends with one (setUpPairs), so all of
        // them start from the same allocator state.
        ExplorePass p1 = exploreJ1(cfg, specs, nullptr, -1);
        ExplorePass pN = exploreJN(cfg, specs, opt.jobsN);
        rate1.push_back(pairs / p1.seconds);
        rateN.push_back(pairs / pN.seconds);
        checkExplorePass(p1, nullptr, "jobs-1", out);
        checkExplorePass(pN, &p1, "jobs-N", out);
        if (round == 0)
            first = std::move(p1);
        lastRound = nowS() - r0;
        if (opt.smoke)
            break;
    }
    const std::uint64_t replayed = replayPlans(cfg, first, out);
    out.digest = digestPairs(first.pairs);
    out.notes.push_back("per-round pairs/s at 1 worker: " + join(rate1));
    out.notes.push_back("per-round pairs/s at N workers: " + join(rateN));
    out.notes.push_back("pairs per round: " + std::to_string(specs.size()) +
                        ", rounds: " + std::to_string(rate1.size()) +
                        ", plans replayed from boot: " +
                        std::to_string(replayed));
    out.metric("setup_s", setupS, "s");
    out.metric("ops_per_sec.j1", median(rate1), "1/s");
    out.metric("ops_per_sec.jN", median(rateN), "1/s");
    out.metric("peak_rss_mib", peakRssMiB(), "MiB");
}

// ---- traced (per-layer) runs ----------------------------------------------

/** Host ns of one nv<T> store through the public API (median of 7). */
double
nvStoreNs()
{
    constexpr std::uint64_t kStores = 1'000'000;
    std::vector<double> reps;
    for (int r = 0; r < 7; ++r) {
        mem::NvRam ram;
        mem::nv<std::uint64_t> x(ram, "ticsbench.x");
        const double t0 = nowS();
        for (std::uint64_t i = 0; i < kStores; ++i)
            x = i;
        const double t1 = nowS();
        if (x.get() != kStores - 1)
            throw std::logic_error("nv<T> store lost");
        reps.push_back((t1 - t0) * 1e9 / static_cast<double>(kStores));
    }
    return median(reps);
}

void
counterMetrics(const perf::HotCounters &c, Report &out)
{
    const auto count = [&](const char *name, std::uint64_t v) {
        out.metric(name, static_cast<double>(v), "count");
    };
    count("tics.ckpt_commits", c.ckptCommits);
    count("tics.ckpt_bytes_moved", c.ckptBytesMoved);
    count("tics.ckpt_restores", c.ckptRestores);
    count("tics.undo_records_sealed", c.undoRecordsSealed);
    count("mem.nv_stores", c.nvStores);
    count("mem.nv_store_bytes", c.nvStoreBytes);
    count("mem.hook_dispatches", c.hookDispatches);
    count("telemetry.event_pushes", c.eventPushes);
    count("telemetry.event_drops", c.eventDrops);
}

/** Per-layer figures of the cell pipeline, accumulated over rounds. */
struct CellTrace {
    std::vector<double> makeBoardUs, constructUs, runUs, verifyUs, cellUs;
    double cycles = 0.0, runS = 0.0;
    double rebootRunUs = 0.0, reboots = 0.0;
    double makeBoardSum = 0.0, cellSum = 0.0, selfSum = 0.0;
    std::vector<double> poolEff, aggregateMs, reportMs;
    std::vector<double> tracedRate, untracedRate;
    std::vector<double> fleetOverhead1, fleetOverheadN;
    double zoneSimCore = 0.0, zoneCheckpoint = 0.0, zoneRestore = 0.0;
    std::uint64_t zoneCells = 0;
    std::uint64_t workersSpawned = 0, retries = 0;
    std::uint64_t firstRoundReboots = 0;
    perf::HotCounters counters{};
};

/**
 * One traced round of the cell pipeline: an untraced jobs-1 pass, the
 * same cells assembled phase by phase under spans (bit-compared with
 * the untraced pass), a profiled jobs-1 pass for the perf zones plus
 * timed aggregation and reporting, a jobs-N pass, and the fleet at one
 * and N workers.
 */
void
traceCellRound(const Options &opt, const CellPlan &plan, int round,
               SpanLog &log, CellTrace &t, Report &out)
{
    const std::int32_t roundSpan = log.open("round", -1, round);
    const auto cells = static_cast<double>(plan.total);

    Batch untraced;
    {
        ScopedSpan s(log, "sweep.run_sweep.j1", roundSpan);
        untraced = runBatch(plan, 1, false, opt);
    }
    checkBatch(untraced, nullptr, "jobs-1", out);

    // Cells assembled by the benchmark, phase by phase.
    const perf::HotCounters before = perf::mergedCounters();
    const std::int32_t asmSpan = log.open("assembled", roundSpan);
    std::size_t k = 0;
    std::uint64_t reboots = 0;
    const std::uint64_t ns = nsPerCycle();
    for (std::size_t g = 0; g < plan.grids.size(); ++g) {
        const sweep::SweepConfig cfg = sweepConfig(plan.grids[g], 1);
        for (const sweep::Cell &cell : plan.cells[g]) {
            CellPhases ph;
            const auto id = static_cast<std::int64_t>(k);
            const sweep::CellResult r =
                assembleCell(cell, cfg, log, asmSpan, id, ph);
            std::vector<std::string> bad = checkCell(cell, r, ns);
            const std::string d = diffResults(untraced.cells[k].result, r);
            if (!d.empty())
                bad.push_back("assembled cell differs from runCell in " + d);
            if (ph.isBitcount && r.completed && ph.bcBits != ph.bcExpected)
                bad.push_back("bit total != independent popcount sum");
            ++out.attempted;
            if (!bad.empty())
                out.fail("assembled " + cell.label() + ": " + bad.front());
            t.makeBoardUs.push_back(ph.makeBoardUs);
            t.constructUs.push_back(ph.constructUs);
            t.runUs.push_back(ph.runUs);
            t.verifyUs.push_back(ph.verifyUs);
            t.cellUs.push_back(ph.totalUs);
            t.cycles += static_cast<double>(r.cycles);
            t.runS += ph.runUs * 1e-6;
            if (r.reboots > 0) {
                t.rebootRunUs += ph.runUs;
                t.reboots += static_cast<double>(r.reboots);
            }
            reboots += r.reboots;
            t.makeBoardSum += ph.makeBoardUs;
            t.cellSum += ph.totalUs;
            ++k;
        }
    }
    log.close(asmSpan);
    if (round == 0) {
        t.counters = perf::mergedCounters().delta(before);
        t.firstRoundReboots = reboots;
    }
    const double asmS = log.at(asmSpan).durUs() * 1e-6;
    t.tracedRate.push_back(cells / asmS);
    t.untracedRate.push_back(cells / untraced.seconds);

    // Perf zones over a profiled jobs-1 pass, then aggregation and
    // report rendering timed on their own.
    {
        ScopedSpan s(log, "sweep.run_sweep.profiled", roundSpan);
        const perf::HostProfiler p0 = perf::mergedProfiler();
        perf::ScopedProfilerEnable on(true);
        const Batch profiled = runBatch(plan, 1, false, opt);
        const perf::HostProfiler p1 = perf::mergedProfiler();
        const auto zone = [&](perf::HostZone z) {
            return (p1.zoneNs(z) - p0.zoneNs(z)) * 1e-3;
        };
        t.zoneSimCore += zone(perf::HostZone::SimCore);
        t.zoneCheckpoint += zone(perf::HostZone::Checkpoint);
        t.zoneRestore += zone(perf::HostZone::Restore);
        t.zoneCells += profiled.cells.size();
    }
    {
        sweep::SweepResult r;
        r.cells = untraced.cells;
        const double a0 = nowS();
        {
            ScopedSpan s(log, "sweep.aggregate", roundSpan);
            r.aggregates = sweep::aggregateOutcomes(r.cells);
        }
        const double a1 = nowS();
        {
            ScopedSpan s(log, "sweep.report", roundSpan);
            std::ostringstream os;
            const harness::GridSection gs = sweep::toGridSection(r, false);
            sweep::sweepTable(r).print(os);
            sweep::aggregateTable(r).print(os);
            if (gs.cells.size() != r.cells.size() || os.str().empty())
                out.fail("report: grid section lost cells");
        }
        t.aggregateMs.push_back((a1 - a0) * 1e3);
        t.reportMs.push_back((nowS() - a1) * 1e3);
    }

    Batch jN;
    {
        ScopedSpan s(log, "sweep.run_sweep.jN", roundSpan);
        jN = runBatch(plan, opt.jobsN, false, opt);
    }
    checkBatch(jN, &untraced, "jobs-N", out);
    t.poolEff.push_back(poolEfficiency(cells / jN.seconds,
                                       cells / untraced.seconds, opt.jobsN));

    for (const unsigned workers : {1u, opt.jobsN}) {
        Batch f;
        {
            ScopedSpan s(log, workers == 1 ? "fleet.run_fleet.j1"
                                           : "fleet.run_fleet.jN",
                         roundSpan);
            f = runBatch(plan, workers, true, opt);
        }
        checkBatch(f, &untraced, workers == 1 ? "fleet-1" : "fleet-N", out);
        t.workersSpawned += f.workersSpawned;
        t.retries += f.retries;
        const double inProc = workers == 1 ? untraced.seconds : jN.seconds;
        (workers == 1 ? t.fleetOverhead1 : t.fleetOverheadN)
            .push_back(overheadUsPerCell(f.seconds, inProc, plan.total));
    }
    if (round == 0) {
        countOutcomes(untraced.cells, out);
        out.digest = digestCells(untraced.cells);
    }
    log.close(roundSpan);
    // The cell span's self time: host time inside a cell that no phase
    // span covers.
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
        const Span &s = log.spans()[i];
        if (s.parent == asmSpan && std::string_view(s.name) == "cell")
            t.selfSum += log.selfUs(static_cast<std::int32_t>(i));
    }
}

/** Percentile @p q of @p v, or 0 with a note when too few samples. */
double
pct(const std::vector<double> &v, double q, Report &out, const char *name)
{
    const std::optional<double> r = percentile(v, q);
    if (!r) {
        out.notes.push_back(std::string(name) + ": too few samples (" +
                            std::to_string(v.size()) + ")");
        return 0.0;
    }
    return *r;
}

void
cellTraceMetrics(const CellTrace &t, Report &out)
{
    const auto n = static_cast<double>(t.cellUs.size());
    out.metric("harness.make_board_us.p50",
               pct(t.makeBoardUs, 0.5, out, "make_board"), "us");
    out.metric("board.run_us.p50", pct(t.runUs, 0.5, out, "run"), "us");
    out.metric("board.run_us.p99", pct(t.runUs, 0.99, out, "run"), "us");
    out.metric("board.mcu_cycles_per_host_s",
               t.runS > 0 ? t.cycles / t.runS : 0.0, "1/s");
    out.metric("board.host_us_per_reboot",
               t.reboots > 0 ? t.rebootRunUs / t.reboots : 0.0, "us");
    out.metric("board.reboots", static_cast<double>(t.firstRoundReboots),
               "count");
    out.metric("board.construct_share",
               t.cellSum > 0 ? t.makeBoardSum / t.cellSum : 0.0, "ratio");
    out.metric("runtime.construct_us.p50",
               pct(t.constructUs, 0.5, out, "construct"), "us");
    out.metric("apps.verify_us.p50", pct(t.verifyUs, 0.5, out, "verify"),
               "us");
    out.metric("sweep.cell_host_us.p50", pct(t.cellUs, 0.5, out, "cell"),
               "us");
    out.metric("sweep.cell_host_us.p99", pct(t.cellUs, 0.99, out, "cell"),
               "us");
    out.metric("sweep.cell_host_samples", n, "count");
    out.metric("sweep.unattributed_us_per_cell",
               n > 0 ? t.selfSum / n : 0.0, "us");
    out.metric("sweep.unattributed_share",
               t.cellSum > 0 ? t.selfSum / t.cellSum : 0.0, "ratio");
    out.metric("sweep.pool_efficiency.jN", median(t.poolEff), "ratio");
    out.metric("sweep.aggregate_ms", median(t.aggregateMs), "ms");
    out.metric("sweep.report_ms", median(t.reportMs), "ms");
    const double zc = t.zoneCells ? static_cast<double>(t.zoneCells) : 1.0;
    out.metric("zone.sim_core_us_per_cell", t.zoneSimCore / zc, "us");
    out.metric("zone.checkpoint_us_per_cell", t.zoneCheckpoint / zc, "us");
    out.metric("zone.restore_us_per_cell", t.zoneRestore / zc, "us");
    const double traced = median(t.tracedRate);
    const double untraced = median(t.untracedRate);
    out.metric("trace.traced_cells_per_sec", traced, "1/s");
    out.metric("trace.untraced_cells_per_sec", untraced, "1/s");
    out.metric("trace.overhead_share", uncoveredShare(untraced, traced),
               "ratio");
    out.metric("fleet.overhead_us_per_cell.j1", median(t.fleetOverhead1),
               "us");
    out.metric("fleet.overhead_us_per_cell.jN", median(t.fleetOverheadN),
               "us");
    out.metric("fleet.workers_spawned",
               static_cast<double>(t.workersSpawned), "count");
    out.metric("fleet.retries", static_cast<double>(t.retries), "count");
}

void
outcomeMetrics(Report &out)
{
    for (int o = 0; o < kOutcomeCount; ++o)
        out.metric(std::string("outcome.") +
                       outcomeName(static_cast<Outcome>(o)),
                   static_cast<double>(out.outcomes[o]), "count");
}

/** The explorer's per-layer figures (zero on the cell workloads). */
struct FaultTrace {
    std::vector<double> statesPerSec, slowestShare, poolEff;
    std::uint64_t states = 0, branches = 0, violations = 0, replayed = 0;
    perf::HotCounters counters{};
};

void
faultMetrics(const FaultTrace &f, Report &out)
{
    out.metric("fault.states_per_sec.j1", median(f.statesPerSec), "1/s");
    out.metric("fault.slowest_pair_share", median(f.slowestShare), "ratio");
    out.metric("fault.pool_efficiency.jN", median(f.poolEff), "ratio");
    out.metric("fault.states_explored", static_cast<double>(f.states),
               "count");
    out.metric("fault.branches_taken", static_cast<double>(f.branches),
               "count");
    out.metric("fault.confirmed_violations",
               static_cast<double>(f.violations), "count");
    out.metric("fault.plans_replayed", static_cast<double>(f.replayed),
               "count");
}

void
tracedRun(const Options &opt, Report &out)
{
    const bool mc = opt.workload == "mc-proof";
    const bool viaFleet = opt.workload == "fleet-short";
    SpanLog log;
    CellPlan plan;
    fault::ExploreConfig mcCfg = mcConfig(opt);
    std::vector<fault::PairSpec> specs;
    {
        ScopedSpan s(log, "setup", -1);
        plan = setUpCells(opt, viaFleet);
        if (mc)
            specs = setUpPairs(mcCfg, opt.jobsN);
    }
    const double deadline = nowS() + opt.seconds;
    CellTrace ct;
    FaultTrace ft;
    double lastRound = 0.0;
    int rounds = 0;
    for (; rounds < 1 || (!opt.smoke && nowS() + lastRound <= deadline);
         ++rounds) {
        const double r0 = nowS();
        if (mc) {
            const std::int32_t span = log.open("explore", -1, rounds);
            const perf::HotCounters before = perf::mergedCounters();
            ExplorePass p1 = exploreJ1(mcCfg, specs, &log, span);
            if (rounds == 0)
                ft.counters = perf::mergedCounters().delta(before);
            ExplorePass pN;
            {
                ScopedSpan s(log, "fault.explore_matrix.jN", span);
                pN = exploreJN(mcCfg, specs, opt.jobsN);
            }
            log.close(span);
            checkExplorePass(p1, nullptr, "jobs-1", out);
            checkExplorePass(pN, &p1, "jobs-N", out);
            std::uint64_t states = 0;
            for (const auto &pr : p1.pairs)
                states += pr.statesExplored;
            ft.statesPerSec.push_back(static_cast<double>(states) /
                                      p1.seconds);
            ft.slowestShare.push_back(
                *std::max_element(p1.pairSeconds.begin(),
                                  p1.pairSeconds.end()) /
                p1.seconds);
            ft.poolEff.push_back(
                poolEfficiency(1.0 / pN.seconds, 1.0 / p1.seconds,
                               opt.jobsN));
            if (rounds == 0) {
                for (const auto &pr : p1.pairs) {
                    ft.states += pr.statesExplored;
                    ft.branches += pr.branchesTaken;
                    ft.violations += pr.confirmedViolations;
                }
                ft.replayed = replayPlans(mcCfg, p1, out);
            }
        }
        traceCellRound(opt, plan, rounds, log, ct, out);
        lastRound = nowS() - r0;
    }
    if (!opt.spansPath.empty() && !log.write(opt.spansPath))
        throw std::runtime_error("cannot write spans to " + opt.spansPath);
    out.notes.push_back("traced rounds: " + std::to_string(rounds) +
                        ", spans: " + std::to_string(log.spans().size()) +
                        (opt.spansPath.empty() ? ""
                                               : " -> " + opt.spansPath));
    cellTraceMetrics(ct, out);
    // On mc-proof the counters cover the explorer's jobs-1 pass, the
    // workload's own work; elsewhere the first assembled round.
    counterMetrics(mc ? ft.counters : ct.counters, out);
    faultMetrics(ft, out);
    out.metric("mem.nv_store_ns", nvStoreNs(), "ns");
    outcomeMetrics(out);
}

} // namespace

void
runWorkload(const Options &opt, Report &out)
{
    if (opt.trace && !opt.digestOnly) {
        tracedRun(opt, out);
        return;
    }
    if (opt.workload == "mc-proof")
        timedMc(opt, out);
    else
        timedCells(opt, out);
}

} // namespace ticsbench
