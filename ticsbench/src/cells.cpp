#include "cells.hpp"

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "apps/ar/ar_chinchilla.hpp"
#include "apps/ar/ar_legacy.hpp"
#include "apps/ar/ar_task.hpp"
#include "apps/bc/bc_chinchilla.hpp"
#include "apps/bc/bc_legacy.hpp"
#include "apps/bc/bc_task.hpp"
#include "apps/cuckoo/cuckoo_chinchilla.hpp"
#include "apps/cuckoo/cuckoo_legacy.hpp"
#include "apps/cuckoo/cuckoo_task.hpp"
#include "checks.hpp"
#include "harness/experiment.hpp"
#include "runtimes/chinchilla.hpp"
#include "runtimes/mementos.hpp"
#include "runtimes/plainc.hpp"
#include "runtimes/task_core.hpp"
#include "tics/runtime.hpp"

namespace ticsbench {

using namespace ticsim;
using sweep::Cell;
using sweep::CellResult;
using sweep::SupplyKind;

namespace {

/** The harness supply a sweep cell runs on (as runCell builds it). */
harness::SupplySpec
supplySpecFor(const Cell &cell)
{
    harness::SupplySpec spec;
    if (!cell.env.empty()) {
        spec.setup = harness::PowerSetup::TraceEnv;
        spec.traceEnv = cell.env;
    } else {
        switch (cell.supply.kind) {
          case SupplyKind::Continuous:
            spec = harness::continuousSpec();
            break;
          case SupplyKind::Pattern:
            spec = harness::patternSpec(
                static_cast<TimeNs>(cell.supply.periodMs *
                                    static_cast<double>(kNsPerMs)),
                cell.supply.onFraction);
            break;
          case SupplyKind::Rf:
            spec.setup = harness::PowerSetup::RfHarvested;
            break;
          case SupplyKind::Stochastic:
            spec.setup = harness::PowerSetup::Stochastic;
            break;
        }
    }
    spec.seed = cell.seed;
    if (cell.capUf > 0.0)
        spec.capacitanceF = cell.capUf * 1e-6;
    return spec;
}

/** The virtual-time budget runCell gives @p cell under @p cfg. */
TimeNs
cellBudget(const Cell &cell, const sweep::SweepConfig &cfg)
{
    const bool interrupting = !cell.env.empty() ||
                              cell.supply.kind != SupplyKind::Continuous;
    return (cell.runtime == "plain-C" && interrupting)
               ? cfg.unprotectedBudget
               : cfg.budget;
}

/** One cell's phases, each under its own span. */
class PhasedCell
{
  public:
    PhasedCell(const Cell &cell, const sweep::SweepConfig &cfg,
               SpanLog &log, std::int32_t cellSpan, std::int64_t cellId,
               CellPhases &phases)
        : cell_(cell), cfg_(cfg), log_(log), cellSpan_(cellSpan),
          cellId_(cellId), phases_(phases)
    {
    }

    template <typename MakeRt, typename MakeApp>
    CellResult
    run(const MakeRt &makeRt, const MakeApp &makeApp)
    {
        auto board = timed("harness.make_board", phases_.makeBoardUs, [&] {
            return harness::makeBoard(supplySpecFor(cell_), cell_.seed);
        });
        const std::int32_t ctor =
            log_.open("runtime.construct", cellSpan_, cellId_);
        auto rt = makeRt();
        auto app = makeApp(*board, *rt);
        std::function<void()> entry;
        if constexpr (requires { app->main(); })
            entry = [&app] { app->main(); };
        log_.close(ctor);
        phases_.constructUs = log_.at(ctor).durUs();

        const board::RunResult res = timed("board.run", phases_.runUs, [&] {
            return board->run(*rt, std::move(entry),
                              cellBudget(cell_, cfg_));
        });
        CellResult out;
        out.verified = timed("apps.verify", phases_.verifyUs,
                             [&] { return app->verify(); });
        if constexpr (requires { app->totalBits(); }) {
            if (cell_.app == "BC") {
                phases_.isBitcount = true;
                phases_.bcBits = app->totalBits();
                phases_.bcExpected = bcExpectedBits(apps::BcParams{});
            }
        }
        out.completed = res.completed;
        out.starved = res.starved;
        out.reboots = res.reboots;
        out.cycles = res.cycles;
        out.elapsedNs = res.elapsed;
        out.onTimeNs = res.onTime;
        out.simMs.sample(out.simMsValue());
        return out;
    }

  private:
    template <typename F>
    auto
    timed(const char *name, double &outUs, const F &f)
    {
        const std::int32_t idx = log_.open(name, cellSpan_, cellId_);
        auto r = f();
        log_.close(idx);
        outUs = log_.at(idx).durUs();
        return r;
    }

    const Cell &cell_;
    const sweep::SweepConfig &cfg_;
    SpanLog &log_;
    std::int32_t cellSpan_;
    std::int64_t cellId_;
    CellPhases &phases_;
};

template <typename MakeRt>
CellResult
runLegacyApp(PhasedCell &pc, const std::string &app, const MakeRt &makeRt)
{
    if (app == "AR")
        return pc.run(makeRt, [](board::Board &b, auto &rt) {
            return std::make_unique<apps::ArLegacyApp>(b, rt,
                                                       apps::ArParams{});
        });
    if (app == "BC")
        return pc.run(makeRt, [](board::Board &b, auto &rt) {
            return std::make_unique<apps::BcLegacyApp>(b, rt,
                                                       apps::BcParams{});
        });
    return pc.run(makeRt, [](board::Board &b, auto &rt) {
        return std::make_unique<apps::CuckooLegacyApp>(
            b, rt, apps::CuckooParams{});
    });
}

} // namespace

CellResult
assembleCell(const Cell &cell, const sweep::SweepConfig &cfg, SpanLog &log,
             std::int32_t parent, std::int64_t cellId, CellPhases &phases)
{
    phases = CellPhases{};
    const std::int32_t span = log.open("cell", parent, cellId);
    PhasedCell pc(cell, cfg, log, span, cellId, phases);
    CellResult out;
    if (cell.runtime == "plain-C") {
        out = runLegacyApp(pc, cell.app, [] {
            return std::make_unique<runtimes::PlainCRuntime>();
        });
    } else if (cell.runtime == "TICS") {
        const std::uint32_t seg =
            cell.segmentBytes ? cell.segmentBytes : 256;
        out = runLegacyApp(pc, cell.app, [seg] {
            tics::TicsConfig tc;
            tc.segmentBytes = seg;
            tc.policy = tics::PolicyKind::Timer;
            tc.timerPeriod = 10 * kNsPerMs;
            return std::make_unique<tics::TicsRuntime>(tc);
        });
    } else if (cell.runtime == "MementOS-like") {
        out = runLegacyApp(pc, cell.app, [] {
            return std::make_unique<runtimes::MementosRuntime>();
        });
    } else if (cell.runtime == "Chinchilla-like") {
        const auto makeRt = [] {
            return std::make_unique<runtimes::ChinchillaRuntime>();
        };
        if (cell.app == "AR")
            out = pc.run(makeRt, [](board::Board &b, auto &rt) {
                return std::make_unique<apps::ArChinchillaApp>(
                    b, rt, apps::ArParams{});
            });
        else if (cell.app == "BC")
            out = pc.run(makeRt, [](board::Board &b, auto &rt) {
                return std::make_unique<apps::BcChinchillaApp>(
                    b, rt, apps::BcParams{});
            });
        else
            out = pc.run(makeRt, [](board::Board &b, auto &rt) {
                return std::make_unique<apps::CuckooChinchillaApp>(
                    b, rt, apps::CuckooParams{});
            });
    } else if (cell.runtime == "Alpaca-like") {
        const auto makeRt = [] {
            return std::make_unique<taskrt::TaskRuntime>();
        };
        if (cell.app == "AR")
            out = pc.run(makeRt, [](board::Board &b, auto &rt) {
                return std::make_unique<apps::ArTaskApp>(b, rt,
                                                         apps::ArParams{});
            });
        else if (cell.app == "BC")
            out = pc.run(makeRt, [](board::Board &b, auto &rt) {
                return std::make_unique<apps::BcTaskApp>(b, rt,
                                                         apps::BcParams{});
            });
        else
            out = pc.run(makeRt, [](board::Board &b, auto &rt) {
                return std::make_unique<apps::CuckooTaskApp>(
                    b, rt, apps::CuckooParams{});
            });
    } else {
        throw std::invalid_argument("unknown runtime '" + cell.runtime +
                                    "'");
    }
    log.close(span);
    phases.totalUs = log.at(span).durUs();
    return out;
}

} // namespace ticsbench
