/**
 * @file
 * ticssweep: the experiment-orchestration CLI. Enumerates a grid of
 * (app, runtime, supply, capacitor, segment, env, seed) cells — from a
 * spec file or CLI axis flags — and runs it through fleet::runFleet:
 * in-process on a work-stealing pool with a content-addressed result
 * cache (--workers 0, the default), or sharded across N re-exec'd
 * `ticssweep --worker` processes with crash retry and heartbeat
 * timeouts.
 *
 * The output is deterministic: any --jobs or --workers count, any cache
 * state, and a SIGKILLed-then-retried worker all produce byte-identical
 * tables and, under --stable, byte-identical --json documents, so CI
 * can diff a 1-job run against a 4-job run and a 4-worker run.
 * --kill-worker N is the deterministic chaos hook CI uses to exercise
 * the crash-retry path.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "fleet/coordinator.hpp"
#include "fleet/worker.hpp"
#include "harness/report.hpp"
#include "sweep/sweep.hpp"

using namespace ticsim;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--spec PATH] [--apps L] [--runtimes L]\n"
        "          [--supplies L] [--caps-uf L] [--segments L]\n"
        "          [--envs L] [--seeds L] [--jobs N] [--no-cache]\n"
        "          [--cache-dir PATH] [--budget-s N] [--stable]\n"
        "          [--workers N] [--max-seconds S] [--max-retries N]\n"
        "          [--heartbeat-timeout-s S] [--kill-worker SHARD]\n"
        "          [--require-complete] [--json PATH] [--trace PATH]\n"
        "       %s --worker   (fleet worker protocol on stdio)\n"
        "Runs the cross-product of experiment axes with a\n"
        "content-addressed result cache. Axis lists (L) are\n"
        "comma-separated; supplies accept continuous, rf, stochastic\n"
        "and pattern:<periodMs>:<onFraction>. --budget-s is the\n"
        "per-cell simulated budget. --jobs threads per process (0 =\n"
        "every hardware thread). --workers N shards the grid across N\n"
        "worker processes (0 = in-process); --max-seconds caps their\n"
        "wall clock, --max-retries and --heartbeat-timeout-s govern\n"
        "crash retry, and --kill-worker makes that shard's first\n"
        "process SIGKILL itself after one result; these four need\n"
        "--workers N >= 1. --require-complete exits nonzero unless\n"
        "every cell produced a result. --stable\n"
        "zeroes the wall-clock and cache fields of the JSON report so\n"
        "repeated runs are byte-identical. --worker is the re-exec\n"
        "entry and takes no other flags.\n",
        argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    // The fleet worker entry speaks a framed protocol on stdio; it
    // must run before BenchSession can print anything to stdout.
    if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0)
        return fleet::runWorker();

    // Strips --json/--trace before our own argument loop.
    harness::BenchSession session("ticssweep", argc, argv);

    fleet::FleetConfig cfg;
    cfg.workers = 0;
    sweep::SweepConfig &sw = cfg.sweep;
    bool stable = false;
    bool requireComplete = false;
    const char *workerOnlyFlag = nullptr; // last one seen, for the error

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        const auto axis = [&](const char *key) {
            std::string err;
            if (!sweep::parseAxis(sw.grid, key, next(), err)) {
                std::fprintf(stderr, "ticssweep: %s\n", err.c_str());
                std::exit(2);
            }
        };
        if (std::strcmp(arg, "--spec") == 0) {
            std::string err;
            if (!sweep::parseGridFile(next(), sw.grid, err)) {
                std::fprintf(stderr, "ticssweep: %s\n", err.c_str());
                return 2;
            }
        } else if (std::strcmp(arg, "--apps") == 0) {
            axis("apps");
        } else if (std::strcmp(arg, "--runtimes") == 0) {
            axis("runtimes");
        } else if (std::strcmp(arg, "--supplies") == 0) {
            axis("supplies");
        } else if (std::strcmp(arg, "--caps-uf") == 0) {
            axis("caps_uf");
        } else if (std::strcmp(arg, "--segments") == 0) {
            axis("segments");
        } else if (std::strcmp(arg, "--envs") == 0) {
            axis("envs");
        } else if (std::strcmp(arg, "--seeds") == 0) {
            axis("seeds");
        } else if (std::strcmp(arg, "--jobs") == 0) {
            sw.jobs = static_cast<unsigned>(std::atoi(next()));
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            sw.useCache = false;
        } else if (std::strcmp(arg, "--cache-dir") == 0) {
            sw.cacheDir = next();
        } else if (std::strcmp(arg, "--budget-s") == 0) {
            sw.budget = static_cast<TimeNs>(std::atoll(next())) * kNsPerSec;
        } else if (std::strcmp(arg, "--stable") == 0) {
            stable = true;
        } else if (std::strcmp(arg, "--workers") == 0) {
            cfg.workers = static_cast<unsigned>(std::atoi(next()));
        } else if (std::strcmp(arg, "--max-seconds") == 0) {
            cfg.wallBudgetS = std::atof(next());
            workerOnlyFlag = arg;
        } else if (std::strcmp(arg, "--max-retries") == 0) {
            cfg.maxRetries = static_cast<unsigned>(std::atoi(next()));
            workerOnlyFlag = arg;
        } else if (std::strcmp(arg, "--heartbeat-timeout-s") == 0) {
            cfg.heartbeatTimeoutS = std::atof(next());
            workerOnlyFlag = arg;
        } else if (std::strcmp(arg, "--kill-worker") == 0) {
            cfg.killWorkerShard = std::atoi(next());
            workerOnlyFlag = arg;
        } else if (std::strcmp(arg, "--require-complete") == 0) {
            requireComplete = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    // In-process runs have no worker to cap, retry or kill; accepting
    // these flags there would silently ignore them.
    if (workerOnlyFlag && cfg.workers == 0) {
        std::fprintf(stderr, "ticssweep: %s needs --workers N >= 1\n",
                     workerOnlyFlag);
        usage(argv[0]);
        return 2;
    }

    fleet::FleetResult result = fleet::runFleet(cfg);
    const sweep::SweepResult &out = result.sweep;
    sweep::sweepTable(out).print(std::cout);
    sweep::aggregateTable(out).print(std::cout);
    session.setGrid(sweep::toGridSection(out, stable));

    if (cfg.workers == 0) {
        if (sw.useCache)
            std::printf("ticssweep: %zu cells (%llu cached, %llu run) "
                        "on %u job(s)\n",
                        out.cells.size(),
                        static_cast<unsigned long long>(out.cacheHits),
                        static_cast<unsigned long long>(out.cacheMisses),
                        out.jobs);
        else
            std::printf("ticssweep: %zu cells (cache disabled) on %u "
                        "job(s)\n",
                        out.cells.size(), out.jobs);
        return 0;
    }

    harness::FleetSection &fleet = result.fleet;
    fleet.requireComplete = requireComplete;
    // --stable documents are byte-compared against in-process output,
    // so the run-varying fleet account is dropped there.
    if (!stable)
        session.setFleet(fleet);
    std::printf("ticssweep: %llu/%llu cells over %u worker(s), "
                "%llu spawn(s), %llu retr%s%s\n",
                static_cast<unsigned long long>(fleet.cellsCompleted),
                static_cast<unsigned long long>(fleet.cellsTotal),
                cfg.workers,
                static_cast<unsigned long long>(fleet.workersSpawned),
                static_cast<unsigned long long>(fleet.retries),
                fleet.retries == 1 ? "y" : "ies",
                result.complete ? "" : " [INCOMPLETE]");
    if (requireComplete && !result.complete) {
        std::fprintf(stderr,
                     "ticssweep: --require-complete: %llu cell(s) "
                     "missing\n",
                     static_cast<unsigned long long>(
                         fleet.cellsTotal - fleet.cellsCompleted));
        return 1;
    }
    return 0;
}
