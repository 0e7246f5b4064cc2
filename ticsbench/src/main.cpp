/**
 * @file
 * ticsbench: the TICSim benchmark driver.
 *
 *   ticsbench --workload W --seed N --seconds S --trace 0|1
 *             [--spans PATH] [--smoke] [--digest-only]
 *   ticsbench --worker      (fleet worker protocol on stdin/stdout)
 *
 * Env= trace CSVs are read from $TICSIM_TRACE_DIR, else docs/traces
 * under the working directory. Prints the run's build facts, outcome
 * rows and notes, then, as its last line, one JSON object: {"correct",
 * "attempted", "failed", "metrics"}. Untraced runs report the end-to-end metrics, traced runs
 * the per-layer ones. Exit 0 when the run finished (correct or not),
 * 1 on a smoke run that found a failure, 2 on bad arguments, 3 on an
 * unoptimized build.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <unistd.h>

#include "fleet/worker.hpp"
#include "workloads.hpp"

using namespace ticsbench;

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef TICSBENCH_BUILD_TYPE
#define TICSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TICSBENCH_COMPILER
#define TICSBENCH_COMPILER "unknown"
#endif

/** Set before main() runs: the origin of the first set-up's time. */
const double g_processStartS = nowS();

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1\n"
                 "          [--spans PATH] [--smoke] [--digest-only]\n"
                 "       %s --worker\n"
                 "workloads: grid-short harvest-long mc-proof fleet-short\n",
                 argv0, argv0);
}

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

void
printJson(const Report &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0)
        return ticsim::fleet::runWorker();

    Options opt;
    opt.processStartS = g_processStartS;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--workload") == 0) {
            opt.workload = next();
        } else if (std::strcmp(arg, "--seed") == 0) {
            opt.seed = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--seconds") == 0) {
            opt.seconds = std::strtod(next(), nullptr);
            haveSeconds = true;
        } else if (std::strcmp(arg, "--trace") == 0) {
            opt.trace = std::strcmp(next(), "0") != 0;
        } else if (std::strcmp(arg, "--spans") == 0) {
            opt.spansPath = next();
        } else if (std::strcmp(arg, "--smoke") == 0) {
            opt.smoke = true;
        } else if (std::strcmp(arg, "--digest-only") == 0) {
            opt.digestOnly = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) ==
            names.end() ||
        (!haveSeconds && !opt.smoke && !opt.digestOnly) ||
        opt.seconds < 0) {
        usage(argv[0]);
        return 2;
    }
    if (!kOptimized) {
        std::fprintf(stderr,
                     "ticsbench: refusing an unoptimized build ('%s'); "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     TICSBENCH_BUILD_TYPE);
        return 3;
    }
    const char *traceDir = std::getenv("TICSIM_TRACE_DIR");
    opt.traceDir = traceDir ? traceDir : "docs/traces";
    // Cells resolve env= traces through the simulator's own lookup, in
    // this process and in fleet workers (which inherit the variable).
    ::setenv("TICSIM_TRACE_DIR", opt.traceDir.c_str(), 1);
    opt.workerBin = selfExe();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    opt.jobsN = std::min(4u, nproc);

    std::printf("ticsbench: workload %s, seed %llu, %.17g s, trace %d%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.smoke ? ", smoke" : "");
    std::printf("build: %s, %s, optimized; nproc %u, N = %u\n",
                TICSBENCH_BUILD_TYPE, TICSBENCH_COMPILER, nproc, opt.jobsN);

    Report report;
    try {
        runWorkload(opt, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ticsbench: %s\n", e.what());
        return 4;
    }

    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(report.digest));
    if (opt.digestOnly) {
        std::printf("digest: %s\n", digest);
        return 0;
    }
    for (const auto &n : report.notes)
        std::printf("note: %s\n", n.c_str());
    std::printf("digest: %s (informational; rebuild with: python3 "
                "ticsbench/run.py --workload %s --seed %llu --digest-only)\n",
                digest, opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed));
    std::printf("%-16s %llu\n%-16s %llu\n", "attempted",
                static_cast<unsigned long long>(report.attempted), "failed",
                static_cast<unsigned long long>(report.failed));
    if (opt.workload != "mc-proof" || opt.trace) {
        for (int o = 0; o < kOutcomeCount; ++o)
            std::printf("%-16s %llu\n", outcomeName(static_cast<Outcome>(o)),
                        static_cast<unsigned long long>(report.outcomes[o]));
    }
    for (const auto &f : report.failures)
        std::printf("FAILED: %s\n", f.c_str());
    for (const auto &m : report.metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::fflush(stdout);
    printJson(report);
    return opt.smoke && !report.correct() ? 1 : 0;
}
