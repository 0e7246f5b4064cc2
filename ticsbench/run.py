#!/usr/bin/env python3
"""Build and run the TICSim benchmark.

    python3 ticsbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 ticsbench/run.py --workload W --seed N --digest-only
    python3 ticsbench/run.py --test

Run from the root of a TICSim checkout. The first call configures and
builds an optimized (Release) tree of ticsbench/CMakeLists.txt, which
compiles the simulator from ../src; later calls only rebuild what
changed. The build tree lives under $CARGO_TARGET_DIR when it is set
(relative paths are taken from the checkout root), else .bench_build/.
Build output goes to a log in the build tree, so the benchmark's last
line of standard output stays its JSON result.

--test builds and runs the benchmark's unit tests, then runs every
workload in smoke mode (tiny inputs, one round, every check on) both
untraced and traced, and exits non-zero if anything fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-short", "harvest-long", "mc-proof", "fleet-short")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "ticsbench-release"


def build(targets):
    """Configure (once) and build @targets; return the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"ticsbench: no TICSim sources under {ROOT}; run from a "
                 "checkout of the repository")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"ticsbench: build step failed ({rc}): "
                         + " ".join(cmd))
    return out


def run_bench(out, args):
    env = dict(os.environ, TICSIM_TRACE_DIR=str(ROOT / "docs" / "traces"))
    return subprocess.run([str(out / "ticsbench"), *args], env=env,
                          cwd=ROOT).returncode


def self_test():
    out = build(["ticsbench", "ticsbench_tests"])
    if not (out / "ticsbench_tests").is_file():
        sys.exit("ticsbench: GoogleTest not found; unit tests not built")
    failed = subprocess.run([str(out / "ticsbench_tests")],
                            cwd=ROOT).returncode != 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            rc = run_bench(out, ["--workload", workload, "--seed", "1",
                                 "--smoke", "--trace", trace])
            print(f"smoke {workload} trace {trace}: "
                  f"{'ok' if rc == 0 else f'FAILED ({rc})'}")
            failed = failed or rc != 0
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--digest-only", action="store_true")
    ap.add_argument("--test", action="store_true")
    a = ap.parse_args()
    if a.test:
        return self_test()
    if a.workload is None or (a.seconds is None and not a.digest_only):
        ap.error("--workload and --seconds are required")
    out = build(["ticsbench"])
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--trace", a.trace]
    if a.digest_only:
        args.append("--digest-only")
    else:
        args += ["--seconds", str(a.seconds)]
    if a.trace == "1" and not a.digest_only:
        args += ["--spans",
                 str(out / f"spans-{a.workload}-seed{a.seed}.json")]
    return run_bench(out, args)


if __name__ == "__main__":
    sys.exit(main())
