#!/usr/bin/env python3
"""Record -> reproduce benchmark of the Light reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload bug-corpus --seed 7 --seconds 10 --trace 0

Builds perfbench/ (a CMake package of its own that compiles ../src) into
.bench_build/perfbench on first use, then runs one workload for --seconds
as a closed loop: record a seeded input into a LIGHT003 durable log, then
reproduce it (decode, constraints, solve, schedule, validated replay) and
check the replay against the recording before the next recording starts.

Workloads: bug-corpus, stream-pingpong, record-contended (see
perfbench/README.md and BENCHMARK.json for why each exists).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run plus the tracing overhead. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when the build fails or any outside correctness check fails.

The seed is the only source of the inputs: rerun a claim with a --seed it
was not tuned on.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "light_perfbench")
WORKLOADS = ("bug-corpus", "stream-pingpong", "record-contended")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; build output goes to stderr
    so the JSON line stays last on stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no Light sources at %s" % os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "light_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="one line per iteration")
    args = ap.parse_args()

    if not build():
        return 2

    work = os.path.join(ROOT, ".bench_build", "runs",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.verbose:
        cmd.append("--verbose")
    # Own process group, so a timeout also stops the forked reproduction.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(60.0, 4 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: the run did not finish in time")
        return 3
    finally:
        if args.trace:
            # Keep the span trace; drop the logs and spill files.
            for name in os.listdir(work):
                if not name.startswith("spans-"):
                    os.remove(os.path.join(work, name))
        else:
            shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: no result line (exit code %d)" % proc.returncode)
        return proc.returncode or 4
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 4
    print(json.dumps(result), flush=True)
    if proc.returncode or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
