#!/usr/bin/env python3
"""Build the daemon and the benchmark executable from source, then run one
benchmark workload (or all of them).

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

NAME is a workload BENCHMARK.json declares (serve-read, exact-mix,
coalesce-sim) or all (the default: each in turn, seed 1, 30 s each,
untraced).  Run it from the root of a checkout; the last line of
standard output is the run's JSON result.  See perfbench/README.md for
what is measured.
"""

import os
import signal
import subprocess
import sys

# A run must end within 180 s; stop well before that.
RUN_TIMEOUT_S = 170

TARGETS = ["./bin/repro.exe", "./bench/check_trace.exe", "./perfbench/bench.exe"]


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The shared dune cache lives outside the checkout; keep every
    # write of a run inside it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--cache=disabled",
         *TARGETS],
        cwd=root,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    cmd = [
        bench,
        "--repro", os.path.join("_build", "default", "bin", "repro.exe"),
        "--check-trace", os.path.join("_build", "default", "bench", "check_trace.exe"),
        *sys.argv[1:],
    ]
    # Run bench.exe and every process it starts on one CPU.  At most one
    # of them is busy at a time (the serve client waits while the daemon
    # works, and the reverse; bench.exe waits for an analysis worker), so
    # this costs no parallelism.  On two CPUs a hand-off between client
    # and daemon waits, twice a batch, for the host to wake the halted
    # virtual CPU of the other side, and that wait follows the load of
    # the whole host, not the program.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as e:
        print(f"perfbench: cannot pin to one CPU ({e}); running unpinned",
              file=sys.stderr)
    # A process group of its own, so that a timeout can stop bench.exe
    # and the daemon it launched together.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
