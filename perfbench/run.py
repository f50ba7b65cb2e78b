#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the FAUST library, the faust_sockd worker and the faust_perf
program, Release) under $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only let the build tool confirm nothing changed. The
program then runs the workload and prints its report; the last line of
stdout is the JSON result. Exits non-zero when the build fails (with no
result line) or when the run fails a check (its result says
"correct": false). See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("proc-write", "proc-read", "proc-read-cached", "thread-batch")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds faust_perf; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "a") as log:
        if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "--target", "faust_perf", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            return None
    exe = os.path.join(build_dir, "faust_perf")
    return exe if os.path.exists(exe) else None


def stop_group(proc):
    """Kills faust_perf and its workers, and waits until all have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    exe = build(build_dir)
    if exe is None:
        sys.stderr.write("run.py: build failed; see %s\n" % os.path.join(build_dir, "build.log"))
        return 1

    workdir = os.path.join(root, "perfbench-work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    # Its own session, so a hung run can be stopped with its worker processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        sys.stderr.write("run.py: faust_perf did not finish within %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stdout.write(out)
    if proc.returncode != 0:
        sys.stderr.write("run.py: faust_perf failed (exit %d)\n" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
