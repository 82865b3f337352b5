#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 benchmark/run.py --workload kv-rw-llc --seed 1 --seconds 8 --trace 0

The build tree is .bench_build/ at the repository root; the first run
configures and compiles it (about a minute on 4 cores), later runs only
re-check it. Build output goes to stderr so the last line of stdout stays the
benchmark's JSON result. Every argument is passed to the benchmark binary.
"""
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "simdht_repo_bench")
RUN_TIMEOUT_S = 170

# The child process running now (a build step or the benchmark). It leads
# a process group of its own, so that the compilers a build step starts are
# stopped with it.
child = None


def kill_child():
    if child is not None and child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)
    if child is not None:
        child.wait()


def stop(signum, frame):
    kill_child()
    sys.exit(128 + signum)


def start(cmd, **kwargs):
    global child
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    return child


def step(cmd):
    # Keep the compiler's temporary files inside the checkout as well.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    return start(cmd, stdout=sys.stderr, env=env).wait() == 0


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs,
                "--target", "simdht_repo_bench"]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and \
            step(compile_):
        return True
    # First run, or a build tree left unusable: configure, then build.
    return step(configure) and step(compile_)


def main():
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY] + sys.argv[1:] + ["--out-dir",
                                     os.path.join(BUILD, "traces")]
    proc = start(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_child()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
