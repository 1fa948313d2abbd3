#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the NEUROPULS stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (an
optimised CMake build of src/ plus the benchmark binary) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
binary with the same arguments. The binary's stdout is passed through; its
last line is the JSON result. Build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    if len(argv) % 2 != 0:
        fail("arguments come in --key value pairs")
    args = dict(zip(argv[0::2], argv[1::2]))
    allowed = {"--workload", "--seed", "--seconds", "--trace"}
    if set(args) - allowed or "--workload" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    return args


def run(cmd, **kwargs):
    """Runs cmd to completion; returns its exit code (killed on timeout)."""
    timeout = kwargs.pop("timeout")
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def build(source_dir, build_dir, jobs):
    if not os.path.isfile(os.path.join(source_dir, "..", "src",
                                       "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", source_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    code = run(["cmake", "--build", build_dir, "-j", str(jobs)],
               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")


def main():
    args = parse(sys.argv[1:])
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    build(here, build_dir, jobs)

    # Stores the workloads open live in TMPDIR: keep them in the checkout,
    # one directory per run so that concurrent runs cannot collide.
    scratch = os.path.join(build_dir, "tmp", str(os.getpid()))
    os.makedirs(scratch)
    env = dict(os.environ, TMPDIR=scratch, NEUROPULS_THREADS=str(jobs))
    cmd = [os.path.join(build_dir, "perfbench_e2e")]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if key in args:
            cmd += [key, args[key]]
    code = run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
