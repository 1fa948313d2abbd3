#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts and the security gates.

    python3 perfbench/check_counts.py [--seconds 1] [--seed 7]

Run it from the repository root. For every workload it makes two traced
runs at a small size with the same seed and checks that

  * both runs pass (correct, no failed op, exit code 0);
  * every per-layer metric named in BENCHMARK.json is reported;
  * the op count and every count-type per-layer metric repeat exactly,
    so a later change can cite them as counts;
  * the must-be-zero gates (honest sessions shed, false accepts, keyless
    devices) read zero.

Exits nonzero and names the first difference otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

# Per-layer metrics that are a function of the seed alone. The remaining
# ones are times, or depend on how the OS schedules the worker threads
# (steals, wakeups, worker parks, queue depth, lock contention).
EXACT = (
    "core.channel.record_bytes",
    "core.engine.steps_per_session",
    "core.engine.parks_per_session",
    "core.admission.admitted",
    "core.admission.shed_ratio",
    "core.admission.evicted",
    "core.admission.malformed",
    "core.admission.honest_shed",
    "core.admission.false_accepts",
    "core.session.attempts_per_session",
    "core.session.useful_ratio",
    "net.frames_per_session",
    "net.bytes_per_session",
    "puf.evaluations_per_op",
    "core.key_manager.derive_retries",
    "puf.crp_db.wal_bytes_per_op",
    "puf.crp_db.take_steals",
    "fleet.rotated",
    "fleet.mean_attempts",
    "fleet.keyless",
    "fleet.poll_ticks_p50",
)
MUST_BE_ZERO = ("core.admission.honest_shed", "core.admission.false_accepts",
                "fleet.keyless")


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("%s: exit %d\n%s" % (workload, out.returncode, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("%s: correct=%s failed=%d" %
                 (workload, result["correct"], result["failed"]))
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="1")
    parser.add_argument("--seed", default="7")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["per_layer"]]
    for workload in (w["name"] for w in bench["workloads"]):
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        missing = [n for n in names if n not in first["metrics"]]
        if missing:
            sys.exit("%s: missing per-layer metrics %s" % (workload, missing))
        if first["attempted"] != second["attempted"]:
            sys.exit("%s: op count %d vs %d" %
                     (workload, first["attempted"], second["attempted"]))
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                sys.exit("%s: %s differs between runs: %r vs %r" %
                         (workload, name, a, b))
        for name in MUST_BE_ZERO:
            if first["metrics"][name]["value"] != 0:
                sys.exit("%s: %s is %r" %
                         (workload, name, first["metrics"][name]["value"]))
        print("%s: ok (%d ops per run, %d exact counts)" %
              (workload, first["attempted"], len(EXACT)))


if __name__ == "__main__":
    main()
