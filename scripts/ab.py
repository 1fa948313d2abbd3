#!/usr/bin/env python3
"""Alternating A/B runs of two revisions on identically built trees.

    scripts/ab.py --workload device_onboarding --seed 31 --pairs 10
    scripts/ab.py --bench bench_aka_eke --filter 'BM_Modexp2048$' --pairs 10
    scripts/ab.py --base HEAD~1 --change HEAD --workload auth_storm --seed 5

Side A is --base (default HEAD) and side B is --change (default WORKTREE:
the tracked and untracked, not ignored, files of the work tree as they are
now). Each side is exported with `git archive` (or, for WORKTREE, copied
file by file) into <build-dir>/a and <build-dir>/b and built there the
same way, RelWithDebInfo with the repo's own flags. Nothing is built or
written in the checkout itself.

A perfbench run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace X` inside each tree. A google-benchmark run is one
binary of bench/ with --benchmark_filter and --benchmark_min_time=0.5,
timed by its real_time per case.
Both sides are built and run once before the timed pairs. Pair i runs A
then B when i is even and B then A when it is odd, so drift in the host's
speed falls on both sides alike.

The seed is required: use one that was not used while writing the change,
so the change cannot have been tuned to it.

The report is a Markdown table, one row per metric: each side's median and
interquartile range, the ratio B/A of the medians, the pairs B won, and
`OUTSIDE` when B's median is worse than A's by more than the metric's
BENCHMARK.json bound (end-to-end metrics only). It exits 1 when a
perfbench run reports correct=false on either side, else 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def log(message):
    print("ab: " + message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """Writes the files of `rev` (a commit, or WORKTREE) into dest."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev != WORKTREE:
        archive = git("archive", "--format=tar", rev)
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        return git("rev-parse", "--short", rev).decode().strip()
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        source = os.path.join(ROOT, name)
        if not name or not os.path.isfile(source):
            continue  # deleted in the work tree
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)
    return "work tree"


def build_env(tree):
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))


def run_perfbench(tree, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, env=build_env(tree),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("ab: no result from %s:\n%s" % (tree, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["failed"] = result.get("failed", 0)
    return metrics, bool(result["correct"])


def build_bench(tree, args):
    build = os.path.join(tree, "build")
    env = build_env(tree)
    subprocess.run(["cmake", "-S", tree, "-B", build,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build, "-j", "4",
                    "--target", args.bench], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def run_bench(tree, args):
    binary = os.path.join(tree, "build", "bench", args.bench)
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run([binary, "--benchmark_filter=" + args.filter,
                        "--benchmark_min_time=0.5",
                        "--benchmark_out=" + out.name,
                        "--benchmark_out_format=json"],
                       check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        report = json.load(open(out.name))
    metrics = {}
    for case in report["benchmarks"]:
        metrics[case["name"] + " (" + case["time_unit"] + ")"] = \
            case["real_time"]
    if not metrics:
        sys.exit("ab: filter %r selects no case of %s" % (args.filter,
                                                          args.bench))
    return metrics, True


def directions():
    """Maps metric name -> (better, bound or None) from BENCHMARK.json."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    out = {"failed": ("lower", None)}
    for entry in spec.get("end_to_end", []):
        out[entry["name"]] = (entry["better"], entry.get("bound"))
    for entry in spec.get("per_layer", []):
        out[entry["name"]] = (entry["better"], None)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(value):
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return "%.0f" % value
    if magnitude >= 10:
        return "%.1f" % value
    return "%.3g" % value


def report(samples_a, samples_b, label_a, label_b, lower_is_default):
    known = directions()
    # Metrics both sides have, less those that read zero in every run (a
    # workload's untouched layers).
    runs = samples_a + samples_b
    names = [n for n in samples_a[0]
             if all(n in s for s in runs) and any(s[n] for s in runs)]
    rows = ["| metric | A %s median [IQR] | B %s median [IQR] | B/A | B won | bound |"
            % (label_a, label_b),
            "|---|---|---|---|---|---|"]
    outside = []
    for name in names:
        better, bound = known.get(name, ("lower" if lower_is_default else
                                         "higher", None))
        a = [s[name] for s in samples_a]
        b = [s[name] for s in samples_b]
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        ratio = "%.3f" % (bm / am) if am else "-"
        if better == "lower":
            won = sum(1 for x, y in zip(a, b) if y < x)
            worse = (bm - am) / am if am else 0.0
        else:
            won = sum(1 for x, y in zip(a, b) if y > x)
            worse = (am - bm) / am if am else 0.0
        verdict = ""
        if bound is not None:
            verdict = "OUTSIDE" if worse > bound else "inside %g" % bound
            if worse > bound:
                outside.append(name)
        rows.append("| %s | %s [%s-%s] | %s [%s-%s] | %s | %d/%d | %s |" % (
            name, fmt(am), fmt(a1), fmt(a3), fmt(bm), fmt(b1), fmt(b3),
            ratio, won, len(a), verdict))
    print("\n".join(rows))
    if all("failed" in s for s in runs):
        print("\nFailed ops, summed over runs: A %d, B %d" % (
            sum(s["failed"] for s in samples_a),
            sum(s["failed"] for s in samples_b)))
    if outside:
        print("\nOutside their BENCHMARK.json bound: " + ", ".join(outside))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD", help="side A (default HEAD)")
    parser.add_argument("--change", default=WORKTREE,
                        help="side B: a revision or WORKTREE (default)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-ab"),
                        help="where both trees are exported and built")
    parser.add_argument("--workload", help="a perfbench workload")
    parser.add_argument("--seed", type=int, help="perfbench seed (required "
                        "with --workload; pick one not used while writing "
                        "the change)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--bench", help="a google-benchmark binary of bench/")
    parser.add_argument("--filter", help="its --benchmark_filter")
    parser.add_argument("--raw", help="also write every run's metrics to "
                        "this JSON file, updated after each pair")
    args = parser.parse_args()
    if bool(args.workload) == bool(args.bench):
        parser.error("give exactly one of --workload and --bench")
    if args.workload and args.seed is None:
        parser.error("--workload needs --seed")
    if args.bench and not args.filter:
        parser.error("--bench needs --filter")

    trees = {side: os.path.join(os.path.abspath(args.build_dir), side)
             for side in ("a", "b")}
    labels = {"a": export(args.base, trees["a"]),
              "b": export(args.change, trees["b"])}
    log("A = %s, B = %s, built in %s" % (labels["a"], labels["b"],
                                        args.build_dir))
    run = run_perfbench if args.workload else run_bench
    for side in ("a", "b"):
        if args.bench:
            build_bench(trees[side], args)
        run(trees[side], args)  # builds perfbench; warms the host either way

    samples = {"a": [], "b": []}
    correct = True
    for pair in range(args.pairs):
        order = ("a", "b") if pair % 2 == 0 else ("b", "a")
        for side in order:
            metrics, ok = run(trees[side], args)
            samples[side].append(metrics)
            correct = correct and ok
        if args.raw:
            with open(args.raw, "w") as raw:
                json.dump({"a": labels["a"], "b": labels["b"],
                           "samples": samples}, raw, indent=1)
        log("pair %d/%d done" % (pair + 1, args.pairs))

    what = ("perfbench %s, seed %d, %g s, trace %d" % (
        args.workload, args.seed, args.seconds, args.trace) if args.workload
        else "%s --benchmark_filter='%s'" % (args.bench, args.filter))
    print("%s; %d alternating pairs\n" % (what, args.pairs))
    report(samples["a"], samples["b"], labels["a"], labels["b"],
           lower_is_default=bool(args.bench))
    if not correct:
        print("\ncorrect=false in at least one run")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
