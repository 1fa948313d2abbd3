#!/usr/bin/env python3
"""Diff two google-benchmark JSON runs against a throughput threshold.

Usage:
  bench_regress.py OLD.json NEW.json [--threshold 0.10] [--allow-missing]
                   [--cross-host]
      Compares benchmarks present in both files by name. A benchmark
      regresses when its new throughput falls more than THRESHOLD
      (fraction) below the old one; any regression makes the exit
      status nonzero. Throughput is items_per_second when the benchmark
      reports it, else 1 / real_time.

      A baseline benchmark that is absent from NEW.json is an error: a
      silently vanished case (renamed, deleted, filtered out) would
      otherwise read as "no regression" forever. Pass --allow-missing
      when the new run is intentionally a subset of the baseline (e.g.
      one binary's smoke run against the merged baseline).

      Runs from different hosts are refused: when the two files'
      `context.num_cpus` or `context.host_name` differ, throughput ratios
      measure the machines, not the change. Re-record the baseline on
      this host, or pass --cross-host to compare anyway (with a warning).

  bench_regress.py --check-schema FILE [FILE...]
      Validates that each file parses as google-benchmark JSON output
      (a `context` object and a non-empty `benchmarks` array whose
      entries carry a name and a timing). Exit nonzero on the first
      malformed file.

  bench_regress.py --merge OUT.json IN.json [IN.json...]
      Concatenates the `benchmarks` arrays of several runs into one
      file (context taken from the first input) so per-binary smoke
      runs can be compared against one committed baseline.

Only the Python standard library is used. Duplicate benchmark names
within one file (e.g. an Arg(1) registered twice because
hardware_threads() == 1) are aggregated by taking the best observed
throughput.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bench_regress: cannot read {path}: {exc}")


def schema_errors(doc: dict, path: str) -> list[str]:
    errors = []
    if not isinstance(doc, dict):
        return [f"{path}: top level is not a JSON object"]
    if not isinstance(doc.get("context"), dict):
        errors.append(f"{path}: missing `context` object")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        errors.append(f"{path}: missing or empty `benchmarks` array")
        return errors
    for i, bench in enumerate(benches):
        if not isinstance(bench, dict) or "name" not in bench:
            errors.append(f"{path}: benchmarks[{i}] has no name")
            continue
        if not any(
            isinstance(bench.get(key), (int, float))
            for key in ("items_per_second", "real_time", "cpu_time")
        ):
            errors.append(
                f"{path}: benchmarks[{i}] ({bench['name']}) has no timing"
            )
    return errors


def throughput(bench: dict) -> float | None:
    """Challenges/sec when reported, else inverse wall time; None if absent."""
    items = bench.get("items_per_second")
    if isinstance(items, (int, float)) and items > 0:
        return float(items)
    real = bench.get("real_time")
    if isinstance(real, (int, float)) and real > 0:
        return 1.0 / float(real)
    return None


def best_by_name(doc: dict) -> dict[str, float]:
    table: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate runs (mean/median/stddev rows) out; compare raw
        # iterations only, and fold duplicate names to their best run.
        if bench.get("run_type") == "aggregate":
            continue
        rate = throughput(bench)
        if rate is None:
            continue
        name = bench["name"]
        if name not in table or rate > table[name]:
            table[name] = rate
    return table


def cmd_check_schema(paths: list[str]) -> int:
    status = 0
    for path in paths:
        errors = schema_errors(load(path), path)
        if errors:
            for line in errors:
                print(line, file=sys.stderr)
            status = 1
        else:
            print(f"{path}: OK")
    return status


def cmd_merge(out_path: str, in_paths: list[str]) -> int:
    # Case names already in OUT (when it exists) — merging is how new
    # benchmarks enter the committed baseline, so the newly-added names
    # are reported rather than slipping in silently.
    previous: set[str] = set()
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            prior = json.load(fh)
        if isinstance(prior, dict):
            previous = {
                bench["name"]
                for bench in prior.get("benchmarks", [])
                if isinstance(bench, dict) and "name" in bench
            }
    except (OSError, json.JSONDecodeError):
        pass  # fresh output file: every case counts as newly added

    merged: dict = {}
    benches: list[dict] = []
    for path in in_paths:
        doc = load(path)
        errors = schema_errors(doc, path)
        if errors:
            for line in errors:
                print(line, file=sys.stderr)
            return 1
        if not merged:
            merged = {"context": doc["context"]}
        benches.extend(doc["benchmarks"])
    merged["benchmarks"] = benches
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
        fh.write("\n")
    print(f"{out_path}: merged {len(benches)} benchmarks from "
          f"{len(in_paths)} files")
    added = sorted(
        {b["name"] for b in benches if "name" in b} - previous
    )
    print(f"{out_path}: {len(added)} newly added case(s)"
          + (": " + ", ".join(added) if added else ""))
    return 0


HOST_KEYS = ("num_cpus", "host_name")


def host_differences(old_doc: dict, new_doc: dict) -> list[str]:
    """The HOST_KEYS whose context values differ, as 'key: old vs new'."""
    old_ctx = old_doc.get("context") or {}
    new_ctx = new_doc.get("context") or {}
    return [
        f"{key}: {old_ctx.get(key)!r} vs {new_ctx.get(key)!r}"
        for key in HOST_KEYS
        if old_ctx.get(key) != new_ctx.get(key)
    ]


def cmd_compare(old_path: str, new_path: str, threshold: float,
                allow_missing: bool, cross_host: bool) -> int:
    old_doc = load(old_path)
    new_doc = load(new_path)
    differences = host_differences(old_doc, new_doc)
    if differences:
        detail = "; ".join(differences)
        if not cross_host:
            print(f"bench_regress: {old_path} and {new_path} come from "
                  f"different hosts ({detail}). Re-record the baseline on "
                  f"this host, or pass --cross-host to compare anyway.",
                  file=sys.stderr)
            return 1
        print(f"bench_regress: WARNING: cross-host comparison ({detail})")
    old = best_by_name(old_doc)
    new = best_by_name(new_doc)
    common = sorted(set(old) & set(new))
    if not common:
        print("bench_regress: no common benchmarks to compare",
              file=sys.stderr)
        return 1
    regressions = 0
    width = max(len(name) for name in common)
    for name in common:
        ratio = new[name] / old[name]
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSION"
            regressions += 1
        print(f"{name:<{width}}  old {old[name]:>14.1f}/s  "
              f"new {new[name]:>14.1f}/s  x{ratio:.3f}  {verdict}")
    only_old = sorted(set(old) - set(new))
    for name in only_old:
        if allow_missing:
            print(f"{name}: missing from {new_path} (allowed)")
        else:
            print(f"bench_regress: baseline case `{name}` is missing from "
                  f"{new_path} — it was renamed, deleted, or filtered out "
                  f"of the run. Restore the case, refresh the baseline, or "
                  f"pass --allow-missing if this run is intentionally a "
                  f"subset.", file=sys.stderr)
    if only_old and not allow_missing:
        print(f"bench_regress: {len(only_old)} baseline case(s) "
              f"disappeared", file=sys.stderr)
        return 1
    if regressions:
        print(f"bench_regress: {regressions} benchmark(s) regressed more "
              f"than {threshold:.0%}", file=sys.stderr)
        return 1
    print(f"bench_regress: {len(common)} benchmark(s) within "
          f"{threshold:.0%} of {old_path}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="*", help="OLD.json NEW.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional throughput drop "
                             "(default 0.10)")
    parser.add_argument("--check-schema", action="store_true",
                        help="validate files as google-benchmark JSON")
    parser.add_argument("--merge", metavar="OUT",
                        help="merge input files' benchmarks into OUT")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate baseline benchmarks absent from "
                             "NEW.json (intentional-subset runs)")
    parser.add_argument("--cross-host", action="store_true",
                        help="compare runs whose context.num_cpus or "
                             "context.host_name differ")
    args = parser.parse_args(argv)

    if args.check_schema:
        if not args.files:
            parser.error("--check-schema needs at least one file")
        return cmd_check_schema(args.files)
    if args.merge:
        if not args.files:
            parser.error("--merge needs at least one input file")
        return cmd_merge(args.merge, args.files)
    if len(args.files) != 2:
        parser.error("compare mode needs exactly OLD.json NEW.json")
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")
    return cmd_compare(args.files[0], args.files[1], args.threshold,
                       args.allow_missing, args.cross_host)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
