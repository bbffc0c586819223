#!/usr/bin/env python3
"""End-to-end performance gate: this checkout against a parent checkout.

Usage (from anywhere):

    python3 tools/perf_gate.py <parent checkout> [--pairs N]

Runs each side's own perfbench/run.py (--seed 1 --trace 0, for this
checkout's BENCHMARK.json `run_seconds`) in N interleaved pairs; the side
that goes first alternates from pair to pair, so drift in the host's load
falls on both sides alike. Each side builds in its own tree
(<checkout>/.bench_build), so CARGO_TARGET_DIR is removed from the runs'
environment.

The gate measures the workloads and end_to_end metrics that both sides'
BENCHMARK.json declare, with this checkout's bounds; it prints the ones only
one side declares as not gated (a benchmark change that adds a workload or a
metric is gated on it from its next change on). It takes the median of every
gated metric per side and workload, and exits 1 when, on any workload:

  - a metric of this checkout is worse than the parent's by more than its
    `bound` (a fraction of the parent's median), in the direction its
    `better` field gives;
  - any run reports `correct: false`;
  - on some pair, this checkout fails more flows than the parent while
    running no more instances than the parent did.

run.py runs seeds 1, 1 + 7919, ... for as long as the run lasts, so the
faster side runs more instances. The last check therefore compares only
pairs where this checkout's seeds are a subset of the parent's; on a pair
where it ran more instances, an extra failure is left to flows_completed's
bound.

It exits 0 otherwise, and 2 when it cannot measure: a bad argument, a parent
without BENCHMARK.json, or a run.py that fails or prints a malformed result.

Beside the decision it prints, per workload and metric, each side's
quartiles and the number of pairs the change wins (a tie counts for neither
side): the evidence a claimed gain needs, which the decision itself does not
use. The last line of stdout is a JSON record of every pair, every median
and that summary.
"""

import argparse
import json
import math
import numbers
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")
DEFAULT_PAIRS = 5
CONTEXT_PREFIX = "context: "


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def common(change, parent):
    """`change`'s BENCHMARK.json cut down to the workloads and end_to_end
    metrics `parent` also declares, and the sorted names of those only one
    side declares."""
    def names(benchmark, key):
        return {entry["name"] for entry in benchmark[key]}

    shared = {}
    ungated = []
    for key in ("workloads", "end_to_end"):
        both = names(change, key) & names(parent, key)
        shared[key] = [e for e in change[key] if e["name"] in both]
        ungated += sorted(names(change, key) ^ names(parent, key))
    return shared, ungated


def pair_order(index):
    """The side order of pair `index`: the parent leads even pairs."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def schedule(pairs, workloads):
    """Every run of a gate, in order: (pair, workload, side) triples."""
    return [(index, workload, side)
            for index in range(pairs)
            for workload in workloads
            for side in pair_order(index)]


def malformed(report, metrics):
    """Why `report` cannot be read for `metrics`, or None when it can."""
    def number(value):
        return (isinstance(value, numbers.Real)
                and not isinstance(value, bool) and math.isfinite(value))

    if not isinstance(report, dict):
        return "not a JSON object"
    if not isinstance(report.get("correct"), bool):
        return "no boolean `correct`"
    for key in ("attempted", "failed", "processes"):
        if not number(report.get(key)):
            return "no numeric `%s`" % key
    values = report.get("metrics")
    for name in metrics:
        entry = values.get(name) if isinstance(values, dict) else None
        if not isinstance(entry, dict) or not number(entry.get("value")):
            return "no numeric metrics.%s.value" % name
    return None


def medians(reports, metrics):
    """Per-metric medians of perfbench reports."""
    return {name: statistics.median(r["metrics"][name]["value"]
                                    for r in reports)
            for name in metrics}


def quartiles(values):
    """The (inclusive) quartiles of `values`; one value is all three."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def change_wins(metric, parent, change):
    """The pairs of values on which `change` is better than `parent`, in the
    direction `metric`'s `better` field gives; a tie is no win."""
    sign = 1 if metric["better"] == "higher" else -1
    return sum(1 for before, after in zip(parent, change)
               if sign * (after - before) > 0)


def summarize(benchmark, runs):
    """Per workload and metric: each side's quartiles and the change's win
    count over the pairs of `runs[workload][side]`."""
    summary = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        sides = runs[workload]
        summary[workload] = {}
        for metric in benchmark["end_to_end"]:
            values = {side: [r["metrics"][metric["name"]]["value"]
                             for r in sides[side]]
                      for side in SIDES}
            summary[workload][metric["name"]] = dict(
                {side: quartiles(values[side]) for side in SIDES},
                change_wins=change_wins(metric, values["parent"],
                                        values["change"]),
                pairs=len(values["change"]))
    return summary


def failed_share(reports):
    attempted = sum(r["attempted"] for r in reports)
    return sum(r["failed"] for r in reports) / attempted if attempted else 0.0


def worse_by(metric, parent, change):
    """How much worse `change` is than `parent`, as a fraction of `parent`
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return -delta if metric["better"] == "higher" else delta


def decide(benchmark, runs):
    """The gate's failures, given `runs[workload][side]`, the perfbench
    reports of each pair in pair order; an empty list passes."""
    failures = []
    metrics = benchmark["end_to_end"]
    for workload in (w["name"] for w in benchmark["workloads"]):
        sides = runs[workload]
        for side in SIDES:
            wrong = sum(1 for r in sides[side] if not r["correct"])
            if wrong:
                failures.append("%s: %d %s run(s) report correct: false"
                                % (workload, wrong, side))
        parent = medians(sides["parent"], [m["name"] for m in metrics])
        change = medians(sides["change"], [m["name"] for m in metrics])
        for metric in metrics:
            name = metric["name"]
            worse = worse_by(metric, parent[name], change[name])
            if worse > metric["bound"]:
                failures.append(
                    "%s %s: %.4g -> %.4g is %.1f%% worse (%s is better), "
                    "past the %.0f%% bound"
                    % (workload, name, parent[name], change[name],
                       100 * worse, metric["better"], 100 * metric["bound"]))
        for index, (before, after) in enumerate(zip(sides["parent"],
                                                    sides["change"])):
            if (after["failed"] > before["failed"]
                    and after["processes"] <= before["processes"]):
                failures.append(
                    "%s: pair %d: %d failed flows over %d instances, the "
                    "parent %d over %d"
                    % (workload, index + 1, after["failed"],
                       after["processes"], before["failed"],
                       before["processes"]))
    return failures


def run_side(root, workload, seconds):
    """One perfbench run of the checkout at `root`: its result record with
    the instance count of its context line added as `processes`, or None
    when run.py fails or prints no result."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-4000:])
        return None
    try:
        report = json.loads(lines[-1])
        for line in lines:
            if line.startswith(CONTEXT_PREFIX) and isinstance(report, dict):
                report["processes"] = json.loads(
                    line[len(CONTEXT_PREFIX):])["processes"]
        return report
    except (ValueError, TypeError, KeyError):
        log(proc.stdout[-4000:])
        return None


def main(argv=None, run=run_side):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                        help="interleaved pairs (default %d)" % DEFAULT_PAIRS)
    args = parser.parse_args(argv)
    parent = os.path.abspath(args.parent)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        parser.error("no perfbench/run.py under %s" % parent)
    if not os.path.isfile(os.path.join(parent, "BENCHMARK.json")):
        parser.error("no BENCHMARK.json under %s" % parent)
    if os.path.realpath(parent) == os.path.realpath(ROOT):
        parser.error("the parent must be a different checkout")

    own = load_benchmark(ROOT)
    try:
        benchmark, ungated = common(own, load_benchmark(parent))
    except (ValueError, KeyError, TypeError) as error:
        parser.error("unreadable BENCHMARK.json under %s: %r"
                     % (parent, error))
    for name in ungated:
        print("not gated: %s (declared by one side only)" % name)
    seconds = own["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    names = [m["name"] for m in benchmark["end_to_end"]]
    roots = {"parent": parent, "change": ROOT}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    pairs = [{} for _ in range(args.pairs)]
    for index, workload, side in schedule(args.pairs, workloads):
        log("perf_gate: pair %d/%d, %s, %s"
            % (index + 1, args.pairs, workload, side))
        report = run(roots[side], workload, seconds)
        problem = ("run.py failed or printed no result" if report is None
                   else malformed(report, names))
        if problem:
            log("perf_gate: cannot measure the %s run of %s: %s"
                % (side, workload, problem))
            return 2
        runs[workload][side].append(report)
        pairs[index].setdefault(workload, {
            "order": list(pair_order(index))})[side] = report

    summary = {w: {side: dict(medians(runs[w][side], names),
                              failed_share=failed_share(runs[w][side]))
                   for side in SIDES}
               for w in workloads}
    spread = summarize(benchmark, runs)
    for workload in workloads:
        for name in names:
            entry = spread[workload][name]
            print("%-14s %-16s parent %10.4g [%.4g, %.4g]  change %10.4g "
                  "[%.4g, %.4g]  change wins %d/%d"
                  % ((workload, name)
                     + tuple(entry[side][q] for side in SIDES
                             for q in ("median", "q1", "q3"))
                     + (entry["change_wins"], entry["pairs"])))
        print("%-14s %-16s parent %10.4g  change %10.4g"
              % (workload, "failed_share",
                 summary[workload]["parent"]["failed_share"],
                 summary[workload]["change"]["failed_share"]))
    failures = decide(benchmark, runs)
    for failure in failures:
        print("FAIL " + failure)
    print(json.dumps({"seconds": seconds, "ungated": ungated, "pairs": pairs,
                      "medians": summary, "summary": spread,
                      "failures": failures}), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
