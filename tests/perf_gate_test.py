#!/usr/bin/env python3
"""Decision logic of tools/perf_gate.py, on synthetic perfbench reports.

Usage: perf_gate_test.py

Needs no perfbench build: every report is made up here, and the main()
cases hand the gate a fake runner and a made-up parent checkout. Registered with ctest as
`perf_gate_test`.
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(ROOT, "tools", "perf_gate.py"))
perf_gate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(perf_gate)

BENCHMARK = perf_gate.load_benchmark(ROOT)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BASE = {"sim_to_wall": 2.0, "setup_s": 0.1, "peak_rss_mb": 20.0,
        "flows_completed": 1.0}


def report(correct=True, attempted=1000, failed=0, processes=5, **metrics):
    values = dict(BASE, **metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "processes": processes,
            "metrics": {name: {"value": value, "unit": "-"}
                        for name, value in values.items()}}


def runs(change=None, parent=None, pairs=3):
    """Reports of `pairs` pairs on every workload; `change` and `parent`
    map a workload to the report its side gets on every pair."""
    change = change or {}
    parent = parent or {}
    return {w: {"parent": [parent.get(w, report()) for _ in range(pairs)],
                "change": [change.get(w, report()) for _ in range(pairs)]}
            for w in WORKLOADS}


def bound(name):
    return next(m["bound"] for m in BENCHMARK["end_to_end"]
                if m["name"] == name)


class DecideTest(unittest.TestCase):

    def test_change_within_every_bound_passes(self):
        within = report(sim_to_wall=2.0 * (1 - 0.9 * bound("sim_to_wall")),
                        setup_s=0.1 * (1 + 0.9 * bound("setup_s")),
                        peak_rss_mb=20.0 * (1 + 0.9 * bound("peak_rss_mb")),
                        flows_completed=1 - 0.9 * bound("flows_completed"))
        self.assertEqual(
            perf_gate.decide(BENCHMARK, runs({w: within for w in WORKLOADS})),
            [])

    def test_higher_is_better_metric_past_its_bound_fails(self):
        slow = report(sim_to_wall=2.0 * (1 - 1.2 * bound("sim_to_wall")))
        failures = perf_gate.decide(BENCHMARK, runs({"fattree_k16": slow}))
        self.assertEqual(len(failures), 1)
        self.assertIn("fattree_k16 sim_to_wall", failures[0])

    def test_faster_change_passes(self):
        fast = report(sim_to_wall=4.0, setup_s=0.01, peak_rss_mb=5.0)
        self.assertEqual(
            perf_gate.decide(BENCHMARK, runs({w: fast for w in WORKLOADS})),
            [])

    def test_lower_is_better_metrics_past_their_bounds_fail(self):
        for name, base in (("setup_s", 0.1), ("peak_rss_mb", 20.0)):
            with self.subTest(metric=name):
                worse = report(**{name: base * (1 + 1.2 * bound(name))})
                failures = perf_gate.decide(
                    BENCHMARK, runs({"dumbbell_ws70": worse}))
                self.assertEqual(len(failures), 1)
                self.assertIn("dumbbell_ws70 " + name, failures[0])

    def test_medians_ignore_one_outlier(self):
        sides = runs()
        sides["interdc_churn"]["change"][0] = report(sim_to_wall=0.1)
        self.assertEqual(perf_gate.decide(BENCHMARK, sides), [])

    def test_incorrect_run_on_either_side_fails(self):
        for side in perf_gate.SIDES:
            with self.subTest(side=side):
                sides = runs()
                sides["interdc_churn"][side][1] = report(correct=False)
                failures = perf_gate.decide(BENCHMARK, sides)
                self.assertEqual(len(failures), 1)
                self.assertIn("interdc_churn", failures[0])
                self.assertIn(side, failures[0])
                self.assertIn("correct: false", failures[0])

    def test_more_failed_flows_over_no_more_instances_fails(self):
        # Within flows_completed's bound, so only the failed count trips.
        for processes in (5, 4):
            with self.subTest(processes=processes):
                failing = report(failed=1, processes=processes)
                failures = perf_gate.decide(
                    BENCHMARK, runs({"fattree_k16": failing}))
                self.assertEqual(len(failures), 3)
                self.assertIn("fattree_k16: pair 1: 1 failed flows over "
                              "%d instances, the parent 0 over 5" % processes,
                              failures[0])
        # The same count on both sides passes.
        failing = report(failed=1)
        self.assertEqual(
            perf_gate.decide(BENCHMARK, runs({"fattree_k16": failing},
                                             {"fattree_k16": failing})),
            [])

    def test_failure_on_an_instance_the_parent_did_not_run_passes(self):
        # A faster change runs more seeds; a failure it alone reached is
        # left to flows_completed's bound.
        faster = report(failed=1, processes=6)
        self.assertEqual(
            perf_gate.decide(BENCHMARK, runs({"fattree_k16": faster})), [])


class SummarizeTest(unittest.TestCase):

    def test_quartiles_and_wins_per_workload_and_metric(self):
        # Five pairs of fattree_k16 runs; pair 3 ties on sim_to_wall, and
        # the change's setup_s is lower (better) on pairs 1 and 2 only.
        parent_speed = [1.0, 2.0, 3.0, 4.0, 5.0]
        change_speed = [1.5, 2.5, 3.0, 3.5, 6.0]
        parent_setup = [0.1] * 5
        change_setup = [0.05, 0.09, 0.1, 0.2, 0.3]
        sides = runs(pairs=5)
        sides["fattree_k16"] = {
            "parent": [report(sim_to_wall=v, setup_s=t)
                       for v, t in zip(parent_speed, parent_setup)],
            "change": [report(sim_to_wall=v, setup_s=t)
                       for v, t in zip(change_speed, change_setup)]}
        summary = perf_gate.summarize(BENCHMARK, sides)
        self.assertEqual(sorted(summary), sorted(WORKLOADS))
        speed = summary["fattree_k16"]["sim_to_wall"]
        self.assertEqual(speed["parent"],
                         {"q1": 2.0, "median": 3.0, "q3": 4.0})
        self.assertEqual(speed["change"],
                         {"q1": 2.5, "median": 3.0, "q3": 3.5})
        self.assertEqual((speed["change_wins"], speed["pairs"]), (3, 5))
        setup = summary["fattree_k16"]["setup_s"]
        self.assertEqual(setup["change_wins"], 2)
        # Identical reports tie on every pair: no side wins.
        flat = summary["dumbbell_ws70"]["flows_completed"]
        self.assertEqual(flat["change_wins"], 0)
        self.assertEqual(flat["parent"], {"q1": 1.0, "median": 1.0, "q3": 1.0})
        # A single pair's value is all three quartiles.
        self.assertEqual(perf_gate.quartiles([7.0]),
                         {"q1": 7.0, "median": 7.0, "q3": 7.0})

    def test_wins_do_not_change_the_decision(self):
        # The change loses every pair, within every bound: still a pass.
        within = report(sim_to_wall=2.0 * (1 - 0.5 * bound("sim_to_wall")))
        sides = runs({w: within for w in WORKLOADS})
        self.assertEqual(perf_gate.decide(BENCHMARK, sides), [])
        self.assertEqual(
            perf_gate.summarize(BENCHMARK, sides)["fattree_k16"]
            ["sim_to_wall"]["change_wins"], 0)


class CommonTest(unittest.TestCase):

    def test_gates_only_what_both_sides_declare(self):
        parent = json.loads(json.dumps(BENCHMARK))
        parent["workloads"] = parent["workloads"][1:]
        parent["end_to_end"] = [m for m in parent["end_to_end"]
                                if m["name"] != "setup_s"]
        parent["end_to_end"].append({"name": "gone", "better": "lower",
                                     "bound": 0.1})
        shared, ungated = perf_gate.common(BENCHMARK, parent)
        self.assertEqual([w["name"] for w in shared["workloads"]],
                         WORKLOADS[1:])
        self.assertEqual([m["name"] for m in shared["end_to_end"]],
                         [m["name"] for m in BENCHMARK["end_to_end"]
                          if m["name"] != "setup_s"])
        self.assertEqual(ungated, [WORKLOADS[0], "gone", "setup_s"])

    def test_malformed_reports_are_named(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        self.assertIsNone(perf_gate.malformed(report(), names))
        no_metric = report()
        del no_metric["metrics"]["setup_s"]
        no_processes = report()
        del no_processes["processes"]
        for bad, why in ((None, "not a JSON object"),
                         (dict(report(), correct="yes"), "`correct`"),
                         (no_processes, "`processes`"),
                         (report(failed=float("nan")), "`failed`"),
                         (no_metric, "metrics.setup_s.value"),
                         (report(sim_to_wall="fast"),
                          "metrics.sim_to_wall.value")):
            with self.subTest(why=why):
                self.assertIn(why, perf_gate.malformed(bad, names))


class ScheduleTest(unittest.TestCase):

    def test_pair_order_alternates(self):
        self.assertEqual(perf_gate.pair_order(0), ("parent", "change"))
        self.assertEqual(perf_gate.pair_order(1), ("change", "parent"))
        self.assertEqual(perf_gate.pair_order(2), ("parent", "change"))

    def test_schedule_interleaves_every_workload_per_pair(self):
        plan = perf_gate.schedule(2, ["a", "b"])
        self.assertEqual(plan, [
            (0, "a", "parent"), (0, "a", "change"),
            (0, "b", "parent"), (0, "b", "change"),
            (1, "a", "change"), (1, "a", "parent"),
            (1, "b", "change"), (1, "b", "parent")])


class MainTest(unittest.TestCase):

    def gate(self, fake_run, parent_benchmark=BENCHMARK, argv=()):
        """Runs main() against a made-up parent checkout; returns its exit
        code, the parsed JSON record (None when it printed none) and its
        stdout."""
        with tempfile.TemporaryDirectory() as parent:
            os.makedirs(os.path.join(parent, "perfbench"))
            open(os.path.join(parent, "perfbench", "run.py"), "w").close()
            with open(os.path.join(parent, "BENCHMARK.json"), "w") as f:
                json.dump(parent_benchmark, f)

            def run(root, workload, seconds):
                side = "parent" if root == parent else "change"
                return fake_run(side, workload, seconds)

            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = perf_gate.main([parent] + list(argv), run=run)
        lines = out.getvalue().strip().splitlines()
        record = json.loads(lines[-1]) if lines and code != 2 else None
        return code, record, out.getvalue()

    def test_runs_the_schedule_and_exits_on_the_decision(self):
        for slow, want in ((False, 0), (True, 1)):
            calls = []

            def fake_run(side, workload, seconds):
                calls.append((workload, side, seconds))
                if slow and side == "change" and workload == "fattree_k16":
                    return report(sim_to_wall=1.0)
                return report()

            code, record, _ = self.gate(fake_run, argv=["--pairs", "2"])
            self.assertEqual(code, want)
            self.assertEqual(len(calls), 2 * 2 * len(WORKLOADS))
            self.assertEqual([c[1] for c in calls[:2]], ["parent", "change"])
            half = len(calls) // 2
            self.assertEqual([c[1] for c in calls[half:half + 2]],
                             ["change", "parent"])
            # The run length is always BENCHMARK.json's.
            self.assertTrue(all(c[2] == BENCHMARK["run_seconds"]
                                for c in calls))
            self.assertEqual(len(record["pairs"]), 2)
            self.assertEqual(record["pairs"][1]["fattree_k16"]["order"],
                             ["change", "parent"])
            self.assertEqual(
                record["medians"]["fattree_k16"]["change"]["sim_to_wall"],
                1.0 if slow else 2.0)
            speed = record["summary"]["fattree_k16"]["sim_to_wall"]
            self.assertEqual(speed["change"]["median"], 1.0 if slow else 2.0)
            self.assertEqual((speed["change_wins"], speed["pairs"]), (0, 2))
            self.assertEqual(bool(record["failures"]), slow)

    def test_workload_the_parent_lacks_is_not_gated(self):
        parent = json.loads(json.dumps(BENCHMARK))
        parent["workloads"] = [w for w in parent["workloads"]
                               if w["name"] != "interdc_churn"]
        calls = []

        def fake_run(side, workload, seconds):
            calls.append(workload)
            # A regression on the new workload cannot fail the gate.
            return report(sim_to_wall=0.1 if side == "change" else 2.0)

        code, record, out = self.gate(fake_run, parent, ["--pairs", "1"])
        self.assertEqual(code, 1)
        self.assertNotIn("interdc_churn", calls)
        self.assertIn("not gated: interdc_churn", out)
        self.assertEqual(record["ungated"], ["interdc_churn"])
        self.assertEqual(sorted(record["medians"]),
                         sorted(set(WORKLOADS) - {"interdc_churn"}))

    def test_metric_the_parent_lacks_is_not_gated(self):
        parent = json.loads(json.dumps(BENCHMARK))
        parent["end_to_end"] = [m for m in parent["end_to_end"]
                                if m["name"] != "setup_s"]

        def fake_run(side, workload, seconds):
            # Only the change reports setup_s, and it is far worse.
            if side == "change":
                return report(setup_s=100.0)
            without = report()
            del without["metrics"]["setup_s"]
            return without

        code, record, out = self.gate(fake_run, parent, ["--pairs", "1"])
        self.assertEqual(code, 0)
        self.assertIn("not gated: setup_s", out)
        self.assertNotIn("setup_s", record["medians"]["fattree_k16"]["change"])

    def test_malformed_or_missing_result_cannot_measure(self):
        def no_metric(side, workload, seconds):
            bad = report()
            del bad["metrics"]["peak_rss_mb"]
            return bad

        for fake_run in (no_metric, lambda side, workload, seconds: None):
            code, _, out = self.gate(fake_run, argv=["--pairs", "1"])
            self.assertEqual(code, 2)
            self.assertNotIn("FAIL", out)

    def test_parent_without_benchmark_json_cannot_measure(self):
        with tempfile.TemporaryDirectory() as parent:
            os.makedirs(os.path.join(parent, "perfbench"))
            open(os.path.join(parent, "perfbench", "run.py"), "w").close()
            with contextlib.redirect_stderr(io.StringIO()), \
                    self.assertRaises(SystemExit) as exit_:
                perf_gate.main([parent], run=lambda *a: report())
        self.assertEqual(exit_.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
