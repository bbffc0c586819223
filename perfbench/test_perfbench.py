#!/usr/bin/env python3
"""The benchmark's own tests. Builds the runner like run.py does, then
checks the digest check, seed handling, metric names and the per-layer
replays on tiny instances. Takes a few seconds once built:

    python3 perfbench/test_perfbench.py
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_FLOWS = 40


def runner(*args):
    return run.run_process(BINARY, list(args))


def tiny(mode, workload, seed, *extra):
    return runner(mode, "--workload", workload, "--seed", str(seed),
                  "--flows", str(TINY_FLOWS), *extra)


class DigestCheckTest(unittest.TestCase):
    def test_recorded_digest_matches_itself(self):
        table = run.load_digests()
        for workload, entry in table.items():
            self.assertEqual(run.digest_errors(
                workload, entry["seed"], entry["flows"], entry["digest"],
                table), [])

    def test_trips_on_each_perturbed_field(self):
        table = run.load_digests()
        entry = table["dumbbell_ws70"]
        for key, value in entry["digest"].items():
            perturbed = copy.deepcopy(entry["digest"])
            perturbed[key] = value + 1 if isinstance(value, int) \
                else math.nextafter(value, math.inf)
            errors = run.digest_errors("dumbbell_ws70", entry["seed"],
                                       entry["flows"], perturbed, table)
            self.assertEqual(len(errors), 1, key)
            self.assertIn(key, errors[0])

    def test_trips_on_missing_field(self):
        table = run.load_digests()
        entry = table["fattree_k16"]
        partial = dict(entry["digest"])
        del partial["hops"]
        self.assertTrue(run.digest_errors("fattree_k16", entry["seed"],
                                          entry["flows"], partial, table))

    def test_other_instances_are_not_compared(self):
        table = run.load_digests()
        entry = table["dumbbell_ws70"]
        self.assertEqual(run.digest_errors("dumbbell_ws70", entry["seed"] + 1,
                                           entry["flows"], {}, table), [])

    def test_default_seed_instance_reproduces_the_record(self):
        entry = run.load_digests()["dumbbell_ws70"]
        report = runner("run", "--workload", "dumbbell_ws70", "--seed",
                        str(entry["seed"]), "--flows", str(entry["flows"]))
        self.assertEqual(report["digest"], entry["digest"])
        self.assertEqual(report["invariant_errors"], [])


class ParityTest(unittest.TestCase):
    def test_from_pieces_equals_public_runner(self):
        for workload in run.WORKLOADS:
            for seed in (1, 8):
                with self.subTest(workload=workload, seed=seed):
                    pieces = tiny("run", workload, seed)
                    public = tiny("public", workload, seed)
                    self.assertEqual(pieces["digest"], public["digest"])
                    self.assertEqual(pieces["invariant_errors"], [])

    def test_traced_run_keeps_the_digest(self):
        # The traced run's probe events must not change the simulation.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = tiny("run", workload, 3)
                traced = tiny("run", workload, 3, "--trace",
                              "--replay-scale", "0.001")
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertEqual(traced["invariant_errors"], [])


class SeedTest(unittest.TestCase):
    def test_seed_changes_inputs_and_nothing_else(self):
        a = tiny("run", "interdc_churn", 5, "--trace", "--replay-scale",
                 "0.001")
        b = tiny("run", "interdc_churn", 6, "--trace", "--replay-scale",
                 "0.001")
        again = tiny("run", "interdc_churn", 5)
        self.assertEqual(a["digest"], again["digest"])
        self.assertNotEqual(a["digest"], b["digest"])
        # Same shape: flow count, burst flows and scenario occurrences.
        self.assertEqual(a["flows"], b["flows"])
        self.assertEqual(a["flows_started"], b["flows_started"])
        self.assertEqual(a["layers"]["dynamics.actions"],
                         b["layers"]["dynamics.actions"])

    def test_process_seeds_are_distinct_and_start_at_the_seed(self):
        seeds = [run.subseed(1, i) for i in range(64)]
        self.assertEqual(seeds[0], 1)
        self.assertEqual(len(set(seeds)), len(seeds))


class NamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_and_units_are_valid(self):
        names = []
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            names.append(metric["name"])
        for workload in self.spec["workloads"]:
            self.assertRegex(workload["name"], NAME)
            names.append(workload["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_spec_matches_what_run_py_emits(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]},
            run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


class ReplayTest(unittest.TestCase):
    def test_replays_complete_on_tiny_shapes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                report = tiny("run", workload, 2, "--trace",
                              "--replay-scale", "0.001")
                layers = report["layers"]
                for name in run.PER_LAYER:
                    if name == "trace.overhead":
                        continue
                    self.assertIn(name, layers)
                    self.assertTrue(math.isfinite(layers[name]), name)
                    self.assertGreaterEqual(layers[name], 0, name)
                for name in run.PER_LAYER:
                    if ".ns_per_" in name:
                        self.assertGreater(layers[name], 0, name)


class DriverTest(unittest.TestCase):
    def drive(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "dumbbell_ws70", "--seed", "4", "--seconds", "0", "--trace",
             str(trace), "--flows", str(TINY_FLOWS), "--replay-scale",
             "0.001"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines[0].startswith("provenance: "))
        provenance = json.loads(lines[0][len("provenance: "):])
        for key in ("build_type", "compiler", "nproc", "loadavg_1m", "seed",
                    "flows", "calibration_ns"):
            self.assertIn(key, provenance)
        return json.loads(lines[-1])

    def test_untraced_result_line(self):
        result = self.drive(0)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], run.END_TO_END[name])
            self.assertGreater(metric["value"], 0, name)

    def test_traced_result_line(self):
        result = self.drive(1)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
