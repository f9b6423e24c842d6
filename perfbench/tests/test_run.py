"""The benchmark's own tests.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark binary (as ``run.py`` does) and run each listed
workload briefly.
"""

import json
import os
import re
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def listed_workloads():
    with open(SPEC_PATH) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


class Names(unittest.TestCase):
    def test_names_and_units_use_allowed_characters(self):
        tables = [run.END_TO_END, run.PER_LAYER, run.COORDINATOR]
        names = list(run.WORKLOADS) + [n for t in tables for n in t]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for unit in (u for t in tables for u in t.values()):
            self.assertRegex(unit, UNIT)

    def test_benchmark_json_matches_the_metric_tables(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
        for path in spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(run.ROOT, path)))


class Runs(unittest.TestCase):
    """Short runs of every listed workload."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.host = run.host_info()
        cls.results = {}

    def run_once(self, workload, seed, trace):
        key = (workload, seed, trace)
        if key not in self.results:
            self.results[key] = run.run(workload, seed, 1, trace, self.binary, self.host)
        return self.results[key]

    def test_every_workload_emits_its_full_metric_set(self):
        for workload in listed_workloads():
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = self.run_once(workload, 1, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = run.metric_set(workload, trace)
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], expected[name])
                        self.assertIsInstance(metric["value"], (int, float))

    def test_another_seed_changes_the_input_not_the_metric_set(self):
        for workload in listed_workloads():
            with self.subTest(workload=workload):
                first, first_report = self.run_once(workload, 1, False)
                second, second_report = self.run_once(workload, 2, False)
                digest = lambda r: r["children"][0]["input_digest"]  # noqa: E731
                self.assertNotEqual(digest(first_report), digest(second_report))
                self.assertEqual(set(first["metrics"]), set(second["metrics"]))

    def test_uds2_netmon_ends_in_bounded_time(self):
        # At the time of writing this run deadlocks; once fixed it must
        # pass with its full metric set. Either way it must not hang.
        start = time.monotonic()
        result, report = run.run("uds2-netmon", 1, 1, False, self.binary, self.host)
        self.assertLess(time.monotonic() - start, 120)
        if result["correct"]:
            self.assertEqual(set(result["metrics"]), set(run.metric_set("uds2-netmon", False)))
        else:
            self.assertEqual(result["failed"], result["attempted"])
            self.assertEqual(result["metrics"]["failed_answers_frac"]["value"], 1.0)
            self.assertEqual(report["children"][0]["status"], "hung")


class Supervision(unittest.TestCase):
    SETUP = 'print(\'{"event": "setup", "answers_per_pass": 7}\', flush=True); '

    def test_hung_child_is_reported_failed_without_blocking(self):
        child = [sys.executable, "-c", self.SETUP + "import time; time.sleep(600)"]
        start = time.monotonic()
        status, lines, code, threads = run.supervise(child, stall_window=1.0)
        record = run.child_record("fake", 1, status, lines, code, threads)
        self.assertLess(time.monotonic() - start, 10)
        self.assertEqual(status, "hung")
        self.assertTrue(threads)
        self.assertFalse(record["correct"])
        self.assertEqual((record["attempted"], record["failed"]), (7, 7))

    def test_busy_child_is_stopped_at_the_deadline(self):
        child = [sys.executable, "-c", "while True: pass"]
        start = time.monotonic()
        status, _, _, _ = run.supervise(child, deadline=2.0)
        self.assertLess(time.monotonic() - start, 10)
        self.assertEqual(status, "timeout")

    def test_child_without_a_result_is_failed(self):
        child = [sys.executable, "-c", self.SETUP + "raise SystemExit(3)"]
        record = run.child_record("fake", 1, *run.supervise(child))
        self.assertFalse(record["correct"])
        self.assertEqual(record["failed"], 7)


if __name__ == "__main__":
    unittest.main()
