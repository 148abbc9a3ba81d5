"""Checks of perfbench/run.py's result schema and of BENCHMARK.json.

    python3 perfbench/tests/test_run.py

When the programs are built (.bench_build/perfbench), it also runs the C++
selftest and checks a short real run of each program against the schema.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def good_result(specs):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]} for m in specs}}


class ResultSchema(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.e2e = self.spec["end_to_end"]

    def test_accepts_a_complete_result(self):
        self.assertEqual(run.check_result(good_result(self.e2e), self.e2e), [])

    def test_rejects_a_missing_key(self):
        result = good_result(self.e2e)
        del result["failed"]
        self.assertTrue(run.check_result(result, self.e2e))

    def test_rejects_missing_and_extra_metrics(self):
        result = good_result(self.e2e)
        del result["metrics"]["setup_s"]
        result["metrics"]["extra"] = {"value": 1.0, "unit": "s"}
        self.assertTrue(run.check_result(result, self.e2e))

    def test_rejects_wrong_units_and_non_finite_values(self):
        result = good_result(self.e2e)
        result["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(result, self.e2e))
        result = good_result(self.e2e)
        result["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(run.check_result(result, self.e2e))

    def test_rejects_bad_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (True, 0), (2.5, 0)):
            result = good_result(self.e2e)
            result["attempted"], result["failed"] = attempted, failed
            self.assertTrue(run.check_result(result, self.e2e), (attempted, failed))


class BenchmarkSpec(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {}
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertTrue(0 < m["bound"] <= 0.25)
            bounds[m["name"]] = m["bound"]
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)


BUILT = os.path.join(run.BUILD_DIR, run.PROGRAMS[1])


@unittest.skipUnless(os.path.exists(BUILT), "benchmark programs not built")
class BuiltPrograms(unittest.TestCase):
    def test_selftest(self):
        subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_selftest")], check=True)

    def test_real_results_match_the_schema(self):
        spec = run.load_spec()
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = subprocess.run([os.path.join(run.BUILD_DIR, run.PROGRAMS[trace]),
                                  "--workload", "service-churn-n1000", "--seed", "3",
                                  "--seconds", "0.1"], capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(run.check_result(result, metrics), [])
            self.assertTrue(result["correct"], result.get("errors"))


if __name__ == "__main__":
    unittest.main()
