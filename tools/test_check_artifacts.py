#!/usr/bin/env python3
"""Tests of the artifact gate's comparison rule (tools/check_artifacts.py).

    python3 tools/test_check_artifacts.py

Needs no binaries: each case writes a committed and a produced artifact
directory and checks what compare_dirs reports. A change to a deterministic
JSON value, a CSV cell or a CSV header, a missing file and an extra file
must each be caught; a change to a masked field must pass.
"""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_artifacts  # noqa: E402

BENCH_DOC = {
    "bench": "e0_example",
    "params": {"experiment": "E0", "p50_slots_alg3": "120"},
    "runs": [
        {"async": False, "trials": 20, "completed": 20, "success_rate": 1,
         "mean_completion": 70.125, "elapsed_seconds": 0.0123, "threads": 4,
         "robustness": {"fault_trials": 20, "recovered_links": 10}},
    ],
    "throughput": {"runs": 1, "trials": 20, "busy_seconds": 0.0123,
                   "trials_per_second": 1626.0, "default_threads": 4},
}
CSV_TEXT = ("n,path,trials,elapsed_s,trials_per_s\n"
            "256,indexed,40,0.52,76.9\n"
            "256,reference,40,0.81,49.3\n")


class CompareRule(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self.committed = root / "committed"
        self.produced = root / "produced"
        for directory in (self.committed, self.produced):
            directory.mkdir()
            self.write(directory, "BENCH_e0_example.json", BENCH_DOC)
            (directory / "e0_example.csv").write_text(CSV_TEXT)

    def tearDown(self):
        self._tmp.cleanup()

    @staticmethod
    def write(directory, name, doc):
        (directory / name).write_text(json.dumps(doc, indent=2))

    def problems(self):
        return check_artifacts.compare_dirs(self.committed, self.produced)

    def change_json(self, edit):
        doc = json.loads(json.dumps(BENCH_DOC))
        edit(doc)
        self.write(self.produced, "BENCH_e0_example.json", doc)

    def test_identical_directories_pass(self):
        self.assertEqual(self.problems(), [])

    def test_masked_json_fields_pass(self):
        def edit(doc):
            doc["runs"][0]["elapsed_seconds"] = 9.9
            doc["runs"][0]["threads"] = 1
            doc["throughput"] = {"runs": 7, "trials_per_second": 1.0}
        self.change_json(edit)
        self.assertEqual(self.problems(), [])

    def test_masked_csv_columns_pass(self):
        (self.produced / "e0_example.csv").write_text(
            CSV_TEXT.replace("0.52,76.9", "0.61,65.5"))
        self.assertEqual(self.problems(), [])

    def test_changed_json_value_fails(self):
        self.change_json(lambda doc: doc["runs"][0].update(
            mean_completion=70.25))
        [problem] = self.problems()
        self.assertIn("$.runs[0].mean_completion", problem)

    def test_changed_nested_json_value_fails(self):
        self.change_json(lambda doc: doc["runs"][0]["robustness"].update(
            recovered_links=11))
        [problem] = self.problems()
        self.assertIn("recovered_links", problem)

    def test_changed_json_param_fails(self):
        self.change_json(lambda doc: doc["params"].update(
            p50_slots_alg3="121"))
        self.assertEqual(len(self.problems()), 1)

    def test_added_json_run_fails(self):
        self.change_json(lambda doc: doc["runs"].append(doc["runs"][0]))
        [problem] = self.problems()
        self.assertIn("length", problem)

    def test_changed_csv_cell_fails(self):
        (self.produced / "e0_example.csv").write_text(
            CSV_TEXT.replace("reference,40", "reference,41"))
        [problem] = self.problems()
        self.assertIn("row 2 column trials", problem)

    def test_changed_csv_header_fails(self):
        (self.produced / "e0_example.csv").write_text(
            CSV_TEXT.replace("trials,elapsed_s", "trial_count,elapsed_s"))
        [problem] = self.problems()
        self.assertIn("header", problem)

    def test_added_csv_timing_column_fails(self):
        (self.produced / "e0_example.csv").write_text(
            CSV_TEXT.replace("trials_per_s\n", "trials_per_s,slots_per_s\n")
            .replace("76.9\n", "76.9,1.0\n").replace("49.3\n", "49.3,2.0\n"))
        [problem] = self.problems()
        self.assertIn("header", problem)

    def test_extra_csv_row_fails(self):
        (self.produced / "e0_example.csv").write_text(
            CSV_TEXT + "512,indexed,40,1.1,36.4\n")
        [problem] = self.problems()
        self.assertIn("row count", problem)

    def test_missing_file_fails(self):
        (self.produced / "e0_example.csv").unlink()
        self.assertEqual(self.problems(),
                         ["e0_example.csv: committed but not produced"])

    def test_extra_file_fails(self):
        (self.produced / "e99_new.csv").write_text(CSV_TEXT)
        self.assertEqual(self.problems(),
                         ["e99_new.csv: produced but not committed"])


if __name__ == "__main__":
    unittest.main()
