"""Tests of the benchmark itself: seeded inputs, work bands, output checks, tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout; scratch files go under ``.perfbench/``.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SCRATCH = worker.ROOT / ".perfbench" / f"selftest-{os.getpid()}"


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_documents(self):
        for workload in gen.GENERATORS:
            files, manifest = gen.generate(workload, 7)
            again, manifest_again = gen.generate(workload, 7)
            self.assertEqual(files, again, workload)
            self.assertEqual(manifest, manifest_again, workload)
            other = gen.generate(workload, 8)
            self.assertNotEqual(gen.inputs_digest(files, manifest), gen.inputs_digest(*other), workload)

    def test_work_band_holds_for_three_seeds(self):
        for seed in (0, 1, 2):
            _, m = gen.generate("roles-graph", seed)
            sizes = [n["closure"]["elements"] for n in m["networks"]]
            self.assertLessEqual(len(sizes), gen.GRAPH_PICK)
            self.assertTrue(all(gen.GRAPH_BAND[0] <= x <= gen.GRAPH_BAND[1] for x in sizes), sizes)
            self.assertLess(abs(m["work"]["cells"] / gen.GRAPH_BUDGET - 1), 0.02, m["work"])

            _, m = gen.generate("roles-hyper", seed)
            tight = [n["closures"][0]["elements"] for n in m["networks"]]
            self.assertLessEqual(len(tight), gen.HYPER_PICK)
            self.assertTrue(all(gen.HYPER_BAND[0] <= x <= gen.HYPER_BAND[1] for x in tight), tight)
            self.assertLess(abs(m["work"]["compose_work"] / gen.HYPER_BUDGET - 1), 0.05, m["work"])

            _, m = gen.generate("positions", seed)
            self.assertEqual(m["work"]["actors"], 8 * 140 + 6 * 70 + 2 * 280)
            self.assertEqual(m["work"]["blocks"]["family"][0], gen.GENEALOGY[0])
            self.assertEqual(m["work"]["blocks"]["chains"], [gen.CHAINS[1]] * 2)

            _, m = gen.generate("small-batch", seed)
            self.assertEqual(m["work"]["cases"], sum(gen.BATCH_MIX.values()) + 16)
            self.assertEqual(set(m["work"]["malformed"].values()), {gen.BATCH_MALFORMED_EACH})


class MetricNames(unittest.TestCase):
    def test_baseline_uses_the_metric_names_of_the_benchmark(self):
        end_to_end, per_layer = set(run.units("end_to_end")), set(run.units("per_layer"))
        baseline = json.loads((worker.HERE / "baseline.json").read_text())
        self.assertEqual(set(baseline["metric_map"]), per_layer)
        self.assertEqual(set(baseline["baseline"]), set(gen.GENERATORS))
        for workload, entry in baseline["baseline"].items():
            self.assertEqual(set(entry["end_to_end"]), end_to_end, workload)
            self.assertEqual(set(entry["per_layer"]), per_layer, workload)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rb = worker.import_roleblock()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def run_job(self, workload, seed, keep=None, tamper=None):
        """One untraced repetition, optionally on part of the job and with the
        CLI's outputs altered by ``tamper(argv, code)`` after each call."""
        files, manifest = gen.generate(workload, seed)
        if keep:
            manifest = keep(manifest)
        where = SCRATCH / f"{workload}-{seed}"
        where.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (where / name).write_bytes(data)
        real = self.rb.cli.main

        def main(argv):
            code = real(argv)
            if tamper:
                tamper(argv, code)
            return code

        cwd = os.getcwd()
        os.chdir(where)
        self.rb.cli.main = main
        try:
            ops = jobs.Ops(self.rb, tracing.untraced(self.rb))
            jobs.JOBS[workload](ops, manifest)
        finally:
            self.rb.cli.main = real
            os.chdir(cwd)
        return ops

    def test_one_flipped_cayley_cell_is_caught(self):
        def flip(argv, code):
            if argv[0] == "roles":
                path = argv[argv.index("--table") + 1]
                rows = [line.split(",") for line in Path(path).read_text().split("\n")]
                row = rows[len(rows) // 2]
                row[-3] = next(label for label in rows[0][1:] if label != row[-3])
                Path(path).write_text("\n".join(",".join(r) for r in rows))

        def first_network(m):
            return dict(m, networks=m["networks"][:1])

        clean = self.run_job("roles-graph", 1, keep=first_network)
        self.assertEqual((clean.crashed, clean.wrong), ([], []))
        ops = self.run_job("roles-graph", 1, keep=first_network, tamper=flip)
        self.assertEqual(ops.crashed, [])
        self.assertEqual(len(ops.wrong), 1, ops.wrong)
        self.assertIn("net0:roles-graph", ops.wrong[0])
        self.assertIn("cell", ops.wrong[0])

    def test_one_moved_actor_is_caught(self):
        def move(argv, code):
            # runs inside the captured stdout: rewrite what max-regular printed
            if argv[0] == "max-regular":
                doc = json.loads(sys.stdout.getvalue())
                if len(doc["blocks"]) > 1:
                    doc["blocks"][0].append(doc["blocks"][-1].pop())
                    doc["blocks"] = [b for b in doc["blocks"] if b]
                sys.stdout.seek(0)
                sys.stdout.truncate()
                sys.stdout.write(json.dumps(doc))

        def max_regular_only(m):
            cases = [c for c in m["cases"] if c["op"] == "max-regular" and len(c["blocks"]) > 1]
            return dict(m, cases=cases[:5])

        ops = self.run_job("small-batch", 1, keep=max_regular_only, tamper=move)
        self.assertEqual(ops.attempted, 5)
        self.assertEqual(ops.crashed, [])
        self.assertEqual(len(ops.wrong), 5, ops.wrong)
        self.assertTrue(all("partition differs" in w for w in ops.wrong), ops.wrong)

    def test_small_batch_fails_only_on_non_utf8_documents(self):
        _, manifest = gen.generate("small-batch", gen.DEFAULT_SEED)
        ops = self.run_job("small-batch", gen.DEFAULT_SEED)
        non_utf8 = sorted(c["id"] for c in manifest["cases"] if c.get("malformed") == "non-utf8")
        self.assertEqual(ops.wrong, [])
        self.assertEqual(sorted(m.split(":")[0] for m in ops.crashed), non_utf8)
        self.assertTrue(all("UnicodeDecodeError" in m for m in ops.crashed), ops.crashed)
        self.assertEqual(len(ops.crashed) / ops.attempted, len(non_utf8) / len(manifest["cases"]))
        self.assertGreater(len(ops.crashed), 0)


class TracedRun(unittest.TestCase):
    def solve(self, workload):
        where = SCRATCH / f"traced-{workload}"
        args = ["--workload", workload, "--seed", "3", "--dir", str(where)]
        out = io.StringIO()
        cwd = os.getcwd()
        try:
            with contextlib.redirect_stdout(out):
                worker.main(["setup", *args])
                worker.main(["solve", *args, "--seconds", "0", "--trace", "1"])
        finally:
            os.chdir(cwd)
        return json.loads(out.getvalue().strip().split("\n")[-1])

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_traced_run_reports_layers_and_matches_untraced_outputs(self):
        result = self.solve("small-batch")
        self.assertEqual(result["wrong"], [])
        layers = result["per_layer"]
        self.assertEqual(set(layers), set(run.units("per_layer")))
        for name in ("cli.calls", "cli.self_s", "documents.load_s", "core.oracle_s", "semigroup.closure_s"):
            self.assertGreater(layers[name], 0, name)

    def test_traced_run_fails_when_an_expected_span_never_fires(self):
        expected = tracing.EXPECTED["small-batch"]
        tracing.EXPECTED["small-batch"] = expected + ["reduction.functor"]
        try:
            with self.assertRaises(SystemExit) as caught:
                self.solve("small-batch")
        finally:
            tracing.EXPECTED["small-batch"] = expected
        self.assertIn("reduction.functor", str(caught.exception))


if __name__ == "__main__":
    unittest.main()
