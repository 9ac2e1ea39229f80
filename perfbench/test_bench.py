"""Self-tests of the benchmark, on reduced sizes so they run in seconds.

    python3 perfbench/test_bench.py
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import unittest
from pathlib import Path

import run
import tracing
import workloads
from srcverify import metadata

# pools smaller than OPS needs, so the recycled inputs are checked too
SMALL = {
    "cap-24k": dict(pool=6),
    "explorer-1k": dict(records=60, pool=2),
    "attack-matrix": dict(),
}
OPS = 40


def build(name: str, seed: int, root: Path):
    return workloads.BUILDERS[name](seed, root, **SMALL[name])


def outcomes(workload, tracer=None) -> list[tuple]:
    """(class, key, verdict) of the first OPS ops, traced when given a tracer."""
    seen = []
    for op_id, op in enumerate(itertools.islice(workload.ops, OPS), start=1):
        if tracer is not None:
            tracer.begin(op_id)
        result = exc = None
        try:
            result = op.call()
        except Exception as error:  # an error is an outcome to compare
            exc = error
        finally:
            if tracer is not None:
                tracer.end()
        verdict = (type(exc).__name__ if exc is not None
                   else getattr(result, "grade", getattr(result, "result", None)))
        seen.append((op.cls, op.key, str(verdict),
                     workloads.check(op, result, exc)))
    return seen


class BenchTest(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
        self.saved_tempdir = tempfile.tempdir
        tempfile.tempdir = str(self.tmp)   # the attack lab's temp stores

    def tearDown(self) -> None:
        tempfile.tempdir = self.saved_tempdir
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                first = build(name, 7, self.tmp / f"{name}-a")
                second = build(name, 7, self.tmp / f"{name}-b")
                other = build(name, 8, self.tmp / f"{name}-c")
                self.assertEqual(first.digest, second.digest)
                self.assertNotEqual(first.digest, other.digest)
                ops = [[(op.cls, op.key) for op in itertools.islice(w.ops, OPS)]
                       for w in (first, second)]
                self.assertEqual(ops[0], ops[1])

    def test_every_expected_outcome_holds(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                seen = outcomes(build(name, 3, self.tmp / name))
                self.assertTrue(seen)
                self.assertEqual([s for s in seen if not s[3]], [])

    def test_traced_and_untraced_outcomes_match(self):
        for name in workloads.BUILDERS:
            with self.subTest(workload=name):
                plain = outcomes(build(name, 5, self.tmp / f"{name}-plain"))
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = outcomes(build(name, 5, self.tmp / f"{name}-traced"),
                                      tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain, traced)
                self.assertTrue(tracer.spans)
                self.assertEqual(tracer.absent, [])

    def test_missing_seam_is_reported_absent(self):
        original = metadata.scan_metadata
        del metadata.scan_metadata           # as if renamed by a refactor
        metadata.scan_metadata_renamed = original
        tracer = tracing.Tracer()
        try:
            tracer.install()
            workload = build("cap-24k", 1, self.tmp / "cap")
            seen = outcomes(workload, tracer)
        finally:
            tracer.uninstall()
            del metadata.scan_metadata_renamed
            metadata.scan_metadata = original
        self.assertIn("metadata.scan_metadata", tracer.absent)
        self.assertTrue(all(s[3] for s in seen))
        ops = [run.OpRecord(i + 1, s[0].split(".")[0], s[0], s[1], 1, True, True)
               for i, s in enumerate(seen)]
        layers = tracing.layer_metrics(tracer, ops)
        self.assertNotIn("metadata.scan_ms_per_op", layers["all"])
        self.assertIn("keccak.ms_per_op", layers["all"])
        line = run.per_layer_line(layers["all"], tracer.absent)
        self.assertNotIn("metadata.scan_calls_per_op", line)
        self.assertIn("keccak.calls_per_op", line)
        self.assertEqual(line["trace.seams_absent"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
