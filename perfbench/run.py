"""Closed-loop benchmark of srcverify's public API, one client, stdlib only.

    python3 perfbench/run.py --workload cap-24k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs per process.  ``--workload all`` runs each workload in a
fresh child process, one after another, and prints every report.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it alternates blocks of untraced and traced ops over the same
op stream, reports per-layer metrics from the traced ops and the tracing
overhead from the difference.  End-to-end metrics always come from untraced
runs.

The machine's speed drifts by tens of percent over seconds on a shared
host, and moves every timing with it.  So the loop interleaves a fixed
pure-Python reference computation (about 1 ms) after each 10 ms of op time,
and the JSON line's metrics divide each op's latency by the mean of the
reference samples taken just before and after it: latency in "ref" units.
Raw wall-clock figures are printed beside them.

The last line of standard output is one JSON object; a result file with an
environment header goes to ``perfbench/out/``.  The exit code is 1 when any
op's outcome differs from the one expected by construction.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cap-24k", "explorer-1k", "attack-matrix")
# builds per process; setup_s is their median.  An explorer-1k build takes
# about 12 s, and three keep its run near a minute.
SETUP_REPEATS = {"cap-24k": 5, "explorer-1k": 3, "attack-matrix": 15}
TRACE_BLOCK = {"cap-24k": 10, "explorer-1k": 40, "attack-matrix": 32}
P90_MIN_SAMPLES = 100
OP_METRICS = ("ops_per_kref", "op_p50_ref", "ops_per_s", "op_p50_ms")
REF_EVERY_NS = 10_000_000
SETUP_REF_EVERY_NS = 50_000_000   # set-up samples less often, each a median
SETUP_REF_REPEATS = 5
REF_ITERATIONS = 3_500      # about 1 ms: CPython 3.11, 2-vCPU x86-64 VM
REF_NOMINAL_S = 1e-3
CHILD_TIMEOUT_S = 600
_MASK64 = (1 << 64) - 1


def reference_work() -> int:
    """Fixed integer and list work, the kind the package's hot loops do."""
    lanes = list(range(25))
    acc = 0
    for i in range(REF_ITERATIONS):
        j = i % 25
        acc = (acc * 31 + lanes[j] ^ (acc >> 7)) & _MASK64
        lanes[j] = acc
    return acc


class SpeedReference:
    """Samples reference_work() between units of work.

    add(work_ns) counts work time and takes a sample once every_ns of it has
    passed; the work since the previous sample is then valued at the mean of
    the samples before and after it.  A sample is the median of `repeats`
    runs of reference_work.  `refs` totals work in those units,
    `sampling_ns` the time spent on the samples themselves.
    """

    def __init__(self, every_ns: int = REF_EVERY_NS, repeats: int = 1) -> None:
        self.every_ns = every_ns
        self.repeats = repeats
        self.sampling_ns = 0
        self.refs = 0.0
        self._work_ns = 0
        self._before = self._sample()
        self._mark = time.perf_counter_ns()

    def _sample(self) -> float:
        took = []
        for _ in range(self.repeats):
            start = time.perf_counter_ns()
            reference_work()
            took.append(time.perf_counter_ns() - start)
        self.sampling_ns += sum(took)
        return statistics.median(took)

    def add(self, work_ns: int) -> float | None:
        """The reference time for the work since the last sample, once a
        sample is due; None before that."""
        self._work_ns += work_ns
        return self.close() if self._work_ns >= self.every_ns else None

    def close(self) -> float:
        after = self._sample()
        local = (self._before + after) / 2
        self.refs += self._work_ns / local
        self._before, self._work_ns = after, 0
        return local

    def tick(self) -> None:
        """Between set-up steps: count the wall time since the last tick."""
        now = time.perf_counter_ns()
        self.add(now - self._mark)
        self._mark = time.perf_counter_ns()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": f"{platform.system()}-{platform.release()}-"
                    f"{platform.machine()}",
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "srcverify": "imported from src/ of this checkout; the package is "
                     "not installed",
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# --- one workload ---

class OpRecord(NamedTuple):
    id: int
    kind: str
    cls: str
    key: str
    ns: int
    ok: bool
    traced: bool
    ref_ns: float = 0.0     # machine speed around the op, see reference_work

    @property
    def refs(self) -> float:
        return self.ns / self.ref_ns


def _setup(workloads, name: str, seed: int, scratch: Path):
    """Build the workload SETUP_REPEATS[name] times; keep the last build.

    Returns the workload, each build's time in seconds at reference speed
    (the speed at which reference_work takes REF_NOMINAL_S), and each
    build's wall time without the reference samples.
    """
    times, walls = [], []
    workload = None
    for attempt in range(SETUP_REPEATS[name]):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        root = scratch / f"{name}-{attempt}"
        start = time.perf_counter_ns()
        reference = SpeedReference(SETUP_REF_EVERY_NS, SETUP_REF_REPEATS)
        workload = workloads.BUILDERS[name](seed, root, tick=reference.tick)
        reference.tick()
        reference.close()
        walls.append((time.perf_counter_ns() - start
                      - reference.sampling_ns) / 1e9)
        times.append(reference.refs * REF_NOMINAL_S)
    return workload, times, walls


def _run_ops(workload, check, seconds: float, tracer, block: int):
    """Closed loop over the op stream until the time is up.

    Returns an OpRecord per op and the first few failures.  The op streams
    are endless; one that ends before the time is up is a broken benchmark.
    Without a tracer every op is untraced; with one, blocks of `block` ops
    alternate untraced and traced.  Reference samples run between ops,
    outside every op's timing.
    """
    records = []
    failures = []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    gc.collect()
    reference = SpeedReference()
    pending = 0          # ops since the last reference sample
    for op_id, op in enumerate(workload.ops, start=1):
        traced = tracer is not None and (op_id - 1) // block % 2 == 1
        if traced:
            tracer.install()
            tracer.begin(op_id)
        elif tracer is not None:
            tracer.uninstall()
        exc = result = None
        start = clock()
        try:
            result = op.call()
        except Exception as error:  # any error is an outcome to check
            exc = error
        end = clock()
        if traced:
            tracer.end()
        ok = check(op, result, exc)
        if not ok and len(failures) < 5:
            failures.append(f"{op.cls}: got {exc!r}" if exc is not None
                            else f"{op.cls}: got {result!r}"[:300])
        records.append(OpRecord(op_id, op.kind, op.cls, op.key, end - start,
                                ok, traced))
        pending += 1
        local = reference.add(end - start)
        if local is not None:
            for i in range(len(records) - pending, len(records)):
                records[i] = records[i]._replace(ref_ns=local)
            pending = 0
        if end >= deadline:
            break
    else:
        raise RuntimeError("the op stream ended before the time was up")
    if pending:
        local = reference.close()
        for i in range(len(records) - pending, len(records)):
            records[i] = records[i]._replace(ref_ns=local)
    if tracer is not None:
        tracer.uninstall()
    return records, failures


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _weighted_p50(records, value) -> tuple[float, dict]:
    """Sum over op classes of (class share x class median of value(r))."""
    by_class = defaultdict(list)
    for r in records:
        by_class[r.cls].append(value(r))
    total = sum(len(v) for v in by_class.values())
    medians = {cls: statistics.median(v) for cls, v in by_class.items()}
    return sum(len(by_class[c]) / total * m for c, m in medians.items()), medians


def _ms(r: OpRecord) -> float:
    return r.ns / 1e6


def _refs(r: OpRecord) -> float:
    return r.refs


def end_to_end(records, setup_times) -> tuple[dict, dict]:
    """Metrics every workload has, and the per-op-kind latencies."""
    per_kind = {}
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.kind].append(r.ns / 1e6)
    for kind, values in sorted(by_kind.items()):
        per_kind[f"{kind}_p50_ms"] = (statistics.median(values), len(values))
        if len(values) >= P90_MIN_SAMPLES:
            per_kind[f"{kind}_p90_ms"] = (_p90(values), len(values))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_kref": 1000 * len(records) / sum(r.refs for r in records),
        "op_p50_ref": _weighted_p50(records, _refs)[0],
        "ops_per_s": 1e9 * len(records) / sum(r.ns for r in records),
        "op_p50_ms": _weighted_p50(records, _ms)[0],
        "ref_ms": statistics.median(r.ref_ns for r in records) / 1e6,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024,
    }
    return metrics, per_kind


def trace_overhead(records) -> float:
    """Share-weighted class medians in ref units, traced over untraced, in
    percent."""
    _, plain_med = _weighted_p50([r for r in records if not r.traced], _refs)
    _, traced_med = _weighted_p50([r for r in records if r.traced], _refs)
    counts = defaultdict(int)
    for r in records:
        counts[r.cls] += 1
    both = [c for c in plain_med if c in traced_med]
    base = sum(counts[c] * plain_med[c] for c in both)
    with_trace = sum(counts[c] * traced_med[c] for c in both)
    return 100.0 * (with_trace / base - 1.0) if base else 0.0


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the JSON line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def per_layer_line(measured: dict, absent: list[str]) -> dict:
    """The JSON line's per-layer metrics.

    A metric whose seam is absent (renamed by a refactor, say) is left out
    rather than read as 0, and trace.seams_absent counts the absent seams.
    """
    metrics = {"trace.seams_absent": {"value": len(absent), "unit": "count"}}
    for name, unit in declared_metrics("per_layer").items():
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": unit}
    return metrics


def run_one(args) -> int:
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot import srcverify from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    scratch = OUT / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    try:
        workload, setup_times, setup_walls = _setup(
            workloads, args.workload, args.seed, scratch)
        tracer = tracing.Tracer() if args.trace else None
        records, failures = _run_ops(workload, workloads.check, args.seconds,
                                     tracer, TRACE_BLOCK[args.workload])
        store_records = workload.records()
        workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    header = environment(args)
    report = {"env": header, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures,
              "setup_s_each": setup_times, "setup_wall_s_each": setup_walls,
              "inputs_digest": workload.digest}
    lines = [f"# srcverify benchmark: {args.workload}, seed {args.seed}, "
             f"{args.seconds} s, trace {'on' if args.trace else 'off'}",
             "# env " + json.dumps(header)]
    lines.append(f"error_rate {failed / attempted:.4f} ({failed}/{attempted} "
                 "ops deviate from the expected outcome)")
    for failure in failures:
        lines.append(f"  deviation: {failure}")

    if not args.trace:
        metrics, per_kind = end_to_end(records, setup_times)
        report["metrics"] = {k: {"value": metrics[k], "unit": u}
                             for k, u in declared_metrics("end_to_end").items()}
        report["wall"] = {k: {"value": metrics[k], "unit": u} for k, u in
                          (("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                           ("ref_ms", "ms"))}
        report["per_kind"] = {k: {"value": v, "unit": "ms", "samples": n}
                              for k, (v, n) in per_kind.items()}
        for name, (value, samples) in per_kind.items():
            lines.append(f"{name:<24}{value:12.3f} ms   n={samples}")
        for kind in sorted({r.kind for r in records}):
            n = sum(1 for r in records if r.kind == kind)
            if n < P90_MIN_SAMPLES:
                lines.append(f"{kind + '_p90_ms':<24}{'-':>12}      "
                             f"n={n} < {P90_MIN_SAMPLES}")
        for name, metric in (*report["wall"].items(), *report["metrics"].items()):
            lines.append(f"{name:<24}{metric['value']:12.3f} {metric['unit']}"
                         + (f"   n={attempted} ops" if name in OP_METRICS else ""))
        for name, values in (("setup_s (each)", setup_times),
                             ("setup wall s (each)", setup_walls)):
            lines.append(f"{name:<24}" + " ".join(f"{t:.3f}" for t in values))
    else:
        traced_ops = [r for r in records if r.traced]
        layers = tracing.layer_metrics(tracer, traced_ops)
        overhead = trace_overhead(records)
        layers["all"]["store.records"] = store_records
        layers["all"]["trace.overhead_pct"] = overhead
        if "cell" in layers:
            layers["cell"]["attacklab.deviations"] = sum(
                1 for r in records if r.kind == "cell" and not r.ok)
        report["per_layer"] = layers
        report["absent_seams"] = tracer.absent
        report["metrics"] = per_layer_line(layers["all"], tracer.absent)
        if tracer.absent:
            lines.append("# absent seams: " + ", ".join(tracer.absent))
        lines.append(f"trace.overhead_pct {overhead:.2f} %  "
                     f"({len(traced_ops)} traced / {attempted} ops)")
        lines.append(f"store.records {store_records}")
        for group, values in layers.items():
            if group == "all" and len(layers) == 2:
                continue  # one op kind: "all" repeats it
            lines.append(f"[{args.workload} / {group}]")
            for name, value in values.items():
                if name.endswith(".share") or name in ("store.records",
                                                       "trace.overhead_pct"):
                    continue
                share = values.get(f"{name}.share")
                lines.append(f"  {name:<40}{value:14.4f}"
                             + (f"   {100 * share:6.2f} % of wall"
                                if share is not None else ""))
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans, traced_ops)
        report["spans_file"] = str(spans.relative_to(ROOT))

    result_file = (OUT / f"result-{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    result_file.write_text(json.dumps(report, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


# --- all workloads ---

def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            status = max(status, 2)
            continue
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, abs(proc.returncode))  # negative: killed by a signal
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            status = max(status, 2)
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
