"""Per-layer spans, recorded from outside the package.

Tracer.install() replaces, in every srcverify layer module, each attribute
that binds another layer's public function with a timing wrapper (modules
import with ``from .x import f``, so wrapping only the defining module would
miss the callers), and does the same for the public methods of the classes
in CLASS_LAYERS.  The functions in SEAMS are also wrapped where they are
defined, because their own module calls them and the per-layer metrics
need them.  A SEAMS entry that no longer exists is reported as absent; the
run goes on without it.

Each span is (id, seam, start ns, end ns, parent id, op id, extra).  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYER_MODULES = {
    "srcverify._keccak": "keccak",
    "srcverify.bytecode": "bytecode",
    "srcverify.abi": "abi",
    "srcverify.chain": "chain",
    "srcverify.compiler": "compiler",
    "srcverify.linker": "linker",
    "srcverify.metadata": "metadata",
    "srcverify.simulator": "simulator",
    "srcverify.matching": "matching",
    "srcverify.store": "store",
    "srcverify.service": "service",
    "srcverify.attacklab": "attacklab",
}
LAYERS = tuple(dict.fromkeys(LAYER_MODULES.values()))

CLASS_LAYERS = {
    ("srcverify.chain", "MockChain"): "chain",
    ("srcverify.compiler", "FixtureCompiler"): "compiler",
    ("srcverify.store", "RecordStore"): "store",
    ("srcverify.service", "VerifyService"): "service",
}

# bytecode.code_hash is a keccak call under another name
LAYER_OVERRIDES = {"bytecode.code_hash": "keccak"}


def _code_read(args, kwargs, result):
    return [args[1].hex(), len(result)]


# Seams the per-layer metrics read, with what each span also records.
SEAMS = {
    "_keccak.keccak256": lambda a, k, r: len(a[0]),
    "chain.detect_redeployment": None,
    "chain.MockChain.get_runtime_code": _code_read,
    "metadata.scan_metadata": lambda a, k, r: len(a[0]),
    "metadata.strip_spans": None,
    "metadata.differential_extract": None,
    "simulator.resolve_immutables_by_simulation": None,
    "simulator.execute_creation": lambda a, k, r: r.steps,
    "linker.resolve": lambda a, k, r: len(r[1]),
    "abi.abi_validate_arguments": lambda a, k, r: len(a[0]),
    "compiler.FixtureCompiler.compile": None,
    "matching.match_creation": None,
    "matching.match_runtime": None,
    "store.RecordStore.store_record": None,
    "store.RecordStore.load": None,
    "store.RecordStore.find_by_code_hash": None,
    "attacklab.run_poc": None,
}


def _seam_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('srcverify.')}.{qualname}"


class Tracer:
    """Installs wrappers and collects spans for the ops it is told about."""

    def __init__(self) -> None:
        self.names: list[str] = []        # seam index -> seam name
        self.layers: list[str] = []       # seam index -> layer
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[int] = [0]
        self._op = 0
        self._next_id = 1
        self._patches: list[tuple[object, str, object, object]] = []
        self._planned = False
        self._installed = False

    # --- installation ---

    def _seam(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(LAYER_OVERRIDES.get(name, layer))
        return len(self.names) - 1

    def _wrap(self, fn, index: int, extra):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer._op:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                # a call that raises (a refusal, say) still gets its span
                tracer.spans.append((
                    span_id, index, start, end, parent, tracer._op,
                    extra(args, kwargs, result)
                    if returned and extra is not None else None))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _plan(self):
        """(owner, attribute, original, seam name, layer) to patch."""
        modules = {}
        for module_name in LAYER_MODULES:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(module_name)
        defined = {}   # id(function) -> (seam name, layer)
        for module_name, module in modules.items():
            layer = LAYER_MODULES[module_name]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module_name):
                    defined[id(value)] = (_seam_name(module_name, attr), layer)
        plan = []
        for module_name, module in modules.items():
            for attr, value in vars(module).items():
                seam = defined.get(id(value)) if inspect.isfunction(value) else None
                if seam is None:
                    continue
                if value.__module__ != module_name or seam[0] in SEAMS:
                    plan.append((module, attr, value, *seam))
        for (module_name, class_name), layer in CLASS_LAYERS.items():
            cls = getattr(modules.get(module_name), class_name, None)
            if cls is None:
                self.absent.append(_seam_name(module_name, class_name))
                continue
            for attr, value in vars(cls).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(value)):
                    plan.append((cls, attr, value,
                                 _seam_name(module_name, f"{class_name}.{attr}"),
                                 layer))
        planned = {name for *_, name, _ in plan}
        self.absent.extend(name for name in SEAMS if name not in planned)
        return plan

    def install(self) -> None:
        if self._installed:
            return
        if not self._planned:
            self._planned = True
            indices: dict[str, int] = {}
            wrappers: dict[int, object] = {}
            for owner, attr, original, name, layer in self._plan():
                if name not in indices:
                    indices[name] = self._seam(name, layer)
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, indices[name],
                                               SEAMS.get(name))
                self._patches.append((owner, attr, original, wrappers[key]))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._installed = False

    # --- recording ---

    def begin(self, op_id: int) -> None:
        self._op = op_id
        self._stack[:] = [0]

    def end(self) -> None:
        self._op = 0

    def write(self, path: Path, ops) -> None:
        """Ops, then spans, as gzipped JSON lines; ops are the run's records."""
        with gzip.open(path, "wt") as out:
            for op in ops:
                out.write(json.dumps({"op": op.id, "class": op.cls, "key": op.key,
                                      "wall_ns": op.ns}) + "\n")
            for span_id, index, start, end, parent, op_id, extra in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": self.names[index],
                    "layer": self.layers[index], "start": start, "end": end,
                    "parent": parent, "op": op_id, "extra": extra}) + "\n")


# --- per-layer metrics ---

TIME_METRICS = {
    # metric: (seam, only spans whose parent is outside this layer)
    "keccak.ms_per_op": ("_keccak.keccak256", False),
    "chain.redeploy_check_ms": ("chain.detect_redeployment", False),
    "metadata.scan_ms_per_op": ("metadata.scan_metadata", False),
    "metadata.strip_ms_per_op": ("metadata.strip_spans", False),
    "metadata.differential_ms_per_op": ("metadata.differential_extract", False),
    "simulator.resolve_ms_per_op": ("simulator.resolve_immutables_by_simulation", False),
    "simulator.exec_ms_per_op": ("simulator.execute_creation", False),
    "linker.resolve_ms_per_op": ("linker.resolve", False),
    "abi.decode_ms_per_op": ("abi.abi_validate_arguments", False),
    "compiler.compile_ms_per_op": ("compiler.FixtureCompiler.compile", False),
    "matching.creation_ms_per_op": ("matching.match_creation", False),
    "matching.runtime_ms_per_op": ("matching.match_runtime", False),
    "store.write_ms_per_op": ("store.RecordStore.store_record", True),
    "store.load_ms_per_op": ("store.RecordStore.load", True),
    "store.find_ms_per_op": ("store.RecordStore.find_by_code_hash", True),
}
COUNT_METRICS = {
    # metric: (seam, sum of the recorded extra rather than span count)
    "keccak.calls_per_op": ("_keccak.keccak256", False),
    "keccak.bytes_hashed_per_op": ("_keccak.keccak256", True),
    "chain.runtime_reads_per_op": ("chain.MockChain.get_runtime_code", False),
    "metadata.scan_calls_per_op": ("metadata.scan_metadata", False),
    "metadata.scan_bytes_per_op": ("metadata.scan_metadata", True),
    "simulator.steps_per_op": ("simulator.execute_creation", True),
    "linker.bindings_per_op": ("linker.resolve", True),
    "abi.arg_bytes_per_op": ("abi.abi_validate_arguments", True),
    "compiler.compile_calls_per_op": ("compiler.FixtureCompiler.compile", False),
}
# bytes a layer handled per byte of live code the op read from the chain
WASTE_RATIOS = {
    "keccak.bytes_per_code_byte": "_keccak.keccak256",
    "metadata.scan_bytes_per_code_byte": "metadata.scan_metadata",
}
SCENARIOS = tuple(f"R{i}" for i in range(1, 9))


def _per_op(tracer: Tracer, op_ids: set[int]) -> dict[int, dict[str, float]]:
    """Raw per-op sums (ns for times) of every metric, for the given ops."""
    layer_of = tracer.layers
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for span in tracer.spans:
        if span[5] in op_ids:
            by_op[span[5]].append(span)
    out = {}
    for op_id in op_ids:
        spans = by_op.get(op_id, [])
        child_ns: dict[int, int] = defaultdict(int)
        seam_of = {}
        for span_id, index, start, end, parent, _, _ in spans:
            child_ns[parent] += end - start
            seam_of[span_id] = index
        sums: dict[str, float] = defaultdict(float)
        code_bytes: dict[str, int] = {}
        for span_id, index, start, end, parent, _, extra in spans:
            duration = end - start
            layer = layer_of[index]
            sums[f"{layer}.self_ns"] += duration - child_ns[span_id]
            name = tracer.names[index]
            if name == "chain.MockChain.get_runtime_code":
                code_bytes[extra[0]] = max(code_bytes.get(extra[0], 0), extra[1])
            parent_layer = layer_of[seam_of[parent]] if parent in seam_of else None
            sums[f"seam:{name}:ns"] += duration
            if parent_layer != layer:
                sums[f"seam:{name}:outer_ns"] += duration
            sums[f"seam:{name}:calls"] += 1
            if isinstance(extra, int):
                sums[f"seam:{name}:extra"] += extra
        sums["code_bytes"] = sum(code_bytes.values())
        out[op_id] = sums
    return out


def layer_metrics(tracer: Tracer, ops) -> dict[str, dict[str, float]]:
    """Per-layer metrics, grouped by op kind and for all ops ("all").

    ops are the run's records (id, kind, cls, ns) of every traced op.  Times
    are ms per op; "<metric>.share" is that time over the ops' wall time.
    """
    raw = _per_op(tracer, {op.id for op in ops})
    absent = tracer.absent
    absent_layers = set(LAYERS) - {layer for module, layer in LAYER_MODULES.items()
                                   if module not in absent}
    groups: dict[str, list] = defaultdict(list)
    for op in ops:
        groups[op.kind].append(op)
        groups["all"].append(op)
    result = {}
    for group, members in sorted(groups.items()):
        n = len(members)
        wall_ns = sum(op.ns for op in members)
        total: dict[str, float] = defaultdict(float)
        for op in members:
            for key, value in raw[op.id].items():
                total[key] += value
        metrics: dict[str, float] = {"ops": n, "wall_ms_per_op": wall_ns / n / 1e6}

        def put_time(name: str, ns: float) -> None:
            metrics[name] = ns / n / 1e6
            metrics[f"{name}.share"] = ns / wall_ns if wall_ns else 0.0

        for name, (seam, outer) in TIME_METRICS.items():
            if seam not in absent:
                put_time(name, total[f"seam:{seam}:{'outer_ns' if outer else 'ns'}"])
        for name, (seam, summed) in COUNT_METRICS.items():
            if seam not in absent:
                key = f"seam:{seam}:{'extra' if summed else 'calls'}"
                metrics[name] = total[key] / n
        code = total["code_bytes"]
        for name, seam in WASTE_RATIOS.items():
            if seam not in absent:
                metrics[name] = total[f"seam:{seam}:extra"] / code if code else 0.0
        metrics["code_bytes_per_op"] = code / n
        for layer in LAYERS:
            if layer not in absent_layers:
                put_time(f"{layer}.self_ms_per_op", total[f"{layer}.self_ns"])
        for sid in SCENARIOS:
            cells = [op.ns for op in members if op.cls.startswith(f"cell.{sid}.")]
            if cells:
                metrics[f"attacklab.cell_ms.{sid}"] = sum(cells) / len(cells) / 1e6
        result[group] = metrics
    return result
