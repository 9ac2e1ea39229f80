"""The benchmark's trace reaches every seam it reads.

perfbench/tracing.py wraps named functions and methods of the package
from outside.  A seam renamed or moved away makes its per-layer metrics
disappear from traced runs; this test makes it fail the suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_seam_is_present():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
