"""The benchmark's tracer finds every latseg function it wraps.

``bench/tracing.py`` rebinds ``(owner, attribute)`` pairs of latseg at run
time; a rename in the package would make ``bench/run.py --trace 1`` die with
an AttributeError. The file is loaded here read-only, without importing the
rest of the benchmark.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("latseg_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner, attr, name in tracing.TARGETS:
        # the tracer reads a class's own __dict__ and a module's attributes
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(name)
    assert not missing, f"bench/tracing.py wraps names latseg no longer has: {missing}"
    assert set(tracing.HOOKS) <= {name for _, _, name in tracing.TARGETS}
