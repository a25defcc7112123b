"""The benchmark's tracer (`bench/tracing.py`) wraps txpar functions by the
names the program looks them up under. Every name it lists must resolve, so
a rename breaks this suite rather than only a traced benchmark run."""

import importlib.util
from pathlib import Path

import txpar
import txpar.cli  # noqa: F401  (txpar_targets reads txpar.cli)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_tracing().txpar_targets(txpar)
    assert targets
    for owner, attr, name, _, _ in targets:
        # The tracer reads a class attribute from the class's own namespace.
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{name}: {owner.__name__}.{attr} does not exist"
        assert callable(getattr(owner, attr)), f"{name}: {owner.__name__}.{attr} is not callable"
