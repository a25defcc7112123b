"""The benchmark's tracer (`bench/tracing.py`) wraps txpar functions by the
names the program looks them up under. Every name it lists must resolve, so
a rename breaks this suite rather than only a traced benchmark run, and the
occ-da hooks must be reached by the commands that use them."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import txpar
import txpar.cli  # noqa: F401  (txpar_targets reads txpar.cli)
from txpar import emit_trace, gen_token_distribution, run_occ_da

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


def test_the_occ_da_hooks_fire(tmp_path, monkeypatch):
    """`simulate --mode occ-da --policy dep_graph` and `probe --trials 2`, traced
    on a small block, reach every occ-da hook. The storage-version hook fires
    once per tx per occ-da run: a retry reads id - 1 without a policy call.
    The probe runs in-process: the tracer sees only this process, and a
    one-block probe splits its trials across a pool of forked workers."""
    monkeypatch.setattr(txpar.cli, "_probe_workers", lambda blocks, trials: 1)
    workload = gen_token_distribution(30, senders=2, seed=1)
    assert run_occ_da(workload, 4).aborted()  # so the probe's minus_one runs retry
    trace = tmp_path / "block.trace"
    trace.write_bytes(emit_trace(workload))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.txpar_targets(txpar))
    try:
        for command, argv in (
            ("simulate", ["simulate", "--mode", "occ-da", "--policy", "dep_graph", "--threads", "2,8"]),
            ("probe", ["probe", "--trials", "2", "--threads", "4"]),
        ):
            tracer.command = command
            with redirect_stdout(io.StringIO()):
                assert txpar.cli.main(argv + ["--input", str(trace), "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    counts, n = tracer.counts, len(workload)
    assert counts[("simulate", "occsim.run_occ_da")] == 2
    assert counts[("simulate", "occsim.storage_version")] == 2 * n
    assert counts[("probe", "occsim.determinism_probe")] == 1
    assert counts[("probe", "occsim.run_occ_da")] == 2
    assert counts[("probe", "occsim.run_occ_det_commit")] == 2
    assert counts[("probe", "occsim.storage_version")] == 2 * n
