"""The benchmark (`bench/run.py`) calls the library directly for its
reference facts and its timed `replay_check` loop. This suite runs those
calls on the tiny blocks, so a library change that breaks them fails here
rather than only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import txpar
from txpar import storagevm

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    # run.py imports its siblings `tracing` and `workloads` by plain name.
    siblings = [name for name in ("tracing", "workloads") if name not in sys.modules]
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))
        for name in siblings:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["mixed_blocks", "counter_rewrite"])
def test_reference_runs_pass_replay_check(bench_run, workload, tmp_path, monkeypatch):
    paths = []
    for label, block in bench_run.workloads.build(txpar, workload, bench_run.DEFAULT_SEED, "tiny"):
        path = tmp_path / f"{label}.trace"
        path.write_bytes(txpar.emit_trace(block))
        paths.append(path)
    refs = bench_run.reference(txpar, paths, workload in bench_run.workloads.CADD_AWARE)
    assert [ref["label"] for ref in refs] == [path.stem for path in paths]

    # `reference` builds each block's serial table, so the timed loop proves
    # every run from it without a serial replay of its own.
    def replayed(*args):
        raise AssertionError("replay_check ran a serial replay after reference()")

    monkeypatch.setattr(storagevm, "_serial_reference", replayed)
    for ref in refs:
        assert ref["digest"] == txpar.run_serial(ref["block"])
        assert sorted(ref["runs"]) == [(mode, t) for mode in sorted(bench_run.REPLAY_MODES) for t in bench_run.SIM_THREADS]
        for key, run in ref["runs"].items():
            assert txpar.replay_check(ref["block"], run), (ref["label"], key)
