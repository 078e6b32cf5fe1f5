"""Tests of the benchmark itself, on tiny inputs: patch points, spans, checks."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lognet  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def tiny_workloads(tmp_path):
    tiny = wl.paper_spec(3, fingerprints_per_rp=3, num_rps=6, num_aps=24)
    return [
        wl.PaperDrift(3, tmp_path / "drift", spec=tiny),
        wl.BuildingIngest(
            3, tmp_path / "ingest", epochs=2,
            spec=lognet.SynthSpec(8, 16, 3, seed=3, base_pattern="random", jitter_sigma_db=2.0),
        ),
        wl.Localize(3, tmp_path / "localize", spec=tiny, pool_draws=2),
    ]


def run_once(workload) -> dict:
    """Set up, then one request of every phase; returns failures per phase."""
    workload.setup()
    return {kind: ph["failed"] for kind, ph in wl.measure(workload, 0.0, wl.null_span).items()}


def test_patch_points_resolve_to_modules_not_rebound_names():
    # The package attribute is the function evaluate(), not the module.
    assert not inspect.ismodule(lognet.evaluate)
    for module, attr, _ in spans.PATCH_POINTS:
        owner, name = spans.resolve(module, attr)
        assert inspect.ismodule(owner) or inspect.isclass(owner), (module, attr)
        assert callable(owner.__dict__[name]), (module, attr)
    owner, _ = spans.resolve("lognet.evaluate", "sample_errors")
    assert owner is sys.modules["lognet.evaluate"]


def test_every_patch_point_is_reached_and_restored(tmp_path):
    originals = {(m, a): spans.resolve(m, a)[0].__dict__[spans.resolve(m, a)[1]]
                 for m, a, _ in spans.PATCH_POINTS}
    calls = {}

    def counting(point, fn):
        def wrapper(*args, **kwargs):
            calls[point] = calls.get(point, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    undo = spans.install([(m, a, (m, a)) for m, a, _ in spans.PATCH_POINTS], counting)
    try:
        for workload in tiny_workloads(tmp_path):
            run_once(workload)
    finally:
        spans.uninstall(undo)
    assert set(originals) - set(calls) == set()
    for (m, a), fn in originals.items():
        owner, name = spans.resolve(m, a)
        assert owner.__dict__[name] is fn


def test_self_times_and_unattributed_add_up_to_wall(tmp_path):
    for workload in tiny_workloads(tmp_path):
        tracer = spans.Tracer()
        with tracer:
            workload.span = tracer.span
            with tracer.span("setup"):
                workload.setup()
            phases = wl.measure(workload, 0.0, tracer.span)
        assert all(ph["failed"] == 0 for ph in phases.values())
        summary = tracer.summary()
        assert summary["roots"] == {"setup": 1} | {step: 1 for ph in phases.values() for step in ph["times"]}
        total = sum(summary["self_s"].values()) + summary["unattributed_s"]
        assert total == pytest.approx(summary["wall_s"], rel=1e-9)
        assert min(summary["self_s"].values()) >= 0.0
        tracer.write(tmp_path / f"{workload.name}.npz")
        assert np.load(tmp_path / f"{workload.name}.npz")["name"].size > 0


def test_counts_repeat_exactly(tmp_path):
    results = []
    for _ in range(2):
        workload = tiny_workloads(tmp_path)[1]
        tracer = spans.Tracer()
        with tracer:
            with tracer.span("setup"):
                workload.setup()
            wl.measure(workload, 0.0, tracer.span)
        results.append(tracer.summary()["counts"])
    assert results[0] == results[1]
    assert results[0]["noise.rows_out"] == 8 * 3 + 2 * 8 * 10  # synth + two runs x 10 CIs
    assert results[0]["fileio.bytes"] > 0


def test_clean_run_has_no_failures(tmp_path):
    for workload in tiny_workloads(tmp_path):
        assert set(run_once(workload).values()) == {0}, workload.name


@pytest.mark.parametrize("perturb_rows", [1, None])
def test_perturbed_prediction_counts_as_failure(tmp_path, monkeypatch, perturb_rows):
    workload = tiny_workloads(tmp_path)[2]
    workload.setup()
    original = lognet.LogNetClassifier.predict

    def perturbed(self, ds):
        preds = original(self, ds)
        if perturb_rows is None or len(ds) == perturb_rows:
            preds = preds.copy()
            preds[0] += 1
        return preds

    monkeypatch.setattr(lognet.LogNetClassifier, "predict", perturbed)
    failed = {kind: ph["failed"] for kind, ph in wl.measure(workload, 0.0, wl.null_span).items()}
    assert failed["query"] == 1
    assert failed["batch"] == (1 if perturb_rows is None else 0)


def test_canary_digest_detects_a_perturbed_prediction(tmp_path, monkeypatch):
    make = lambda: tiny_workloads(tmp_path)[0]  # noqa: E731
    clean = wl.canary_digests(make())
    assert wl.canary_digests(make()) == clean
    original = lognet.DnnClassifier.predict

    def perturbed(self, ds):
        preds = original(self, ds).copy()
        preds[-1] = preds[0]
        return preds

    monkeypatch.setattr(lognet.DnnClassifier, "predict", perturbed)
    changed = wl.canary_digests(make())
    assert changed["predictions"] != clean["predictions"]
    assert changed["loss"] == clean["loss"]
