"""Toy-size self-test of the benchmark: metric names and units, result format, tracing."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric_with_its_unit(trace, table):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [(i, json.loads(line)) for i, line in enumerate(lines) if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
    for name, (i, result) in zip(WORKLOADS, results):
        assert lines[i - 1].split()[0] == name
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_entry_point_is_reported_not_fatal():
    from measured import data

    original = data.split
    tracer = tracing.Tracer(targets=(
        ("measured.data", "split", "data.split"),
        ("measured.data", "no_such_function", "data.gone"),
        ("measured.no_such_module", "f", "gone"),
    ))
    tracer.install()
    try:
        assert data.split is not original
        assert data.split(list(range(10)), seed=1) == original(list(range(10)), seed=1)
    finally:
        tracer.uninstall()
    assert data.split is original
    assert tracer.missing == ["measured.data:no_such_function", "measured.no_such_module:f"]
    assert [s[0] for s in tracer.spans] == ["data.split"]


def test_self_time_excludes_children_and_nested_spans_count_once():
    tracer = tracing.Tracer(targets=())
    tracer.spans = [
        ("training.train", 0.0, 10.0, None),
        ("training.adamw_step", 1.0, 4.0, 0),
        ("encoding.featurize", 5.0, 6.0, 0),
        ("encoding.featurize", 5.2, 5.8, 2),
    ]
    m = tracing.summarize(tracer, wall_s=12.0, ngrams=None)
    assert m["training.train_self_s"] == pytest.approx(6.0)
    assert m["encoding.featurize_s"] == pytest.approx(1.0)
    assert m["encoding.featurize_texts"] == 1.0
    assert m["training.adamw_share"] == pytest.approx(0.3)
    assert m["training.featurize_encode_share"] == pytest.approx(0.1)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)


@pytest.fixture
def toy_finetune(tmp_path):
    import workloads

    return workloads.Workload("train-finetune", 0, workloads.TOY, tmp_path)


def _broken_adamw(monkeypatch, change):
    """Make ``train()`` call AdamW with gradients passed through ``change``."""
    from measured import training

    original = training.adamw_step
    monkeypatch.setattr(
        training, "adamw_step",
        lambda params, grads, state, lr: original(params, change(grads), state, lr),
    )


def test_correct_training_passes_the_check(toy_finetune):
    rep = toy_finetune.rep()
    assert rep.failed == 0, rep.problems


def test_training_that_does_nothing_fails_the_check(toy_finetune, monkeypatch):
    from measured import training

    monkeypatch.setattr(training, "adamw_step", lambda params, grads, state, lr: params)
    rep = toy_finetune.rep()
    assert rep.failed == 1
    assert "took no AdamW step" in rep.problems[0]
    assert "lowered the val joint NLL" in rep.problems[0]


def test_updating_the_wrong_rows_fails_the_check(toy_finetune, monkeypatch):
    def shift_rows(grads):
        return dict(grads, **{"encoder.W_S": np.roll(grads["encoder.W_S"], 1, axis=0)})

    _broken_adamw(monkeypatch, shift_rows)
    rep = toy_finetune.rep()
    assert rep.failed == 1
    assert "untouched W_S rows moved beyond weight decay" in rep.problems[0]


def test_stepping_uphill_fails_the_check(toy_finetune, monkeypatch):
    _broken_adamw(monkeypatch, lambda grads: {k: -g for k, g in grads.items()})
    rep = toy_finetune.rep()
    assert rep.failed == 1
    assert "lowered the val joint NLL" in rep.problems[0]


def test_lazy_adamw_passes_the_check(toy_finetune, monkeypatch):
    """Row-sparse AdamW, which skips the rows a batch does not touch, is correct."""
    from measured import training

    original = training.adamw_step

    def lazy(params, grads, state, lr):
        W, g = params["encoder.W_S"], grads["encoder.W_S"]
        original({k: p for k, p in params.items() if k != "encoder.W_S"}, grads, state, lr)
        rows = np.flatnonzero(g.any(axis=1))
        m = state.m.setdefault("encoder.W_S", np.zeros_like(W))
        v = state.v.setdefault("encoder.W_S", np.zeros_like(W))
        b1, b2 = state.betas
        m[rows] = b1 * m[rows] + (1 - b1) * g[rows]
        v[rows] = b2 * v[rows] + (1 - b2) * g[rows] ** 2
        m_hat = m[rows] / (1 - b1 ** state.step)
        v_hat = v[rows] / (1 - b2 ** state.step)
        W[rows] -= lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * W[rows])
        return params

    dense = toy_finetune.rep()
    monkeypatch.setattr(training, "adamw_step", lazy)
    rep = toy_finetune.rep()
    assert rep.failed == 0, rep.problems
    assert rep.quality["val_joint_nll"] != dense.quality["val_joint_nll"]
