"""The ``W_S`` init is one pure function of (seed, shape).

The reference is one serial ``uniform`` over the whole table from the
``encoder-init`` stream, as the encoder has always drawn it.
"""

import os
import tracemalloc

import numpy as np
import pytest

from measured import encoding
from measured.encoding import EncoderConfig, HashedNgramEncoder, draw_init, init_blocks
from measured.model import MeasurementModel, ModelSpec, save_model
from measured.seeding import stream_rng
from measured.units import default_registry


def serial_init(seed, shape):
    bound = 1.0 / np.sqrt(shape[0])
    return stream_rng(seed, "encoder-init").uniform(-bound, bound, size=shape)


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("shape", [(1, 1), (1000, 5), (2**11, 12)])
def test_encoder_draws_the_serial_init(seed, shape):
    config = EncoderConfig(feature_dim=shape[0], hidden_dim=shape[1])
    W = HashedNgramEncoder(config, seed=seed).W_S
    assert W.dtype == np.float64 and W.shape == shape
    assert np.array_equal(W, serial_init(seed, shape))


def recorded_ranges(monkeypatch):
    """Patch ``init_blocks`` to record the (lo, hi) of every call."""
    calls, original = [], encoding.init_blocks

    def recording(seed, shape, lo, hi):
        calls.append((lo, hi))
        return original(seed, shape, lo, hi)

    monkeypatch.setattr(encoding, "init_blocks", recording)
    return calls


@pytest.mark.parametrize(
    "min_rows, ranges",
    [
        (2**14, [(0, 1000)]),
        (400, [(0, 500), (500, 1000)]),
        (300, [(0, 333), (333, 666), (666, 1000)]),
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_parallel_draw_is_the_serial_init(monkeypatch, seed, min_rows, ranges):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(encoding, "_DRAW_MIN_ROWS", min_rows)
    calls = recorded_ranges(monkeypatch)
    W = draw_init(seed, (1000, 5))
    assert sorted(calls) == ranges
    assert np.array_equal(W, serial_init(seed, (1000, 5)))


def test_one_thread_per_allowed_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(encoding, "_DRAW_MIN_ROWS", 10)
    calls = recorded_ranges(monkeypatch)
    draw_init(1, (1000, 3))
    assert calls == [(0, 1000)]


@pytest.mark.parametrize("lo, hi", [(0, 1), (0, 64), (63, 65), (100, 357), (999, 1000)])
def test_row_ranges_are_the_tables_rows(lo, hi):
    table = serial_init(3, (1000, 7))
    got = list(init_blocks(3, (1000, 7), lo, hi))
    assert [start for start, _ in got] == list(range(lo, hi, encoding._DRAW_BLOCK))
    assert all(len(block) <= encoding._DRAW_BLOCK for _, block in got)
    assert np.array_equal(np.vstack([block for _, block in got]), table[lo:hi])


def test_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(encoding, "_DRAW_MIN_ROWS", 100)
    original = encoding.init_blocks

    def failing(seed, shape, lo, hi):
        if lo > 0:
            raise RuntimeError("worker failed")
        return original(seed, shape, lo, hi)

    monkeypatch.setattr(encoding, "init_blocks", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        draw_init(0, (1000, 4))


def test_save_holds_no_second_table(tmp_path):
    E, M = 2**16, 32
    enc = HashedNgramEncoder(EncoderConfig(feature_dim=E, hidden_dim=M), seed=4)
    enc.W_S[::1000] += 1.0
    model = MeasurementModel(ModelSpec("dim", M), default_registry(), enc, seed=4)
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "model.npz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < E * M * 8 / 8
