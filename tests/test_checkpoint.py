"""Checkpoints round-trip a model bit for bit, whatever rows training moved."""

import json

import numpy as np
import pytest

from measured import model as model_mod
from measured.data import ingest, split
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.model import MeasurementModel, ModelSpec, load_model, save_model
from measured.synth import SynthConfig, generate_records
from measured.training import TrainConfig, train

E, M = 2**10, 8


@pytest.fixture(scope="module")
def corpus(registry):
    records = generate_records(SynthConfig(n_examples=300, seed=5), registry)
    return split(ingest(records, registry).examples, seed=5)


def make_model(registry, seed=3, frozen=False, variant="joint"):
    enc = HashedNgramEncoder(
        EncoderConfig(feature_dim=E, hidden_dim=M, frozen=frozen), seed=seed
    )
    return MeasurementModel(ModelSpec(variant, M), registry, enc, seed=seed)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw 64-bit patterns, so -0.0 and NaN payloads compare exactly."""
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_model(a, b, texts):
    assert np.array_equal(bits(a.encoder.W_S), bits(b.encoder.W_S))
    assert a.encoder.config == b.encoder.config and a.encoder.seed == b.encoder.seed
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert np.array_equal(bits(a.params[name]), bits(b.params[name]))
    for text in texts:
        pa, pb = a.predict(a.encode(text)), b.predict(b.encode(text))
        assert (pa.dimension, pa.unit) == (pb.dimension, pb.unit)
        assert pa.canonical_number == pb.canonical_number
        assert np.array_equal(pa.dim_probs, pb.dim_probs)


@pytest.mark.parametrize("frozen", [False, True])
def test_trained_model_round_trips(registry, corpus, tmp_path, frozen):
    model = make_model(registry, frozen=frozen)
    train(model, corpus, TrainConfig(batch_size=32, max_epochs=2, seed=3))
    path = tmp_path / "model.npz"
    save_model(model, path)
    texts = [ex.masked_text for ex in corpus.test[:20]]
    assert_same_model(model, load_model(path, registry), texts)


def test_hand_edited_rows_round_trip(registry, corpus, tmp_path):
    model = make_model(registry, seed=11)
    W = model.encoder.W_S
    W[0] = 0.25
    W[E - 1, 3] = -1e300
    W[63:65] = np.nextafter(W[63:65], np.inf)  # one ulp, across a 64-row block edge
    W[500, 0] = -0.0 if W[500, 0] != 0 else 0.5
    path = tmp_path / "model.npz"
    save_model(model, path)
    texts = [ex.masked_text for ex in corpus.test[:5]]
    assert_same_model(model, load_model(path, registry), texts)


def test_v2_file_loads_as_stored(registry, corpus, tmp_path):
    """A file in the v2 layout: the full ``encoder.W_S`` beside the heads."""
    model = make_model(registry, seed=13)
    model.encoder.W_S[::7] *= 1.5
    enc = model.encoder
    meta = {
        "format": "measured-checkpoint-v2",
        "variant": "joint",
        "hidden_dim": M,
        "mixture_number_prediction": False,
        "head_seed": 13,
        "encoder": {
            "feature_dim": E, "hidden_dim": M, "word_ngrams": [1, 2],
            "char_ngrams": [3, 4], "hash_seed": 0, "frozen": False, "seed": 13,
        },
        "registry_fingerprint": registry.fingerprint,
        "heads": sorted(model.params),
    }
    path = tmp_path / "model.npz"
    with open(path, "wb") as f:
        np.savez(
            f, __meta__=np.array(json.dumps(meta)), **{"encoder.W_S": enc.W_S},
            **{f"head.{k}": v for k, v in model.params.items()},
        )
    texts = [ex.masked_text for ex in corpus.test[:5]]
    assert_same_model(model, load_model(path, registry), texts)


def stored_arrays(path):
    with np.load(path) as z:
        return dict(z)


def rewrite(path, **changes):
    arrays = {**stored_arrays(path), **changes}
    with open(path, "wb") as f:
        np.savez(f, **arrays)


@pytest.mark.parametrize("variant", ["joint", "latent-dim"])
def test_frozen_model_stores_no_rows(registry, corpus, tmp_path, variant):
    model = make_model(registry, frozen=True, variant=variant)
    train(model, corpus, TrainConfig(batch_size=32, max_epochs=1, seed=3))
    path = tmp_path / "model.npz"
    save_model(model, path)
    arrays = stored_arrays(path)
    assert arrays["encoder.rows"].shape == (0,)
    assert arrays["encoder.W_rows"].shape == (0, M)
    assert "encoder.W_S" not in arrays
    assert json.loads(str(arrays["__meta__"][()]))["format"] == "measured-checkpoint-v3"


def test_stored_rows_are_the_moved_rows(registry, corpus, tmp_path):
    model = make_model(registry)
    train(model, corpus, TrainConfig(batch_size=32, max_epochs=1, seed=3))
    path = tmp_path / "model.npz"
    save_model(model, path)
    arrays = stored_arrays(path)
    init = make_model(registry).encoder.W_S
    moved = np.flatnonzero((model.encoder.W_S != init).any(axis=1))
    assert 0 < len(moved) < E
    assert np.array_equal(arrays["encoder.rows"], moved)
    assert np.array_equal(arrays["encoder.W_rows"], model.encoder.W_S[moved])
    assert np.array_equal(arrays["encoder.init_probe"], init[[0, E - 1]])


def test_probe_disagreement_refused(registry, tmp_path):
    path = tmp_path / "model.npz"
    save_model(make_model(registry), path)
    probe = stored_arrays(path)["encoder.init_probe"]
    probe[1, 0] = np.nextafter(probe[1, 0], 1.0)
    rewrite(path, **{"encoder.init_probe": probe})
    with pytest.raises(ValueError, match=f"numpy {np.__version__}"):
        load_model(path, registry)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[1, 2]]),
        np.array([-1, 2]),
        np.array([1, E]),
        np.array([2, 1]),
        np.array([3, 3]),
        np.array([0.0, 1.0]),
    ],
)
def test_bad_row_ids_refused(registry, tmp_path, rows):
    path = tmp_path / "model.npz"
    save_model(make_model(registry), path)
    values = np.zeros((rows.size, M))
    rewrite(path, **{"encoder.rows": rows, "encoder.W_rows": values})
    with pytest.raises(ValueError, match="encoder.rows"):
        load_model(path, registry)


@pytest.mark.parametrize("shape", [(2, M), (3, M + 1), (3,)])
def test_bad_row_values_refused(registry, tmp_path, shape):
    path = tmp_path / "model.npz"
    save_model(make_model(registry), path)
    rows = np.array([0, 5, E - 1])
    rewrite(path, **{"encoder.rows": rows, "encoder.W_rows": np.zeros(shape)})
    with pytest.raises(ValueError, match="encoder.W_rows"):
        load_model(path, registry)


@pytest.mark.parametrize(
    "probe",
    [np.zeros((1, M)), np.zeros((2, M + 1)), np.zeros(2 * M), np.zeros((2, M), "f4")],
)
def test_bad_init_probe_refused_before_the_draw(registry, tmp_path, monkeypatch, probe):
    path = tmp_path / "model.npz"
    save_model(make_model(registry), path)
    rewrite(path, **{"encoder.init_probe": probe})

    def no_draw(seed, shape):
        raise AssertionError("the init was drawn for a malformed probe")

    monkeypatch.setattr(model_mod, "draw_init", no_draw)
    with pytest.raises(ValueError, match=f"encoder.init_probe is not 2 x {M} float64"):
        load_model(path, registry)
