"""Oracles for the masked unit distribution p(U|D,S).

Each reference below is the per-dimension loop the model once used, kept
here so that any rewrite of the unit factor must reproduce its bits.
"""

import math

import numpy as np
import pytest

from measured import model as model_mod
from measured.data import ingest, split
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.model import MeasurementModel, ModelSpec
from measured.synth import SynthConfig, generate_records
from measured.training import TrainConfig, train
from measured.units import parse_registry

LN10 = math.log(10.0)

# units declared interleaved, so a dimension's units are not one block
INTERLEAVED_REGISTRY_TEXT = """
dim length L1 M0 T0 I0 Θ0 N0 J0
dim time L0 M0 T1 I0 Θ0 N0 J0
dim mass L0 M1 T0 I0 Θ0 N0 J0
unit m length scale=1 offset=0
unit s time scale=1 offset=0
unit ft length scale=0.3048 offset=0
unit kg mass scale=1 offset=0
unit h time scale=3600 offset=0
unit km length scale=1000 offset=0
unit min time scale=60 offset=0
unit g mass scale=0.001 offset=0
unit mi length scale=1609.344 offset=0
"""


def dim_units(registry):
    """Unit indices of each dimension, ascending."""
    return [
        np.array([registry.unit_index(u) for u in registry.units_of(d)])
        for d in registry.dimensions
    ]


def log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_unit_term(model, out, arrays, weights, want_grads):
    """Masked unit cross-entropy, one loop over the batch's dimensions."""
    B = len(out.H)
    zU = out.unit
    dZU = np.zeros_like(zU) if want_grads else None
    w = weights[arrays.unit_index] if weights is not None else np.ones(B)
    ce = np.empty(B)
    groups = dim_units(model.registry)
    for di in np.unique(arrays.dim_index):
        rows_d = np.nonzero(arrays.dim_index == di)[0]
        allowed = groups[int(di)]
        log_p = log_softmax(zU[np.ix_(rows_d, allowed)])
        pos = np.searchsorted(allowed, arrays.unit_index[rows_d])
        ce[rows_d] = -log_p[np.arange(len(rows_d)), pos] / LN10
        if want_grads:
            dsub = np.exp(log_p)
            dsub[np.arange(len(rows_d)), pos] -= 1.0
            dsub *= w[rows_d, None] / LN10
            dZU[np.ix_(rows_d, allowed)] = dsub
    loss = float(np.mean(w * ce))
    return loss, ({"U": dZU} if want_grads else {})


def reference_argmax_units(model, H, dim_indices):
    """Top unit within each row's dimension, one loop over dimensions."""
    z = model.unit_logits(H)
    out = np.empty(len(dim_indices), dtype=np.int64)
    groups = dim_units(model.registry)
    for di in np.unique(dim_indices):
        rows = np.nonzero(dim_indices == di)[0]
        allowed = groups[int(di)]
        out[rows] = allowed[np.argmax(z[np.ix_(rows, allowed)], axis=1)]
    return out


def make_model(registry, variant, seed=0, frozen=False, hidden=12, features=2048):
    enc = HashedNgramEncoder(
        EncoderConfig(feature_dim=features, hidden_dim=hidden, frozen=frozen),
        seed=seed,
    )
    return MeasurementModel(ModelSpec(variant, hidden), registry, enc, seed=seed)


@pytest.fixture(scope="module")
def corpus(registry):
    records = generate_records(SynthConfig(n_examples=700, seed=21), registry)
    return split(ingest(records, registry).examples, seed=21)


class TestTrainingOracle:
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("variant", ["dim-unit", "joint", "joint-unit"])
    def test_training_matches_the_loop_unit_term(
        self, variant, frozen, registry, corpus, monkeypatch
    ):
        # frozen resolves to log-frequency class weights, trainable to none
        config = TrainConfig(batch_size=32, max_epochs=3, warmup_steps=20,
                             learning_rate=5e-3, seed=4)

        def run():
            model = make_model(registry, variant, seed=4, frozen=frozen)
            result = train(model, corpus, config)
            return model.trainable_parameters(), result.history

        params, history = run()
        calls = []

        def reference(*args):
            calls.append(1)
            return reference_unit_term(*args)

        monkeypatch.setattr(model_mod, "_unit_term", reference)
        ref_params, ref_history = run()
        assert calls
        assert history == ref_history
        assert set(params) == set(ref_params)
        for name in params:
            assert np.array_equal(params[name], ref_params[name]), name


class TestArgmaxUnits:
    @pytest.mark.parametrize("which", ["default", "interleaved"])
    def test_matches_the_loop_with_exact_ties(self, which, registry):
        reg = registry if which == "default" else parse_registry(
            INTERLEAVED_REGISTRY_TEXT
        )
        model = make_model(reg, "dim-unit", seed=8)
        W, b = model.params["W_U"], model.params["b_U"]
        # give two units of every multi-unit dimension bit-equal logits, the
        # later one a copy of the earlier, so ties must go to the lower index
        for allowed in dim_units(reg):
            if len(allowed) > 1:
                W[:, allowed[-1]] = W[:, allowed[0]]
                b[allowed[-1]] = b[allowed[0]] = 0.25
        rng = np.random.default_rng(5)
        H = rng.normal(size=(300, 12))
        for dims in (
            rng.integers(0, len(reg.dimensions), size=len(H)),
            np.full(len(H), 0),
        ):
            got = model.argmax_unit_indices_given(model.outputs(H), dims)
            assert np.array_equal(got, reference_argmax_units(model, H, dims))
            assert got.dtype == np.int64
        z = model.unit_logits(H)
        for allowed in dim_units(reg):
            if len(allowed) > 1:
                assert np.array_equal(z[:, allowed[0]], z[:, allowed[-1]])

    def test_logits_one_ulp_apart_keep_their_order(self, registry):
        # log-probabilities round these two logits to one value; the argmax
        # must still pick the larger logit, as the loop does
        model = make_model(registry, "dim-unit", seed=2)
        allowed = dim_units(registry)[0]
        first, last = allowed[0], allowed[-1]
        model.params["W_U"][:, allowed] = 0.0
        model.params["b_U"][allowed] = -1.0
        model.params["b_U"][first] = 1e-3
        model.params["b_U"][last] = np.nextafter(1e-3, 1.0)
        H = np.random.default_rng(4).normal(size=(5, 12))
        dims = np.zeros(len(H), dtype=np.int64)
        L = log_softmax(model.unit_logits(H)[:, allowed].copy())
        assert np.array_equal(L[:, 0], L[:, -1])
        got = model.argmax_unit_indices_given(model.outputs(H), dims)
        assert np.array_equal(got, reference_argmax_units(model, H, dims))
        assert got.tolist() == [last] * len(H)

    def test_interleaved_units_stay_in_their_dimension(self):
        reg = parse_registry(INTERLEAVED_REGISTRY_TEXT)
        model = make_model(reg, "dim-unit", seed=9)
        H = np.random.default_rng(6).normal(size=(200, 12))
        for di, d in enumerate(reg.dimensions):
            got = model.argmax_unit_indices_given(model.outputs(H), np.full(len(H), di))
            assert {reg.units[i].dimension.name for i in got} == {d.name}

    def test_empty_index_array(self, registry):
        model = make_model(registry, "dim-unit", seed=3)
        got = model.argmax_unit_indices_given(
            model.outputs(np.zeros((0, 12))), np.array([], dtype=np.int64)
        )
        assert got.shape == (0,)
        assert got.dtype == np.int64


class TestUnitLogProbs:
    @pytest.mark.parametrize("which", ["default", "interleaved"])
    def test_batch_rows_equal_one_row_calls(self, which, registry):
        reg = registry if which == "default" else parse_registry(
            INTERLEAVED_REGISTRY_TEXT
        )
        model = make_model(reg, "dim-unit", seed=10)
        H = np.random.default_rng(7).normal(size=(400, 12))
        Z = model.unit_logits(H)
        batch = model._unit_log_probs(Z)
        for i, z in enumerate(Z):
            assert np.array_equal(batch[i], model._unit_log_probs(z[None])[0]), i


class TestPredictReadsLogits:
    """``predict`` picks the classes the probes' argmaxes pick, on logits."""

    def test_dimension_logits_one_ulp_apart(self, registry):
        model = make_model(registry, "joint", seed=12)
        first, last = 0, len(registry.dimensions) - 1
        model.params["W_D"][:] = 0.0
        model.params["b_D"][:] = -1.0
        model.params["b_D"][first] = 1e-3
        model.params["b_D"][last] = np.nextafter(1e-3, 1.0)
        for h in np.random.default_rng(8).normal(size=(5, 12)):
            pred = model.predict(h)
            assert pred.dim_probs[first] == pred.dim_probs[last]
            assert registry.dimension_index(pred.dimension) == last
            out = model.outputs(h[None])
            assert model.argmax_dimension_indices(out).tolist() == [last]
            assert pred.unit.dimension == pred.dimension

    def test_unit_logits_one_ulp_apart(self, registry):
        model = make_model(registry, "joint", seed=13)
        allowed = dim_units(registry)[0]
        first, last = allowed[0], allowed[-1]
        model.params["W_D"][:] = 0.0
        model.params["b_D"][:] = 0.0
        model.params["b_D"][0] = 5.0
        model.params["W_U"][:, allowed] = 0.0
        model.params["b_U"][allowed] = -1.0
        model.params["b_U"][first] = 1e-3
        model.params["b_U"][last] = np.nextafter(1e-3, 1.0)
        for h in np.random.default_rng(9).normal(size=(5, 12)):
            probs = np.exp(model._unit_log_probs(model.unit_logits(h)[None])[0])
            assert probs[first] == probs[last]  # rounding ties the two units
            pred = model.predict(h)
            assert registry.unit_index(pred.unit) == last
            out = model.outputs(h[None])
            assert model.argmax_unit_indices_given(out, [0]).tolist() == [last]
