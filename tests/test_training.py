import math
import weakref

import numpy as np
import pytest

from measured import encoding, training
from measured.data import ingest, split
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.model import (
    LN10,
    MeasurementModel,
    ModelSpec,
    VARIANTS,
    _forward_backward,
    batch_arrays,
)
from measured.synth import SynthConfig, generate_records
from measured.training import (
    AdamWState,
    AllZeroCounts,
    ShapeMismatch,
    TrainConfig,
    adamw_step,
    batch_loss,
    class_weights,
    gradients,
    lr_at,
    train,
)

ALL_VARIANTS = list(VARIANTS)


@pytest.fixture(scope="module")
def corpus(registry):
    records = generate_records(SynthConfig(n_examples=700, seed=21), registry)
    return split(ingest(records, registry).examples, seed=21)


def small_model(registry, variant, seed=0, frozen=False, hidden=12, features=2048):
    enc = HashedNgramEncoder(
        EncoderConfig(feature_dim=features, hidden_dim=hidden, frozen=frozen),
        seed=seed,
    )
    return MeasurementModel(ModelSpec(variant, hidden), registry, enc, seed=seed)


class TestClassWeights:
    def test_equal_counts_normalize_to_one(self):
        assert np.allclose(class_weights(np.array([50, 50, 50])), 1.0)

    def test_monotone_decreasing(self):
        w = class_weights(np.array([10, 1000]))
        assert w[0] > w[1]

    def test_hand_case_ratio(self):
        # pre-normalization weights 1/ln(e + 0) = 1 and 1/ln(e + e^2 - e) = 1/2
        counts = np.array([0.0, math.e**2 - math.e])
        w = class_weights(counts)
        assert w[0] / w[1] == pytest.approx(2.0, rel=1e-12)
        assert w.mean() == pytest.approx(1.0)

    def test_zero_count_gets_maximum_weight(self):
        w = class_weights(np.array([0, 5, 500, 3]))
        assert w.argmax() == 0

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroCounts):
            class_weights(np.zeros(3))


class TestSchedule:
    def make(self, lr=1e-4, warmup=500):
        return TrainConfig(learning_rate=lr, warmup_steps=warmup)

    def test_midpoint_of_warmup(self):
        assert lr_at(250, self.make()) == pytest.approx(5e-5)

    def test_constant_after_warmup(self):
        config = self.make()
        assert lr_at(500, config) == pytest.approx(1e-4)
        assert lr_at(5000, config) == pytest.approx(1e-4)

    def test_first_step(self):
        assert lr_at(1, self.make()) == pytest.approx(2e-7)

    def test_zero_warmup(self):
        assert lr_at(1, self.make(warmup=0)) == pytest.approx(1e-4)

    def test_steps_are_one_based(self):
        with pytest.raises(ValueError):
            lr_at(0, self.make())


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = {"w": np.ones((3, 2))}
        state = AdamWState(weight_decay=0.0)
        adamw_step(params, {"w": np.zeros((3, 2))}, state, lr=0.1)
        assert np.array_equal(params["w"], np.ones((3, 2)))

    def test_single_step_closed_form(self):
        """From zero moments the bias-corrected update is g / (|g| + eps)."""
        g = np.array([0.3, -2.0, 0.001])
        p0 = np.array([1.0, 1.0, 1.0])
        params = {"w": p0.copy()}
        state = AdamWState(weight_decay=0.0, eps=1e-8)
        adamw_step(params, {"w": g}, state, lr=0.01)
        expected = p0 - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(params["w"], expected, rtol=1e-12)

    def test_decoupled_decay(self):
        params = {"w": np.array([2.0])}
        state = AdamWState(weight_decay=0.1)
        adamw_step(params, {"w": np.array([0.0])}, state, lr=0.5)
        # no gradient: only the decay term fires
        assert params["w"][0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0)

    def test_bit_identical_runs(self):
        rng = np.random.default_rng(5)
        grads_seq = [rng.normal(size=(4, 3)) for _ in range(10)]

        def run():
            params = {"w": np.full((4, 3), 0.5)}
            state = AdamWState()
            for g in grads_seq:
                adamw_step(params, {"w": g}, state, lr=1e-3)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            adamw_step(
                {"w": np.zeros(3)}, {"w": np.zeros(4)}, AdamWState(), lr=0.1
            )

    @staticmethod
    def lazy_and_dense(grads_seq):
        """Run the lazy and the dense step on the same gradients."""
        runs = []
        for row_sparse in (frozenset({"W"}), frozenset()):
            rng = np.random.default_rng(8)
            params = {"W": rng.normal(size=(6, 4)), "b": rng.normal(size=4)}
            state = AdamWState(weight_decay=0.05, row_sparse=row_sparse)
            for g in grads_seq:
                adamw_step(params, {"W": g, "b": g[0]}, state, lr=1e-2)
            runs.append((params, state))
        return runs

    def test_lazy_step_without_zero_rows_is_the_dense_step(self):
        rng = np.random.default_rng(6)
        grads_seq = [rng.normal(size=(6, 4)) for _ in range(5)]
        (lazy, lazy_state), (dense, dense_state) = self.lazy_and_dense(grads_seq)
        for name in ("W", "b"):
            assert np.array_equal(lazy[name], dense[name]), name
            assert np.array_equal(lazy_state.m[name], dense_state.m[name]), name
            assert np.array_equal(lazy_state.v[name], dense_state.v[name]), name

    @pytest.mark.parametrize("huge_page_advice", [True, False])
    def test_lazy_moments_start_as_writable_zeros(
        self, huge_page_advice, monkeypatch
    ):
        if not huge_page_advice:
            monkeypatch.delattr(encoding.mmap, "MADV_NOHUGEPAGE", raising=False)
        zeros = encoding._small_page_zeros((5, 3), np.float64)
        assert zeros.shape == (5, 3) and zeros.dtype == np.float64
        assert not zeros.any()
        zeros[2] = 1.0
        assert zeros.sum() == 3.0

    def test_lazy_step_leaves_zero_gradient_rows_alone(self):
        rng = np.random.default_rng(7)
        warm = [rng.normal(size=(6, 4)) for _ in range(3)]
        g = rng.normal(size=(6, 4))
        zero = [1, 4]
        g[zero] = 0.0
        g[2, :-1] = 0.0  # a row with one nonzero entry is touched
        (before, before_state), _ = self.lazy_and_dense(warm)
        (lazy, lazy_state), (dense, dense_state) = self.lazy_and_dense([*warm, g])
        touched = [0, 2, 3, 5]
        for ours, theirs, ref in (
            (lazy["W"], dense["W"], before["W"]),
            (lazy_state.m["W"], dense_state.m["W"], before_state.m["W"]),
            (lazy_state.v["W"], dense_state.v["W"], before_state.v["W"]),
        ):
            assert np.array_equal(ours[zero], ref[zero])
            assert np.array_equal(ours[touched], theirs[touched])
            assert not np.array_equal(ours[zero], theirs[zero])
        assert np.array_equal(lazy["b"], dense["b"])


class TestGradients:
    def test_softmax_ce_closed_form(self, toy_registry):
        """Dimension CE gradient on logits is (p - onehot), scaled by the
        base-10 log the losses use."""
        from tests.test_model import make_example

        model = small_model(toy_registry, "dim", seed=1)
        ex = make_example(toy_registry, "a [#NUM] [#UNIT] b", 4.0, "m")
        _, grads = gradients(model, [ex])
        h = model.encode(ex.masked_text)
        p = model.dim_distribution(h)
        onehot = np.zeros_like(p)
        onehot[toy_registry.dimension_index("length")] = 1.0
        assert np.allclose(grads["b_D"], (p - onehot) / LN10, atol=1e-12)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_finite_difference_agreement(self, variant, registry, corpus):
        examples = corpus.train[:6]
        model = small_model(registry, variant, seed=3, hidden=5, features=64)
        loss, grads = gradients(model, examples)
        assert math.isfinite(loss)
        params = model.trainable_parameters()
        assert set(grads) == set(params)
        rng = np.random.default_rng(7)
        for name, p in params.items():
            flat = p.reshape(-1)
            picks = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + 1e-5
                up = batch_loss(model, examples)
                flat[i] = orig - 1e-5
                down = batch_loss(model, examples)
                flat[i] = orig
                fd = (up - down) / 2e-5
                an = grads[name].reshape(-1)[i]
                # the 1e-5 floor absorbs float64 cancellation noise on
                # components too small for a 1e-5 step to resolve
                assert abs(fd - an) / max(abs(fd), abs(an), 1e-5) < 1e-4, (
                    variant,
                    name,
                )

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_batch_loss_is_mean_of_one_row_losses(self, variant, registry, corpus):
        examples = corpus.train[:9]
        model = small_model(registry, variant, seed=9, hidden=7, features=256)
        per_example = [
            _forward_backward(
                model,
                model.encode(ex.masked_text)[None],
                batch_arrays(model, [ex]),
                None,
                None,
                False,
            )[0]
            for ex in examples
        ]
        assert batch_loss(model, examples) == pytest.approx(
            np.mean(per_example), rel=1e-12
        )

    def test_frozen_encoder_has_no_projection_gradient(self, registry, corpus):
        model = small_model(registry, "dim", seed=2, frozen=True)
        _, grads = gradients(model, corpus.train[:4])
        assert "encoder.W_S" not in grads

    def test_weighted_ce_scales_gradient(self, registry, corpus):
        model = small_model(registry, "dim", seed=4)
        examples = corpus.train[:5]
        n_dims = len(registry.dimensions)
        _, plain = gradients(model, examples)
        _, doubled = gradients(
            model, examples, dim_weights=np.full(n_dims, 2.0)
        )
        assert np.allclose(doubled["b_D"], 2.0 * plain["b_D"])

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_fifty_full_batch_steps_descend(self, variant, registry, corpus):
        examples = corpus.train[:32]
        model = small_model(registry, variant, seed=5, hidden=8, features=512)
        params = model.trainable_parameters()
        state = AdamWState(weight_decay=0.0)
        start = batch_loss(model, examples)
        for _ in range(50):
            _, grads = gradients(model, examples)
            adamw_step(params, grads, state, lr=5e-3)
        end = batch_loss(model, examples)
        assert end < start, variant


class TestTrainLoop:
    def config(self, **kwargs):
        base = dict(
            batch_size=32,
            max_epochs=8,
            warmup_steps=20,
            patience=3,
            seed=0,
            learning_rate=5e-3,
        )
        base.update(kwargs)
        return TrainConfig(**base)

    def test_classifier_reaches_high_f1_on_separable_corpus(self, registry, corpus):
        model = small_model(registry, "dim", seed=6)
        result = train(model, corpus, self.config(max_epochs=20, patience=5))
        assert result.selection_metric == "macro-f1"
        assert result.best_value > 0.9

    def test_history_schema_and_best_epoch(self, registry, corpus):
        model = small_model(registry, "number", seed=7)
        result = train(model, corpus, self.config(max_epochs=5))
        assert [h["epoch"] for h in result.history] == list(
            range(1, len(result.history) + 1)
        )
        for h in result.history:
            assert set(h) == {"epoch", "train_loss", "val_metric", "lr"}
        vals = [h["val_metric"] for h in result.history]
        assert result.best_epoch == int(np.argmin(vals)) + 1
        assert result.best_value == min(vals)

    def test_early_stopping_on_monotone_worsening(
        self, registry, corpus, monkeypatch
    ):
        calls = {"n": 0}

        def worsening(model, metric, H_val, arrays_val, val_examples):
            calls["n"] += 1
            return float(calls["n"])

        monkeypatch.setattr(training, "_val_metric", worsening)
        model = small_model(registry, "number", seed=8)
        result = train(
            model, corpus, self.config(max_epochs=50, patience=5)
        )
        # epoch 1 sets the best; five straight non-improvements stop it
        assert len(result.history) == 6
        assert result.best_epoch == 1

    def test_worsening_run_returns_first_epoch_parameters(
        self, registry, corpus, monkeypatch
    ):
        def one_epoch_params():
            model = small_model(registry, "number", seed=9)
            train(model, corpus, self.config(max_epochs=1))
            return {k: v.copy() for k, v in model.trainable_parameters().items()}

        reference = one_epoch_params()

        calls = {"n": 0}

        def worsening(model, metric, H_val, arrays_val, val_examples):
            calls["n"] += 1
            return float(calls["n"])

        monkeypatch.setattr(training, "_val_metric", worsening)
        model = small_model(registry, "number", seed=9)
        result = train(model, corpus, self.config(max_epochs=50, patience=5))
        assert result.best_epoch == 1
        for name, value in model.trainable_parameters().items():
            assert np.array_equal(value, reference[name]), name

    def test_frozen_projection_is_bit_identical(self, registry, corpus):
        model = small_model(registry, "dim", seed=10, frozen=True)
        before = model.encoder.W_S.copy()
        train(model, corpus, self.config(max_epochs=3))
        assert np.array_equal(model.encoder.W_S, before)

    def test_unfrozen_projection_moves(self, registry, corpus):
        model = small_model(registry, "dim", seed=10)
        before = model.encoder.W_S.copy()
        train(model, corpus, self.config(max_epochs=2))
        assert not np.array_equal(model.encoder.W_S, before)

    def test_untouched_projection_rows_keep_their_initial_values(
        self, registry, corpus
    ):
        model = small_model(registry, "joint", seed=13)
        before = model.encoder.W_S.copy()
        train(model, corpus, self.config(max_epochs=3))
        X = model.encoder.feature_matrix([ex.masked_text for ex in corpus.train])
        touched = np.unique(X.indices)
        untouched = np.setdiff1d(np.arange(len(before)), touched)
        assert len(untouched) > 0
        assert np.array_equal(model.encoder.W_S[untouched], before[untouched])
        moved = (model.encoder.W_S[touched] != before[touched]).any(axis=1)
        assert moved.all()

    def test_one_projection_gradient_alive_at_a_time(
        self, registry, corpus, monkeypatch
    ):
        """A full-shape W_S gradient is freed before the next one is made.

        At the default size each one is 512 MB, so keeping the previous
        step's gradient alive while the next is computed raises peak memory.
        """
        refs = []
        original = HashedNgramEncoder.projection_gradient

        def tracked(self, X, dH):
            assert all(ref() is None for ref in refs), "an earlier gradient is alive"
            G = original(self, X, dH)
            refs.append(weakref.ref(G))
            return G

        monkeypatch.setattr(HashedNgramEncoder, "projection_gradient", tracked)
        model = small_model(registry, "joint", seed=17)
        train(model, corpus, self.config(max_epochs=2))
        assert len(refs) > 2

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_training_matches_fresh_projection_gradients(
        self, variant, registry, corpus, monkeypatch
    ):
        """Training equals, bit for bit, training on a fresh ``X.T @ dH`` per step."""

        def run():
            model = small_model(registry, variant, seed=23)
            result = train(model, corpus, self.config(max_epochs=3, patience=5))
            return model.trainable_parameters(), result.history

        params, history = run()
        monkeypatch.setattr(
            HashedNgramEncoder,
            "projection_gradient",
            lambda self, X, dH: np.asarray(X.T @ dH),
        )
        fresh_params, fresh_history = run()
        assert len(history) == 3
        assert history == fresh_history
        assert set(params) == set(fresh_params)
        for name, p in params.items():
            assert np.array_equal(p, fresh_params[name]), name

    def test_nan_head_weight_stops_training(self, registry, corpus):
        model = small_model(registry, "joint", seed=14)
        model.params["W_D"][0, 0] = np.nan
        with pytest.raises(training.NonFiniteLoss, match="epoch 1, step 1: batch loss"):
            train(model, corpus, self.config())

    def test_nonfinite_validation_metric_stops_training(
        self, registry, corpus, monkeypatch
    ):
        monkeypatch.setattr(training, "_val_metric", lambda *args: math.inf)
        model = small_model(registry, "number", seed=15)
        with pytest.raises(
            training.NonFiniteLoss, match=r"epoch 1, step \d+: validation"
        ):
            train(model, corpus, self.config())

    def test_empty_val_split_warns(self, registry, corpus):
        from measured.data import DatasetSplit

        model = small_model(registry, "dim", seed=16)
        no_val = DatasetSplit(corpus.train, [], corpus.test, 0)
        with pytest.warns(UserWarning, match="validation split is empty"):
            result = train(model, no_val, self.config(max_epochs=1))
        assert len(result.history) == 1

    def test_bit_exact_reproducibility(self, registry, corpus):
        def run():
            model = small_model(registry, "joint", seed=11)
            train(model, corpus, self.config(max_epochs=3))
            return model.trainable_parameters()

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_auto_config_resolution(self, registry):
        frozen = TrainConfig().resolve(True, "dim")
        assert frozen.learning_rate == pytest.approx(1e-3)
        assert frozen.weighting == "log-frequency"
        live = TrainConfig().resolve(False, "joint")
        assert live.learning_rate == pytest.approx(1e-4)
        assert live.weighting == "uniform"
        assert live.selection_metric == "joint-nll"
        assert TrainConfig().resolve(False, "number").selection_metric == "log-mae"

    def test_empty_train_split_rejected(self, registry, corpus):
        from measured.data import DatasetSplit

        model = small_model(registry, "dim", seed=12)
        empty = DatasetSplit([], corpus.val, corpus.test, 0)
        with pytest.raises(ValueError):
            train(model, empty, self.config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(weighting="quadratic")
        with pytest.raises(ValueError):
            TrainConfig(selection_metric="accuracy")
