import json
import math

import numpy as np
import pytest

from measured.data import MeasurementExample, NonPositiveNumber
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.model import (
    LN10,
    BatchArrays,
    MeasurementModel,
    MissingHead,
    ModelSpec,
    RegistryMismatch,
    _forward_backward,
    batch_arrays,
    load_model,
    save_model,
)

M = 6


def make_model(registry, variant, seed=0, **spec_kwargs):
    enc = HashedNgramEncoder(
        EncoderConfig(feature_dim=128, hidden_dim=M), seed=seed
    )
    return MeasurementModel(
        ModelSpec(variant, M, **spec_kwargs), registry, enc, seed=seed
    )


def rand_h(seed=0):
    return np.random.default_rng(seed).normal(size=M)


def row_loss(model, h, arrays):
    """The batched training loss on the single row ``h``."""
    return _forward_backward(model, h[None], arrays, None, None, False)[0]


def number_row(y):
    """One row's arrays for a number column that conditions on no class."""
    return BatchArrays(np.array([0]), np.array([0]), np.array([math.log10(y)]))


def example_loss(model, h, ex):
    return row_loss(model, h, batch_arrays(model, [ex]))


def make_example(registry, text, number, unit_token):
    unit = registry.resolve_unit(unit_token)
    canonical, _ = registry.canonicalize(number, unit)
    return MeasurementExample(text, number, unit, unit.dimension, canonical)


class TestModelSpec:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelSpec("sideways", 4)

    def test_number_head_widths(self, toy_registry):
        assert ModelSpec("joint", 4).number_columns(toy_registry) == 3
        assert ModelSpec("dim-number", 4).number_columns(toy_registry) == 3
        assert ModelSpec("latent-dim", 4).number_columns(toy_registry) == 3
        assert ModelSpec("joint-unit", 4).number_columns(toy_registry) == 7
        assert ModelSpec("number", 4).number_columns(toy_registry) == 1
        assert ModelSpec("dim", 4).number_columns(toy_registry) == 0

    def test_heads_created_per_variant(self, toy_registry):
        assert set(make_model(toy_registry, "dim").params) == {"W_D", "b_D"}
        assert set(make_model(toy_registry, "dim-unit").params) == {
            "W_D", "b_D", "W_U", "b_U",
        }
        assert set(make_model(toy_registry, "joint").params) == {
            "W_D", "b_D", "W_U", "b_U", "W_Y", "b_Y",
        }
        assert set(make_model(toy_registry, "number").params) == {"W_Y", "b_Y"}


class TestDimDistribution:
    def test_zero_logits_give_uniform(self, toy_registry):
        model = make_model(toy_registry, "dim")
        model.params["W_D"][:] = 0.0
        p = model.dim_distribution(rand_h())
        assert np.allclose(p, 1.0 / 3.0)

    def test_shift_invariance(self, toy_registry):
        model = make_model(toy_registry, "dim")
        h = rand_h(1)
        p1 = model.dim_distribution(h)
        model.params["b_D"] += 7.25
        p2 = model.dim_distribution(h)
        assert np.allclose(p1, p2)

    def test_matches_direct_exp_normalize(self, toy_registry):
        model = make_model(toy_registry, "dim", seed=3)
        h = rand_h(2)
        z = model.params["W_D"].T @ h + model.params["b_D"]
        expected = np.exp(z) / np.exp(z).sum()
        assert np.allclose(model.dim_distribution(h), expected, atol=1e-12)

    def test_normalization_and_positivity(self, toy_registry):
        model = make_model(toy_registry, "dim", seed=5)
        for i in range(20):
            p = model.dim_distribution(rand_h(i))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)


class TestUnitDistribution:
    def test_support_is_dimension_units(self, toy_registry):
        model = make_model(toy_registry, "dim-unit", seed=1)
        p = model.unit_distribution(rand_h(), "velocity")
        names = [u.name for u in toy_registry.units]
        support = {names[i] for i in np.nonzero(p)[0]}
        assert support == {"m/s", "mph"}
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_masked_entries_exactly_zero(self, toy_registry):
        model = make_model(toy_registry, "dim-unit", seed=2)
        for i, d in enumerate(toy_registry.dimensions):
            p = model.unit_distribution(rand_h(i), d)
            allowed = {toy_registry.unit_index(u) for u in toy_registry.units_of(d)}
            for j, prob in enumerate(p):
                if j not in allowed:
                    assert prob == 0.0

    def test_single_unit_dimension(self, one_dim_registry):
        # drop one unit to get a single-unit dimension
        from measured.units import parse_registry

        reg = parse_registry(
            "dim mass L0 M1 T0 I0 Θ0 N0 J0\n"
            "unit kg mass scale=1 offset=0\n"
        )
        model = make_model(reg, "dim-unit")
        p = model.unit_distribution(rand_h(), "mass")
        assert p.tolist() == [1.0]


class TestNumberNll:
    def test_zero_at_true_location(self, toy_registry):
        model = make_model(toy_registry, "number")
        h = rand_h(3)
        mu = float(model.number_locations(h)[0])
        value = row_loss(model, h, number_row(10.0 ** mu))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_one_decade_off(self, toy_registry):
        model = make_model(toy_registry, "number")
        model.params["W_Y"][:] = 0.0
        model.params["b_Y"][:] = 2.0
        assert row_loss(model, rand_h(), number_row(1000.0)) == pytest.approx(1.0)

    def test_gradient_sign_via_finite_differences(self, toy_registry):
        model = make_model(toy_registry, "number")
        h = rand_h(4)
        y = 250.0
        eps = 1e-5
        b = model.params["b_Y"]
        base = float(b[0])
        b[0] = base + eps
        up = row_loss(model, h, number_row(y))
        b[0] = base - eps
        down = row_loss(model, h, number_row(y))
        b[0] = base
        fd = (up - down) / (2 * eps)
        mu = float(model.number_locations(h)[0])
        assert fd == pytest.approx(-math.copysign(1.0, math.log10(y) - mu), abs=1e-6)

    def test_l1_optimum_at_true_location(self, toy_registry):
        model = make_model(toy_registry, "number")
        h = rand_h(5)
        y = 42.0
        t = math.log10(y)
        model.params["W_Y"][:] = 0.0
        model.params["b_Y"][0] = t
        best = row_loss(model, h, number_row(y))
        for delta in (-0.5, -0.01, 0.01, 0.5):
            model.params["b_Y"][0] = t + delta
            assert row_loss(model, h, number_row(y)) > best

    def test_argmin_location_is_base_invariant(self):
        # L1 regression of log(y): natural-log and log10 parameterizations
        # locate the same linear-space optimum for a single example
        y = 37.5
        mu10 = math.log10(y)
        mu_nat = math.log(y)
        assert 10.0 ** mu10 == pytest.approx(math.e ** mu_nat, rel=1e-12)


class TestJointNll:
    def test_dim_only_loss_vanishes_when_confident(self, toy_registry):
        model = make_model(toy_registry, "dim")
        model.params["W_D"][:] = 0.0
        di = toy_registry.dimension_index("time")
        model.params["b_D"][di] = 60.0
        ex = make_example(toy_registry, "t [#NUM] [#UNIT]", 5.0, "s")
        assert example_loss(model, rand_h(), ex) == pytest.approx(0.0, abs=1e-12)

    def test_joint_decomposes_into_head_terms(self, toy_registry):
        model = make_model(toy_registry, "joint", seed=7)
        ex = make_example(toy_registry, "x [#NUM] [#UNIT]", 3.0, "km")
        h = rand_h(7)
        di = toy_registry.dimension_index(ex.dimension)
        total = example_loss(model, h, ex)
        ce_d = -math.log10(model.dim_distribution(h)[di])
        ce_u = -math.log10(
            model.unit_distribution(h, ex.dimension)[
                toy_registry.unit_index(ex.unit)
            ]
        )
        nll_y = abs(math.log10(ex.canonical_number) - model.number_locations(h)[di])
        assert total == pytest.approx(ce_d + ce_u + nll_y, rel=1e-12)

    def test_against_independent_per_head_oracle(self, toy_registry):
        """Recompute every term with plain numpy, no model code paths."""
        model = make_model(toy_registry, "joint-unit", seed=11)
        ex = make_example(toy_registry, "x [#NUM] [#UNIT]", 12.0, "mph")
        h = rand_h(8)
        p = model.params
        zd = p["W_D"].T @ h + p["b_D"]
        ce_d = -(zd[toy_registry.dimension_index("velocity")] - math.log(np.exp(zd).sum())) / LN10
        allowed = [toy_registry.unit_index(u) for u in toy_registry.units_of("velocity")]
        zu = (p["W_U"].T @ h + p["b_U"])[allowed]
        pos = allowed.index(toy_registry.unit_index("mph"))
        ce_u = -(zu[pos] - math.log(np.exp(zu).sum())) / LN10
        mu = (p["W_Y"].T @ h + p["b_Y"])[toy_registry.unit_index("mph")]
        nll_y = abs(math.log10(ex.canonical_number) - mu)
        assert example_loss(model, h, ex) == pytest.approx(ce_d + ce_u + nll_y, rel=1e-12)


class TestLatentMixture:
    def test_single_dimension_reduces_to_full_nll(self, one_dim_registry):
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=64, hidden_dim=M), seed=0)
        model = MeasurementModel(
            ModelSpec("latent-dim", M), one_dim_registry, enc, seed=0
        )
        h = rand_h(9)
        y = 7.5
        mu = float(model.number_locations(h)[0])
        expected = abs(math.log10(y) - mu) + math.log10(2.0) + math.log10(y)
        assert row_loss(model, h, number_row(y)) == pytest.approx(expected, rel=1e-12)

    def test_equal_components_collapse(self, toy_registry):
        model = make_model(toy_registry, "latent-dim")
        model.params["W_Y"][:] = 0.0
        model.params["b_Y"][:] = 1.5  # all components identical
        h = rand_h(10)
        y = 80.0
        expected = abs(math.log10(y) - 1.5) + math.log10(2.0) + math.log10(y)
        assert row_loss(model, h, number_row(y)) == pytest.approx(expected, rel=1e-12)

    def test_two_component_case_against_naive_sum(self, toy_registry):
        """Direct probability-domain sum at well-scaled values."""
        model = make_model(toy_registry, "latent-dim", seed=13)
        h = rand_h(11)
        y = 3.0
        prior = model.dim_distribution(h)
        mu = model.number_locations(h)
        t = math.log10(y)
        mixture = sum(
            float(prior[d])
            * 10.0 ** -(abs(t - float(mu[d])) + math.log10(2.0) + t)
            for d in range(len(prior))
        )
        value = row_loss(model, h, number_row(y))
        assert value == pytest.approx(-math.log10(mixture), rel=1e-10)

    def test_logsumexp_sandwich_bounds(self, toy_registry):
        model = make_model(toy_registry, "latent-dim", seed=17)
        rng = np.random.default_rng(0)
        n_dims = len(toy_registry.dimensions)
        for i in range(50):
            model.params["W_Y"][:] = rng.normal(size=model.params["W_Y"].shape)
            model.params["b_Y"][:] = rng.normal(size=n_dims) * 3
            h = rng.normal(size=M)
            y = float(10.0 ** rng.uniform(-3, 3))
            prior = model.dim_distribution(h)
            mu = model.number_locations(h)
            t = math.log10(y)
            per = -np.log10(prior) + (
                np.abs(t - mu) + math.log10(2.0) + t
            )
            value = row_loss(model, h, number_row(y))
            assert value <= per.min() + 1e-9
            assert value >= per.min() - math.log10(n_dims) - 1e-9


class TestPosterior:
    def test_two_dim_brute_force(self, toy_registry):
        model = make_model(toy_registry, "dim-number", seed=19)
        h = rand_h(12)
        y = 5.0
        t = math.log10(y)
        prior = model.dim_distribution(h)
        mu = model.number_locations(h)
        dens = np.array(
            [0.5 * 10.0 ** -abs(t - m) / (y * LN10) for m in mu]
        )
        expected = prior * dens / (prior * dens).sum()
        assert np.allclose(model.posterior_dims(h[None], [y])[0], expected, atol=1e-12)

    def test_flat_prior_matches_pure_likelihood(self, toy_registry):
        model = make_model(toy_registry, "dim-number", seed=23)
        model.params["W_D"][:] = 0.0
        model.params["b_D"][:] = 0.0
        h = rand_h(13)
        y = 30.0
        mu = model.number_locations(h)
        best_density = int(np.argmin(np.abs(math.log10(y) - mu)))
        assert int(np.argmax(model.posterior_dims(h[None], [y])[0])) == best_density

    def test_posterior_equals_prior_when_densities_equal(self, toy_registry):
        model = make_model(toy_registry, "dim-number", seed=29)
        model.params["W_Y"][:] = 0.0
        model.params["b_Y"][:] = 0.7
        h = rand_h(14)
        posterior = model.posterior_dims(h[None], [12.0])[0]
        assert np.allclose(posterior, model.dim_distribution(h), atol=1e-12)

    def test_unit_mixture_posterior_brute_force(self, toy_registry):
        model = make_model(toy_registry, "joint-unit", seed=31)
        h = rand_h(15)
        y = 2.5
        t = math.log10(y)
        prior = model.dim_distribution(h)
        mu = model.number_locations(h)
        scores = []
        for d in toy_registry.dimensions:
            pu = model.unit_distribution(h, d)
            allowed = [toy_registry.unit_index(u) for u in toy_registry.units_of(d)]
            mix = sum(pu[u] * 0.5 * 10.0 ** -abs(t - mu[u]) / (y * LN10) for u in allowed)
            scores.append(prior[toy_registry.dimension_index(d)] * mix)
        expected = np.array(scores) / sum(scores)
        assert np.allclose(model.posterior_dims(h[None], [y])[0], expected, atol=1e-12)

    @pytest.mark.parametrize("variant", ["dim-number", "joint-unit"])
    def test_batched_posterior_matches_one_row_loop(self, toy_registry, variant):
        model = make_model(toy_registry, variant, seed=71)
        H = np.random.default_rng(4).normal(size=(9, M))
        ys = 10.0 ** np.linspace(-3.0, 5.0, 9)
        batch = model.posterior_dims(H, ys)
        for h, y, row in zip(H, ys, batch):
            assert np.allclose(row, model.posterior_dims(h[None], [y])[0], atol=1e-12)

    def test_missing_head(self, toy_registry):
        with pytest.raises(MissingHead):
            make_model(toy_registry, "dim").posterior_dims(rand_h()[None], [1.0])
        model = make_model(toy_registry, "dim-number")
        with pytest.raises(NonPositiveNumber):
            model.posterior_dims(rand_h()[None], [-1.0])


class TestPredict:
    def test_located_number_converts_into_predicted_unit(self, toy_registry):
        model = make_model(toy_registry, "joint")
        model.params["W_D"][:] = 0.0
        model.params["W_U"][:] = 0.0
        model.params["W_Y"][:] = 0.0
        model.params["b_D"][toy_registry.dimension_index("length")] = 10.0
        model.params["b_U"][toy_registry.unit_index("ft")] = 10.0
        model.params["b_Y"][toy_registry.dimension_index("length")] = 3.00
        pred = model.predict(rand_h(19))
        assert pred.dimension.name == "length"
        assert pred.unit.name == "ft"
        assert pred.canonical_number == pytest.approx(1000.0)
        assert float(f"{pred.surface_number:.6g}") == 3280.84

    def test_forced_single_classes(self, one_dim_registry):
        from measured.units import parse_registry

        reg = parse_registry(
            "dim mass L0 M1 T0 I0 Θ0 N0 J0\n"
            "unit kg mass scale=1 offset=0\n"
        )
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=64, hidden_dim=M), seed=0)
        model = MeasurementModel(ModelSpec("joint", M), reg, enc, seed=0)
        pred = model.predict(rand_h(20))
        assert pred.dimension.name == "mass"
        assert pred.unit.name == "kg"

    def test_unit_always_compatible_with_dimension(self, toy_registry):
        model = make_model(toy_registry, "joint-unit", seed=43)
        for i in range(50):
            pred = model.predict(rand_h(i))
            assert pred.unit.dimension is pred.dimension
            assert pred.dim_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_with_ties(self, toy_registry):
        model = make_model(toy_registry, "joint")
        for name in ("W_D", "W_U", "W_Y", "b_D", "b_U", "b_Y"):
            model.params[name][:] = 0.0
        h = np.zeros(M)
        a = model.predict(h)
        b = model.predict(h)
        # all logits tie; lowest declaration index wins
        assert a.dimension.name == b.dimension.name == "length"
        assert a.unit.name == b.unit.name == "m"

    def test_missing_heads(self, toy_registry):
        for variant in ("dim", "dim-unit", "number", "dim-number", "latent-dim"):
            with pytest.raises(MissingHead):
                make_model(toy_registry, variant).predict(rand_h())


class TestPredictNumberPaths:
    def test_batch_matches_scalar(self, toy_registry):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(12, M))
        cases = [
            (variant, False)
            for variant in ("number", "dim-number", "joint", "joint-unit", "latent-dim")
        ] + [("dim-number", True), ("joint", True)]
        for variant, mixture in cases:
            model = make_model(
                toy_registry, variant, seed=47, mixture_number_prediction=mixture
            )
            batch = model.predict_number_batch(H)
            single = np.array([model.predict_number_batch(h[None])[0] for h in H])
            assert np.allclose(batch, single, rtol=1e-9), (variant, mixture)
            if variant == "latent-dim" or mixture:
                medians = model.mixture_median_locations(H)
                one_by_one = [model.mixture_median_locations(h[None])[0] for h in H]
                assert np.allclose(medians, one_by_one, atol=1e-9), variant

    def test_mixture_median_single_component(self, one_dim_registry):
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=64, hidden_dim=M), seed=0)
        model = MeasurementModel(
            ModelSpec("latent-dim", M), one_dim_registry, enc, seed=0
        )
        h = rand_h(21)
        mu = float(model.number_locations(h)[0])
        assert model.mixture_median_locations(h[None])[0] == pytest.approx(mu, abs=1e-9)

    def test_mixture_median_symmetric_two_component(self, toy_registry):
        from measured.units import parse_registry

        reg = parse_registry(
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "dim time L0 M0 T1 I0 Θ0 N0 J0\n"
            "unit m length scale=1 offset=0\n"
            "unit s time scale=1 offset=0\n"
        )
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=64, hidden_dim=M), seed=0)
        model = MeasurementModel(ModelSpec("latent-dim", M), reg, enc, seed=0)
        model.params["W_D"][:] = 0.0
        model.params["b_D"][:] = 0.0
        model.params["W_Y"][:] = 0.0
        model.params["b_Y"][:] = [1.0, 5.0]
        median = model.mixture_median_locations(rand_h(22)[None])[0]
        assert median == pytest.approx(3.0, abs=1e-9)

    def test_mixture_flag_switches_joint_readout(self, toy_registry):
        plain = make_model(toy_registry, "joint", seed=53)
        mixed = make_model(
            toy_registry, "joint", seed=53, mixture_number_prediction=True
        )
        mixed.params = {k: v.copy() for k, v in plain.params.items()}
        h = rand_h(23)
        argmax_value = plain.predict_number_batch(h[None])[0]
        mixture_value = mixed.predict_number_batch(h[None])[0]
        di = int(np.argmax(plain.dim_distribution(h)))
        assert argmax_value == pytest.approx(
            10.0 ** float(plain.number_locations(h)[di])
        )
        assert mixture_value != argmax_value


class TestCheckpoint:
    def test_round_trip(self, toy_registry, tmp_path):
        model = make_model(toy_registry, "joint-unit", seed=59)
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path, toy_registry)
        h_text = "The crossing took [#NUM] [#UNIT] in fog ."
        h1 = model.encode(h_text)
        h2 = again.encode(h_text)
        assert np.array_equal(h1, h2)
        p1, p2 = model.predict(h1), again.predict(h2)
        assert p1.dimension.name == p2.dimension.name
        assert p1.unit.name == p2.unit.name
        assert p1.canonical_number == p2.canonical_number
        assert np.array_equal(model.encoder.W_S, again.encoder.W_S)
        assert set(again.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(model.params[name], again.params[name])

    def test_fingerprint_mismatch_rejected(self, toy_registry, registry, tmp_path):
        model = make_model(toy_registry, "dim", seed=61)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with pytest.raises(RegistryMismatch):
            load_model(path, registry)

    def test_comments_and_blank_lines_keep_the_fingerprint(self, tmp_path):
        from measured.units import parse_registry
        from tests.conftest import TOY_REGISTRY_TEXT

        plain = parse_registry(TOY_REGISTRY_TEXT)
        model = make_model(plain, "dim", seed=63)
        path = tmp_path / "model.npz"
        save_model(model, path)
        commented = parse_registry(
            "# units for the toy corpus\n\n" + TOY_REGISTRY_TEXT.replace("\n", "\n\n")
        )
        again = load_model(path, commented)
        assert np.array_equal(again.params["W_D"], model.params["W_D"])

    def test_v1_checkpoint_refused(self, toy_registry, tmp_path):
        model = make_model(toy_registry, "dim", seed=67)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as z:
            arrays = dict(z)
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["format"] = "measured-checkpoint-v1"
        arrays["__meta__"] = np.array(json.dumps(meta))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(ValueError, match="v1 fingerprinted the registry file's text"):
            load_model(path, toy_registry)

    @staticmethod
    def rewrite_heads(path, edit):
        """Apply ``edit(heads, arrays)`` to a saved checkpoint's heads and arrays."""
        with np.load(path) as z:
            arrays = dict(z)
        meta = json.loads(str(arrays["__meta__"][()]))
        edit(meta["heads"], arrays)
        arrays["__meta__"] = np.array(json.dumps(meta))
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    def test_checkpoint_missing_a_head_refused(self, toy_registry, tmp_path):
        path = tmp_path / "model.npz"
        save_model(make_model(toy_registry, "joint", seed=89), path)

        def drop_unit_head(heads, arrays):
            heads.remove("W_U")
            del arrays["head.W_U"]

        self.rewrite_heads(path, drop_unit_head)
        with pytest.raises(ValueError, match=": W_U$"):
            load_model(path, toy_registry)

    def test_checkpoint_with_a_foreign_head_refused(self, toy_registry, tmp_path):
        path = tmp_path / "model.npz"
        save_model(make_model(toy_registry, "dim", seed=97), path)

        def add_number_head(heads, arrays):
            heads.append("W_Y")
            arrays["head.W_Y"] = np.zeros((M, len(toy_registry.dimensions)))

        self.rewrite_heads(path, add_number_head)
        with pytest.raises(ValueError, match=": W_Y$"):
            load_model(path, toy_registry)

    def test_meta_is_pinned(self, toy_registry, tmp_path):
        """The checkpoint's JSON header, key order included, stays as written."""
        config = EncoderConfig(
            feature_dim=128, hidden_dim=M, char_ngrams=(2, 5), frozen=True
        )
        enc = HashedNgramEncoder(config, seed=71)
        spec = ModelSpec("dim-number", M, mixture_number_prediction=True)
        model = MeasurementModel(spec, toy_registry, enc, seed=73)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as z:
            meta = str(z["__meta__"][()])
        assert meta == (
            '{"format": "measured-checkpoint-v2", "variant": "dim-number", '
            '"hidden_dim": 6, "mixture_number_prediction": true, "head_seed": 73, '
            '"encoder": {"feature_dim": 128, "hidden_dim": 6, "word_ngrams": [1, 2], '
            '"char_ngrams": [2, 5], "hash_seed": 0, "frozen": true, "seed": 71}, '
            '"registry_fingerprint": '
            '"7625e891b1e397f9b0b853e59505bbed8184832377f7f74cf553564d174bcb6b", '
            '"heads": ["W_D", "W_Y", "b_D", "b_Y"]}'
        )
        again = load_model(path, toy_registry)
        assert again.spec == spec
        assert again.encoder.config == enc.config
        assert again.encoder.seed == 71 and again.head_seed == 73

    def test_failed_save_keeps_the_previous_checkpoint(
        self, toy_registry, tmp_path, monkeypatch
    ):
        path = tmp_path / "model.npz"
        save_model(make_model(toy_registry, "joint", seed=79), path)
        before = path.read_bytes()

        def broken_savez(file, *args, **kwargs):
            file.write(b"PK partial checkpoint")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="no space left"):
            save_model(make_model(toy_registry, "joint", seed=83), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert path.read_bytes() == before
        again = load_model(path, toy_registry)
        reference = make_model(toy_registry, "joint", seed=79)
        for name in reference.params:
            assert np.array_equal(again.params[name], reference.params[name])
        assert np.array_equal(again.encoder.W_S, reference.encoder.W_S)

    def test_frozen_flag_survives(self, toy_registry, tmp_path):
        enc = HashedNgramEncoder(
            EncoderConfig(feature_dim=128, hidden_dim=M, frozen=True), seed=2
        )
        model = MeasurementModel(ModelSpec("dim", M), toy_registry, enc, seed=2)
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path, toy_registry)
        assert again.encoder.frozen
        assert again.encoder.trainable_parameters() == {}
