import itertools
import math

import numpy as np
import pytest

from measured.data import NonPositiveNumber, ingest, lower_median, split
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.evaluation import (
    LengthMismatch,
    NonSquare,
    accuracy,
    build_contingency,
    confusion,
    evaluate,
    groupwise_log_mae,
    hungarian_map,
    log_mae,
    macro_f1,
    macro_recall,
    majority_baseline,
    manhattan_error_histogram,
)
from measured.model import MeasurementModel, MissingHead, ModelSpec
from measured.synth import SynthConfig, generate_records
from measured.training import TrainConfig, train


@pytest.fixture(scope="module")
def corpus(registry):
    records = generate_records(SynthConfig(n_examples=600, seed=31), registry)
    return split(ingest(records, registry).examples, seed=31)


def quick_model(registry, corpus, variant, epochs=4):
    enc = HashedNgramEncoder(EncoderConfig(feature_dim=1024, hidden_dim=10), seed=1)
    model = MeasurementModel(ModelSpec(variant, 10), registry, enc, seed=1)
    train(
        model,
        corpus,
        TrainConfig(
            batch_size=32,
            max_epochs=epochs,
            warmup_steps=10,
            patience=epochs,
            learning_rate=5e-3,
            seed=1,
        ),
    )
    return model


def gold_column_log_mae(model, examples, given):
    """log-mae of the number read from each example's gold dimension or unit column."""
    reg = model.registry
    pred = []
    for ex in examples:
        h = model.encode(ex.masked_text)
        if given == "dim":
            col = reg.dimension_index(ex.dimension)
        else:
            col = reg.unit_index(ex.unit)
        pred.append(10.0 ** model.number_locations(h)[col])
    return log_mae([ex.canonical_number for ex in examples], pred)


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1(["a", "b", "a"], ["a", "b", "a"], ["a", "b"]) == 1.0

    def test_all_wrong_single_class_on_balanced_pair(self):
        gold = ["a", "b", "a", "b"]
        pred = ["b", "a", "b", "a"]
        assert macro_f1(gold, pred, ["a", "b"]) == 0.0

    def test_three_class_hand_oracle(self):
        """Precision/recall worked out by hand from the confusion matrix."""
        gold = ["a", "a", "b", "b", "c", "c"]
        pred = ["a", "b", "b", "b", "a", "c"]
        # class a: tp=1 fp=1 fn=1 -> P=R=1/2, F1=1/2
        # class b: tp=2 fp=1 fn=0 -> P=2/3, R=1, F1=4/5
        # class c: tp=1 fp=0 fn=1 -> P=1, R=1/2, F1=2/3
        expected = (0.5 + 0.8 + 2.0 / 3.0) / 3.0
        assert macro_f1(gold, pred, ["a", "b", "c"]) == pytest.approx(expected)

    def test_declared_but_absent_class_counts_as_zero(self):
        gold = ["a", "a"]
        pred = ["a", "a"]
        assert macro_f1(gold, pred, ["a", "b"]) == 0.5

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        gold = list(rng.integers(0, 4, size=60))
        pred = list(rng.integers(0, 4, size=60))
        base = macro_f1(gold, pred, [0, 1, 2, 3])
        relabel = {0: "w", 1: "x", 2: "y", 3: "z"}
        assert macro_f1(
            [relabel[g] for g in gold],
            [relabel[p] for p in pred],
            ["w", "x", "y", "z"],
        ) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            macro_f1(["a"], ["a", "b"], ["a", "b"])


class TestLogMae:
    def test_zero_on_exact(self):
        assert log_mae([5.0, 7.0], [5.0, 7.0]) == 0.0

    def test_single_decade(self):
        assert log_mae([1000.0], [100.0]) == pytest.approx(1.0)

    def test_constant_ten_against_three_decades(self):
        assert log_mae([1.0, 10.0, 100.0], [10.0, 10.0, 10.0]) == pytest.approx(2.0 / 3.0)

    def test_invariant_under_joint_rescaling(self):
        rng = np.random.default_rng(3)
        gold = 10.0 ** rng.uniform(-3, 3, size=50)
        pred = 10.0 ** rng.uniform(-3, 3, size=50)
        base = log_mae(gold, pred)
        for c in (0.3048, 1000.0, 1e-6):
            assert log_mae(c * gold, c * pred) == pytest.approx(base, abs=1e-12)

    def test_positive_only(self):
        with pytest.raises(NonPositiveNumber):
            log_mae([1.0, -2.0], [1.0, 1.0])


class TestBaselines:
    def test_majority_simple(self):
        assert majority_baseline(["a", "a", "a", "b", "b"]) == "a"

    def test_majority_tie_takes_lowest_class_index(self):
        assert majority_baseline(["b", "a"], classes=["a", "b"]) == "a"
        assert majority_baseline(["b", "a"], classes=["b", "a"]) == "b"

    def test_median_odd(self):
        assert lower_median([1.0, 10.0, 100.0]) == 10.0

    def test_median_even_lower_of_middle(self):
        assert lower_median([1.0, 2.0, 3.0, 4.0]) == 2.0

    def test_median_minimizes_log_mae_among_constants(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sample = 10.0 ** rng.uniform(-4, 4, size=rng.integers(3, 40))
            med = lower_median(sample)
            best = log_mae(sample, np.full(len(sample), med))
            for candidate in np.logspace(-5, 5, 301):
                alt = log_mae(sample, np.full(len(sample), candidate))
                assert best <= alt + 1e-12


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm = confusion(["a", "b", "b"], ["a", "b", "b"], ["a", "b"])
        assert cm.tolist() == [[1, 0], [0, 2]]

    def test_single_error_off_diagonal(self):
        cm = confusion(["a"], ["b"], ["a", "b"])
        assert cm.tolist() == [[0, 1], [0, 0]]

    def test_row_sums_equal_gold_counts(self):
        rng = np.random.default_rng(5)
        gold = list(rng.integers(0, 3, size=100))
        pred = list(rng.integers(0, 3, size=100))
        cm = confusion(gold, pred, [0, 1, 2])
        for c in (0, 1, 2):
            assert cm[c].sum() == gold.count(c)


class TestManhattanHistogram:
    def test_all_correct_mass_at_zero(self, registry):
        dims = [registry.dimension("length")] * 5
        assert manhattan_error_histogram(dims, dims) == {0: 5}

    def test_velocity_confused_with_length(self, registry):
        gold = [registry.dimension("velocity")]
        pred = [registry.dimension("length")]
        assert manhattan_error_histogram(gold, pred) == {1: 1}

    def test_total_counts(self, registry):
        rng = np.random.default_rng(6)
        dims = list(registry.dimensions)
        gold = [dims[i] for i in rng.integers(0, len(dims), size=40)]
        pred = [dims[i] for i in rng.integers(0, len(dims), size=40)]
        hist = manhattan_error_histogram(gold, pred)
        assert sum(hist.values()) == 40


class TestGroupwiseLogMae:
    def test_single_group_equals_global(self, registry, corpus):
        examples = [ex for ex in corpus.test if ex.dimension.name == "length"][:10]
        pred = [ex.canonical_number * 10 for ex in examples]
        table = groupwise_log_mae(examples, pred, "dimension")
        assert set(table) == {"length"}
        assert table["length"] == pytest.approx(
            log_mae([ex.canonical_number for ex in examples], pred)
        )

    def test_two_singleton_groups(self, registry):
        from tests.test_model import make_example

        a = make_example(registry, "a [#NUM] [#UNIT]", 1.0, "m")
        b = make_example(registry, "b [#NUM] [#UNIT]", 1.0, "s")
        table = groupwise_log_mae([a, b], [1.0, 100.0], "dimension")
        assert table["length"] == pytest.approx(0.0)
        assert table["time"] == pytest.approx(2.0)
        assert log_mae([1.0, 1.0], [1.0, 100.0]) == pytest.approx(1.0)

    def test_weighted_recombination_matches_global(self, registry, corpus):
        examples = corpus.test
        rng = np.random.default_rng(7)
        pred = np.array([ex.canonical_number for ex in examples]) * 10 ** rng.normal(
            size=len(examples)
        )
        table = groupwise_log_mae(examples, pred, "unit")
        counts = {}
        for ex in examples:
            counts[ex.unit.name] = counts.get(ex.unit.name, 0) + 1
        recombined = sum(table[u] * counts[u] for u in table) / len(examples)
        global_value = log_mae([ex.canonical_number for ex in examples], pred)
        assert recombined == pytest.approx(global_value, rel=1e-12)


class TestHungarian:
    def brute_force(self, matrix):
        n = matrix.shape[0]
        best, best_perm = -math.inf, None
        for perm in itertools.permutations(range(n)):
            total = sum(matrix[i, perm[i]] for i in range(n))
            if total > best:
                best, best_perm = total, perm
        return best, best_perm

    def test_diagonal_is_identity(self):
        mapping = hungarian_map(np.diag([5, 3, 9]))
        assert mapping.tolist() == [0, 1, 2]

    def test_permuted_diagonal_inverts(self):
        matrix = np.zeros((3, 3), dtype=int)
        perm = [2, 0, 1]
        for i, j in enumerate(perm):
            matrix[i, j] = 7
        assert hungarian_map(matrix).tolist() == perm

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        for _ in range(30):
            matrix = rng.integers(0, 50, size=(n, n))
            mapping = hungarian_map(matrix)
            assert sorted(mapping.tolist()) == list(range(n))  # bijection
            achieved = sum(matrix[i, mapping[i]] for i in range(n))
            best, _ = self.brute_force(matrix)
            assert achieved == best

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            hungarian_map(np.zeros((2, 3)))

    def test_perfectly_permuted_latent_classes_score_one(self):
        """Latent labels that track gold under a relabeling map back to F1 1."""
        rng = np.random.default_rng(8)
        gold = rng.integers(0, 5, size=200)
        perm = np.array([3, 0, 4, 1, 2])
        latent = perm[gold]
        cont = build_contingency(latent, gold, 5)
        assert cont.sum() == 200
        mapping = hungarian_map(cont)
        mapped = mapping[latent]
        assert macro_f1(gold.tolist(), mapped.tolist(), list(range(5))) == 1.0


class TestEvaluate:
    def test_report_structure_joint_unit(self, registry, corpus):
        model = quick_model(registry, corpus, "joint-unit")
        report = evaluate(model, corpus)
        doc = report.to_json_dict()
        assert set(doc["probes"]) >= {"dim", "dim-given-y", "unit", "num"}
        dim = doc["probes"]["dim"]
        assert {"macro_f1", "accuracy", "macro_recall", "confusion",
                "manhattan_histogram"} <= set(dim)
        rows = dim["confusion"]["matrix"]
        gold_counts = {}
        for ex in corpus.test:
            gold_counts[ex.dimension.name] = gold_counts.get(ex.dimension.name, 0) + 1
        for label, row in zip(dim["confusion"]["labels"], rows):
            assert sum(row) == gold_counts.get(label, 0)
        assert sum(dim["manhattan_histogram"].values()) == len(corpus.test)
        num = doc["probes"]["num"]
        assert "log_mae" in num and "group_log_mae" in num
        assert set(num["group_log_mae"]) == {"dimension", "unit"}
        assert doc["probes"]["num-given-gold-unit"]["log_mae"] == pytest.approx(
            gold_column_log_mae(model, corpus.test, "unit"), rel=1e-12
        )
        assert doc["probes"]["unit-given-predicted-dim"]["extension"] is True

    def test_baselines_always_included(self, registry, corpus):
        model = quick_model(registry, corpus, "dim", epochs=2)
        report = evaluate(model, corpus, probes=("dim",))
        base = report.baselines
        assert {"majority_dimension", "majority_unit", "median_number"} <= set(base)
        assert base["median_number"]["log_mae"] > 0

    def test_unsupported_probe_raises(self, registry, corpus):
        model = quick_model(registry, corpus, "dim", epochs=2)
        with pytest.raises(MissingHead):
            evaluate(model, corpus, probes=("num",))
        with pytest.raises(ValueError):
            evaluate(model, corpus, probes=("frequency",))

    def test_latent_dim_report_has_mapping(self, registry, corpus):
        model = quick_model(registry, corpus, "latent-dim", epochs=2)
        report = evaluate(model, corpus, probes=("dim", "num"))
        dim = report.probes["dim"]
        assert "latent_mapping" in dim and "contingency" in dim
        assert np.array(dim["contingency"]).sum() == len(corpus.test)
        mapped = set(dim["latent_mapping"].values())
        assert len(mapped) == len(registry.dimensions)  # a bijection

    @pytest.mark.parametrize("variant", ["dim-number", "joint-unit"])
    def test_dim_given_y_probe_matches_scalar_posterior_loop(
        self, variant, registry, corpus
    ):
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=1024, hidden_dim=10), seed=2)
        model = MeasurementModel(ModelSpec(variant, 10), registry, enc, seed=2)
        section = evaluate(model, corpus, probes=("dim-given-y",)).probes["dim-given-y"]
        pred = []
        for ex in corpus.test:
            h = model.encode(ex.masked_text)
            post = model.posterior_dims(h[None], [ex.canonical_number])[0]
            pred.append(registry.dimensions[int(np.argmax(post))].name)
        labels = section["confusion"]["labels"]
        gold = [ex.dimension.name for ex in corpus.test]
        assert section["confusion"]["matrix"] == confusion(gold, pred, labels).tolist()

    def test_gold_conditioning_included_for_dim_number(self, registry, corpus):
        model = quick_model(registry, corpus, "dim-number", epochs=2)
        report = evaluate(model, corpus, probes=("num",))
        assert report.probes["num-given-gold-dim"]["log_mae"] == pytest.approx(
            gold_column_log_mae(model, corpus.test, "dim"), rel=1e-12
        )
