import itertools
import math
from collections import Counter

import numpy as np
import pytest

from measured.data import (
    DatasetSplit,
    NonPositiveNumber,
    ingest,
    lower_median,
    split,
)
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.evaluation import (
    LengthMismatch,
    NonSquare,
    baselines,
    class_section,
    counts,
    dimension_section,
    evaluate,
    group_log_mae,
    hungarian_map,
    log_mae,
    unit_section,
)
from measured.model import MeasurementModel, MissingHead, ModelSpec
from measured.synth import SynthConfig, generate_records
from measured.training import TrainConfig, train
from measured.units import manhattan_distance, parse_registry
from tests.test_model import make_example

LENGTH_THEN_TIME = """
dim length L1 M0 T0 I0 Θ0 N0 J0
dim time L0 M0 T1 I0 Θ0 N0 J0
unit m length scale=1 offset=0
unit s time scale=1 offset=0
"""
TIME_THEN_LENGTH = """
dim time L0 M0 T1 I0 Θ0 N0 J0
dim length L1 M0 T0 I0 Θ0 N0 J0
unit s time scale=1 offset=0
unit m length scale=1 offset=0
"""


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


def section_macro_f1(gold, pred, n):
    """``class_section``'s macro-F1 of gold and predicted ids in [0, n)."""
    return class_section(counts(gold, pred, n), list(range(n)))["macro_f1"]


class TestMacroF1:
    def test_perfect(self):
        assert section_macro_f1([0, 1, 0], [0, 1, 0], 2) == 1.0

    def test_all_wrong_single_class_on_balanced_pair(self):
        assert section_macro_f1([0, 1, 0, 1], [1, 0, 1, 0], 2) == 0.0

    def test_three_class_hand_oracle(self):
        """Precision/recall worked out by hand from the confusion matrix."""
        gold = [0, 0, 1, 1, 2, 2]
        pred = [0, 1, 1, 1, 0, 2]
        # class 0: tp=1 fp=1 fn=1 -> P=R=1/2, F1=1/2
        # class 1: tp=2 fp=1 fn=0 -> P=2/3, R=1, F1=4/5
        # class 2: tp=1 fp=0 fn=1 -> P=1, R=1/2, F1=2/3
        expected = (0.5 + 0.8 + 2.0 / 3.0) / 3.0
        assert section_macro_f1(gold, pred, 3) == pytest.approx(expected)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        gold = rng.integers(0, 4, size=60)
        pred = rng.integers(0, 4, size=60)
        relabel = np.array([2, 0, 3, 1])
        assert section_macro_f1(relabel[gold], relabel[pred], 4) == pytest.approx(
            section_macro_f1(gold, pred, 4)
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            counts([0], [0, 1], 2)


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


def unit_split(registry, train_units, test_units=("m",)):
    """A split of examples with number 1 in the given units."""
    def examples(units):
        return [make_example(registry, "a [#NUM] [#UNIT]", 1.0, u) for u in units]
    return DatasetSplit(examples(train_units), [], examples(test_units), 0)


class TestBaselines:
    def test_majority_simple(self, registry):
        base = baselines(unit_split(registry, ["m", "m", "m", "s", "s"]), registry)
        assert base["majority_dimension"]["label"] == "length"
        assert base["majority_unit"]["label"] == "m"
        assert base["majority_dimension"]["accuracy"] == 1.0

    def test_majority_tie_takes_lowest_class_index(self):
        for text, label in ((LENGTH_THEN_TIME, "length"), (TIME_THEN_LENGTH, "time")):
            reg = parse_registry(text)
            base = baselines(unit_split(reg, ["s", "m"]), reg)
            assert base["majority_dimension"]["label"] == label

    def test_empty_split_refused(self, registry):
        with pytest.raises(ValueError, match="non-empty training set"):
            baselines(unit_split(registry, []), registry)
        with pytest.raises(ValueError, match="test split is empty"):
            baselines(unit_split(registry, ["m"], []), registry)

    def test_matches_per_example_label_loop(self, registry, corpus):
        """The id-based baselines against a loop over class names and numbers."""
        base = baselines(corpus, registry)
        for key, classes, label in (
            ("majority_dimension", registry.dimensions, lambda ex: ex.dimension.name),
            ("majority_unit", registry.units, lambda ex: ex.unit.name),
        ):
            order = [c.name for c in classes]
            train_labels = [label(ex) for ex in corpus.train]
            majority = max(order, key=train_labels.count)  # first of the tied
            gold = [label(ex) for ex in corpus.test]
            expected = label_section(gold, [majority] * len(gold), order)
            assert base[key]["label"] == majority
            assert base[key]["confusion"] == expected["confusion"]
            for score in ("macro_f1", "accuracy", "macro_recall"):
                assert base[key][score] == pytest.approx(expected[score], rel=1e-12)
        numbers = sorted(ex.canonical_number for ex in corpus.train)
        median = numbers[(len(numbers) - 1) // 2]
        errors = [
            abs(math.log10(ex.canonical_number) - math.log10(median))
            for ex in corpus.test
        ]
        assert type(base["median_number"]["value"]) is float
        assert base["median_number"]["value"] == median
        assert base["median_number"]["log_mae"] == pytest.approx(
            sum(errors) / len(errors), rel=1e-12
        )

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
        assert counts([0, 1, 1], [0, 1, 1], 2).tolist() == [[1, 0], [0, 2]]

    def test_single_error_off_diagonal(self):
        assert counts([0], [1], 2).tolist() == [[0, 1], [0, 0]]

    def test_row_sums_equal_gold_counts(self):
        rng = np.random.default_rng(5)
        gold = list(rng.integers(0, 3, size=100))
        pred = list(rng.integers(0, 3, size=100))
        cm = counts(gold, pred, 3)
        for c in (0, 1, 2):
            assert cm[c].sum() == gold.count(c)


def histogram(registry, gold, pred):
    return dimension_section(gold, pred, registry)["manhattan_histogram"]


class TestManhattanHistogram:
    def test_all_correct_mass_at_zero(self, registry):
        length = registry.dimension_index("length")
        assert histogram(registry, [length] * 5, [length] * 5) == {"0": 5}

    def test_velocity_confused_with_length(self, registry):
        gold = [registry.dimension_index("velocity")]
        pred = [registry.dimension_index("length")]
        assert histogram(registry, gold, pred) == {"1": 1}

    def test_total_counts(self, registry):
        rng = np.random.default_rng(6)
        n = len(registry.dimensions)
        gold = rng.integers(0, n, size=40)
        pred = rng.integers(0, n, size=40)
        assert sum(histogram(registry, gold, pred).values()) == 40


def number_arrays(registry, examples, pred):
    """Gold numbers, predictions and dimension and unit ids of the examples."""
    return (
        np.array([ex.canonical_number for ex in examples]),
        np.asarray(pred, dtype=float),
        np.array([registry.dimension_index(ex.dimension) for ex in examples]),
        np.array([registry.unit_index(ex.unit) for ex in examples]),
    )


class TestGroupwiseLogMae:
    def test_single_group_equals_global(self, registry, corpus):
        examples = [ex for ex in corpus.test if ex.dimension.name == "length"][:10]
        pred = [ex.canonical_number * 10 for ex in examples]
        gold, pred, dims, _ = number_arrays(registry, examples, pred)
        table = group_log_mae(gold, pred, dims, [d.name for d in registry.dimensions])
        assert set(table) == {"length"}
        assert table["length"] == pytest.approx(log_mae(gold, pred))

    def test_two_singleton_groups(self, registry):
        a = make_example(registry, "a [#NUM] [#UNIT]", 1.0, "m")
        b = make_example(registry, "b [#NUM] [#UNIT]", 1.0, "s")
        gold, pred, dims, _ = number_arrays(registry, [a, b], [1.0, 100.0])
        table = group_log_mae(gold, pred, dims, [d.name for d in registry.dimensions])
        assert table["length"] == pytest.approx(0.0)
        assert table["time"] == pytest.approx(2.0)
        assert log_mae([1.0, 1.0], [1.0, 100.0]) == pytest.approx(1.0)

    def test_weighted_recombination_matches_global(self, registry, corpus):
        examples = corpus.test
        rng = np.random.default_rng(7)
        pred = np.array([ex.canonical_number for ex in examples]) * 10 ** rng.normal(
            size=len(examples)
        )
        gold, pred, _, units = number_arrays(registry, examples, pred)
        table = group_log_mae(gold, pred, units, [u.name for u in registry.units])
        sizes = Counter(ex.unit.name for ex in examples)
        recombined = sum(table[u] * sizes[u] for u in table) / len(examples)
        assert recombined == pytest.approx(log_mae(gold, pred), rel=1e-12)


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
        cont = counts(latent, gold, 5)
        assert cont.sum() == 200
        mapping = hungarian_map(cont)
        mapped = mapping[latent]
        assert section_macro_f1(gold, mapped, 5) == 1.0


def label_section(gold, pred, order):
    """Per-example loop over labels: scores and table of the classes that occur."""
    classes = [c for c in order if c in set(gold) | set(pred)]
    pairs = list(zip(gold, pred))
    f1, recall = [], []
    for c in classes:
        tp = pairs.count((c, c))
        f1.append(2 * tp / (gold.count(c) + pred.count(c)))
        recall.append(tp / gold.count(c) if c in gold else 0.0)
    return {
        "macro_f1": sum(f1) / len(f1),
        "accuracy": sum(g == p for g, p in pairs) / len(pairs),
        "macro_recall": sum(recall) / len(recall),
        "confusion": {
            "labels": classes,
            "matrix": [[pairs.count((a, b)) for b in classes] for a in classes],
        },
    }


class TestIdSectionsMatchLabelLoop:
    """The id-based sections against per-example loops over class names.

    Gold ids come from the lower classes and predictions from the upper
    ones, so some declared classes are absent and some only predicted.
    """

    @pytest.fixture(params=[0, 1, 2])
    def rng(self, request):
        return np.random.default_rng(request.param)

    def check(self, section, gold, pred, order):
        expected = label_section(gold, pred, order)
        assert section["confusion"] == expected["confusion"]
        for key in ("macro_f1", "accuracy", "macro_recall"):
            assert section[key] == pytest.approx(expected[key], rel=1e-12), key

    def test_dimension_section(self, registry, rng):
        dims = registry.dimensions
        gold = rng.integers(0, 4, size=80)
        pred = rng.integers(2, 6, size=80)
        section = dimension_section(gold, pred, registry)
        gold_dims = [dims[i] for i in gold]
        pred_dims = [dims[i] for i in pred]
        names = [d.name for d in dims]
        gold_names = [d.name for d in gold_dims]
        self.check(section, gold_names, [d.name for d in pred_dims], names)
        labels = section["confusion"]["labels"]
        assert names[5] in labels and names[len(dims) - 1] not in labels
        distances = Counter(map(manhattan_distance, gold_dims, pred_dims))
        assert section["manhattan_histogram"] == {
            str(d): c for d, c in sorted(distances.items())
        }

    def test_unit_section(self, registry, rng):
        dims, units = registry.dimensions, registry.units
        gold_dims = rng.integers(0, 4, size=80)
        gold, pred = [], []  # predictions stay within the gold dimension
        for di in gold_dims:
            members = [registry.unit_index(u) for u in registry.units_of(dims[di])]
            gold.append(rng.choice(members[:2]))
            pred.append(rng.choice(members))
        section = unit_section(gold_dims, gold, pred, registry)
        gold_names = [units[i].name for i in gold]
        pred_names = [units[i].name for i in pred]
        self.check(section, gold_names, pred_names, [u.name for u in units])
        tables = {}
        for dim in dims:
            rows = [i for i, di in enumerate(gold_dims) if dims[di] == dim]
            if rows:
                members = [u.name for u in registry.units_of(dim)]
                tables[dim.name] = {
                    "labels": members,
                    "matrix": [
                        [sum(gold_names[i] == a and pred_names[i] == b for i in rows)
                         for b in members]
                        for a in members
                    ],
                }
        assert section["confusion_by_dimension"] == tables
        assert list(section["confusion_by_dimension"]) == list(tables)

    def test_group_log_mae(self, registry, rng):
        units = [u.name for u in registry.units]
        ids = rng.integers(0, len(units) // 2, size=80)
        gold = 10.0 ** rng.uniform(-3, 3, size=80)
        pred = 10.0 ** rng.uniform(-3, 3, size=80)
        groups = {}
        for i, g, p in zip(ids, gold, pred):
            gold_list, pred_list = groups.setdefault(units[i], ([], []))
            gold_list.append(g)
            pred_list.append(p)
        table = group_log_mae(gold, pred, ids, units)
        assert list(table) == sorted(groups)
        assert table == {k: log_mae(g, p) for k, (g, p) in groups.items()}

    def test_contingency_rows_are_latent_classes(self, rng):
        latent = rng.integers(0, 5, size=60)
        gold = rng.integers(1, 6, size=60)
        cont = counts(latent, gold, 6)
        for i, j in itertools.product(range(6), repeat=2):
            assert cont[i, j] == sum(l == i and g == j for l, g in zip(latent, gold))


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

    def test_one_label_pass_over_the_test_split(self, registry, corpus, monkeypatch):
        from measured import evaluation

        model = quick_model(registry, corpus, "joint", epochs=1)
        passes = []
        real = evaluation.batch_arrays

        def spy(reg, examples):
            passes.append(len(examples))
            return real(reg, examples)

        monkeypatch.setattr(evaluation, "batch_arrays", spy)
        report = evaluate(model, corpus)
        assert sorted(passes) == sorted([len(corpus.train), len(corpus.test)])
        assert report.baselines == baselines(corpus, registry)

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
            out = model.outputs(h[None])
            post = model.posterior_dims(out, [ex.canonical_number])[0]
            pred.append(registry.dimensions[int(np.argmax(post))].name)
        gold = [ex.dimension.name for ex in corpus.test]
        names = [d.name for d in registry.dimensions]
        assert section["confusion"] == label_section(gold, pred, names)["confusion"]

    def test_gold_conditioning_included_for_dim_number(self, registry, corpus):
        model = quick_model(registry, corpus, "dim-number", epochs=2)
        report = evaluate(model, corpus, probes=("num",))
        assert report.probes["num-given-gold-dim"]["log_mae"] == pytest.approx(
            gold_column_log_mae(model, corpus.test, "dim"), rel=1e-12
        )
