"""Metrics, baselines, and the probing harness.

Classification tasks report strict macro-F1 (every declared class counts,
even if never predicted), accuracy, and macro-recall side by side; number
prediction reports log-mae, the mean absolute error between base-10
logarithms of predicted and true canonical values, which is invariant to
the choice of canonical unit.

The latent-dimension model is scored by building a contingency matrix of
(latent class, true dimension) counts, solving the maximum-weight
assignment between latent classes and dimensions, and applying that
mapping before computing classification metrics.

The probes a variant answers are part of its :class:`~measured.model.Variant`
record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from measured.data import (
    DatasetSplit,
    MeasurementExample,
    NonPositiveNumber,
    lower_median,
)
from measured.model import MeasurementModel, MissingHead
from measured.units import Dimension, UnitRegistry, manhattan_distance


class LengthMismatch(ValueError):
    """Gold and predicted label sequences have different lengths."""


class NonSquare(ValueError):
    """The contingency matrix must be square."""


def _check_lengths(gold, pred) -> None:
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold labels vs {len(pred)} predictions")


# -- classification metrics -----------------------------------------------------

def confusion(gold, pred, classes) -> np.ndarray:
    """Counts with entry (i, j) = #(gold = classes[i], pred = classes[j])."""
    _check_lengths(gold, pred)
    index = {c: i for i, c in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for g, p in zip(gold, pred):
        matrix[index[g], index[p]] += 1
    return matrix


def macro_f1(gold, pred, classes) -> float:
    """Unweighted mean of per-class F1 over every declared class."""
    cm = confusion(gold, pred, classes)
    tp = np.diag(cm).astype(float)
    gold_counts = cm.sum(axis=1)
    pred_counts = cm.sum(axis=0)
    f1 = np.zeros(len(classes))
    denom = gold_counts + pred_counts
    nonzero = denom > 0
    f1[nonzero] = 2.0 * tp[nonzero] / denom[nonzero]
    return float(f1.mean())


def macro_recall(gold, pred, classes) -> float:
    cm = confusion(gold, pred, classes)
    tp = np.diag(cm).astype(float)
    gold_counts = cm.sum(axis=1)
    recall = np.zeros(len(classes))
    nonzero = gold_counts > 0
    recall[nonzero] = tp[nonzero] / gold_counts[nonzero]
    return float(recall.mean())


def accuracy(gold, pred) -> float:
    _check_lengths(gold, pred)
    if len(gold) == 0:
        return 0.0
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


# -- number metric ----------------------------------------------------------------

def log_mae(gold, pred) -> float:
    """Mean |log10 gold - log10 pred| over positive value pairs."""
    gold = np.asarray(gold, dtype=float)
    pred = np.asarray(pred, dtype=float)
    _check_lengths(gold, pred)
    if np.any(gold <= 0) or np.any(pred <= 0):
        raise NonPositiveNumber("log-mae is defined for positive values only")
    return float(np.mean(np.abs(np.log10(gold) - np.log10(pred))))


def groupwise_log_mae(
    examples: list[MeasurementExample],
    pred,
    group_by: str = "dimension",
) -> dict[str, float]:
    """log-mae restricted to each dimension or unit present in the examples."""
    if group_by not in ("dimension", "unit"):
        raise ValueError("group_by must be 'dimension' or 'unit'")
    _check_lengths(examples, pred)
    groups: dict[str, tuple[list, list]] = {}
    for ex, p in zip(examples, pred):
        key = ex.dimension.name if group_by == "dimension" else ex.unit.name
        gold_list, pred_list = groups.setdefault(key, ([], []))
        gold_list.append(ex.canonical_number)
        pred_list.append(p)
    return {k: log_mae(g, p) for k, (g, p) in sorted(groups.items())}


# -- baselines ---------------------------------------------------------------------

def majority_baseline(train_labels, classes=None):
    """The constant classifier's label: most frequent, ties to lowest index."""
    labels = list(train_labels)
    if not labels:
        raise ValueError("majority baseline needs a non-empty training set")
    if classes is None:
        classes = sorted(set(labels))
    counts = {c: 0 for c in classes}
    for lab in labels:
        counts[lab] += 1
    return max(classes, key=lambda c: (counts[c], -classes.index(c)))


# -- dimension-structure analyses -----------------------------------------------------

def manhattan_error_histogram(
    gold_dims: list[Dimension], pred_dims: list[Dimension]
) -> dict[int, int]:
    """Counts of exponent-vector Manhattan distances, gold vs predicted.

    Distance 0 collects the correct predictions; every example lands in
    exactly one bucket.
    """
    _check_lengths(gold_dims, pred_dims)
    hist: dict[int, int] = {}
    for g, p in zip(gold_dims, pred_dims):
        d = manhattan_distance(g, p)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


# -- latent-class assignment -----------------------------------------------------------

def build_contingency(
    latent: np.ndarray, gold: np.ndarray, n_classes: int
) -> np.ndarray:
    """Co-occurrence counts, rows = latent classes, columns = true classes."""
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    for l, g in zip(latent, gold):
        matrix[int(l), int(g)] += 1
    return matrix


def hungarian_map(contingency: np.ndarray) -> np.ndarray:
    """Bijection latent class -> true class maximizing matched counts.

    ``mapping[latent_index] = true_index``, solved by
    ``scipy.optimize.linear_sum_assignment``.  When several bijections tie
    for the maximum, which one is returned is the solver's choice, and it
    may differ from the hand-written solver this replaced.
    """
    # imported here: scipy.optimize adds ~27 MB to every process that loads
    # it, and only the latent-dimension probe needs it
    from scipy.optimize import linear_sum_assignment

    matrix = np.asarray(contingency, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NonSquare(f"contingency matrix must be square, got {matrix.shape}")
    _, cols = linear_sum_assignment(matrix, maximize=True)
    return cols.astype(np.int64)


# -- the evaluation harness --------------------------------------------------------------

PROBES = ("dim", "dim-given-y", "unit", "num")


@dataclass
class EvalReport:
    """Per-probe metrics plus the always-included baselines."""

    variant: str
    n_train: int
    n_test: int
    probes: dict = field(default_factory=dict)
    baselines: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "probes": self.probes,
            "baselines": self.baselines,
        }


def _classification_section(gold_names, pred_names, ordered_classes) -> dict:
    observed = set(gold_names) | set(pred_names)
    classes = [c for c in ordered_classes if c in observed]
    cm = confusion(gold_names, pred_names, classes)
    return {
        "macro_f1": macro_f1(gold_names, pred_names, classes),
        "accuracy": accuracy(gold_names, pred_names),
        "macro_recall": macro_recall(gold_names, pred_names, classes),
        "confusion": {"labels": classes, "matrix": cm.tolist()},
    }


def baselines(split: DatasetSplit, registry: UnitRegistry) -> dict:
    """The constant predictors fit on the train split, scored on the test split.

    Majority class for dimension and unit, training lower median for the number.
    """
    report = {}
    for key, classes, label in (
        ("majority_dimension", registry.dimensions, attrgetter("dimension.name")),
        ("majority_unit", registry.units, attrgetter("unit.name")),
    ):
        order = [c.name for c in classes]
        majority = majority_baseline([label(ex) for ex in split.train], order)
        gold = [label(ex) for ex in split.test]
        section = _classification_section(gold, [majority] * len(gold), order)
        report[key] = {"label": majority, **section}
    median = lower_median([ex.canonical_number for ex in split.train])
    gold = [ex.canonical_number for ex in split.test]
    report["median_number"] = {
        "value": median,
        "log_mae": log_mae(gold, np.full(len(gold), median)),
    }
    return report


def evaluate(
    model: MeasurementModel,
    split: DatasetSplit,
    probes: tuple[str, ...] | None = None,
) -> EvalReport:
    """Run the requested probes on the test split.

    The :func:`baselines` are always reported.  Asking for a probe the
    variant cannot answer raises :class:`MissingHead`.
    """
    variant = model.spec.variant
    record = model.spec.record
    if probes is None:
        probes = record.probes
    for probe in probes:
        if probe not in PROBES:
            raise ValueError(f"unknown probe {probe!r}")
        if probe not in record.probes:
            raise MissingHead(f"variant {variant!r} cannot answer probe {probe!r}")

    reg = model.registry
    test = list(split.test)
    if not test:
        raise ValueError("test split is empty")
    report = EvalReport(variant, len(split.train), len(test))
    report.baselines = baselines(split, reg)

    dim_order = [d.name for d in reg.dimensions]
    unit_order = [u.name for u in reg.units]
    gold_dim_names = [ex.dimension.name for ex in test]
    gold_unit_names = [ex.unit.name for ex in test]
    gold_numbers = np.array([ex.canonical_number for ex in test])

    X = model.encoder.feature_matrix([ex.masked_text for ex in test])
    H = model.encoder.encode_matrix(X)
    gold_di = np.array([reg.dimension_index(ex.dimension) for ex in test])

    def dim_section(pred_indices, extra=None) -> dict:
        pred_names = [reg.dimensions[int(i)].name for i in pred_indices]
        section = _classification_section(gold_dim_names, pred_names, dim_order)
        hist = manhattan_error_histogram(
            [ex.dimension for ex in test],
            [reg.dimensions[int(i)] for i in pred_indices],
        )
        section["manhattan_histogram"] = {str(k): v for k, v in hist.items()}
        if extra:
            section.update(extra)
        return section

    if "dim" in probes:
        if record.number == "mixture":  # the dimension is latent
            latent = model.argmax_dimension_indices(H)
            cont = build_contingency(latent, gold_di, len(reg.dimensions))
            mapping = hungarian_map(cont)
            mapped = mapping[latent]
            report.probes["dim"] = dim_section(
                mapped,
                extra={
                    "contingency": cont.tolist(),
                    "latent_mapping": {
                        str(i): reg.dimensions[int(m)].name
                        for i, m in enumerate(mapping)
                    },
                },
            )
        else:
            report.probes["dim"] = dim_section(model.argmax_dimension_indices(H))

    if "dim-given-y" in probes:
        pred = np.argmax(model.posterior_dims(H, gold_numbers), axis=1)
        report.probes["dim-given-y"] = dim_section(pred)

    if "unit" in probes:
        pred_gold_cond = model.argmax_unit_indices_given(H, gold_di)
        pred_names = [reg.units[int(i)].name for i in pred_gold_cond]
        section = _classification_section(gold_unit_names, pred_names, unit_order)
        per_dim = {}
        for di in np.unique(gold_di):
            rows = np.nonzero(gold_di == di)[0]
            dim_name = reg.dimensions[int(di)].name
            members = [u.name for u in reg.units_of(dim_name)]
            cm = confusion(
                [gold_unit_names[i] for i in rows],
                [pred_names[i] for i in rows],
                members,
            )
            per_dim[dim_name] = {"labels": members, "matrix": cm.tolist()}
        section["confusion_by_dimension"] = per_dim
        report.probes["unit"] = section

        if "D" in record.heads:
            pred_di = model.argmax_dimension_indices(H)
            pred_pred_cond = model.argmax_unit_indices_given(H, pred_di)
            section = _classification_section(
                gold_unit_names,
                [reg.units[int(i)].name for i in pred_pred_cond],
                unit_order,
            )
            section["extension"] = True  # not a paper probe: end-to-end pipeline
            report.probes["unit-given-predicted-dim"] = section

    if "num" in probes:
        pred = model.predict_number_batch(H)
        report.probes["num"] = {
            "log_mae": log_mae(gold_numbers, pred),
            "group_log_mae": {
                "dimension": groupwise_log_mae(test, pred, "dimension"),
                "unit": groupwise_log_mae(test, pred, "unit"),
            },
        }
        given = {"per-dim": "dim", "per-unit": "unit"}.get(record.number)
        if given:
            gold_ui = np.array([reg.unit_index(ex.unit) for ex in test])
            cols = model._columns_given(gold_di, gold_ui)
            gold_cond = 10.0 ** model.number_locations(H)[np.arange(len(test)), cols]
            report.probes[f"num-given-gold-{given}"] = {
                "log_mae": log_mae(gold_numbers, gold_cond)
            }

    return report
