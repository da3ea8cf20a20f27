"""Metrics, baselines, and the probing harness.

Classification tasks report macro-F1 and macro-recall, each averaged over
the classes that occur as gold or as a prediction, and accuracy; number
prediction reports log-mae, the mean absolute error between base-10
logarithms of predicted and true canonical values, which is invariant to
the choice of canonical unit.

Scoring works in class ids, the registry's dimension and unit indices, and
reads gold ids and numbers from :func:`~measured.model.batch_arrays`.
Each classification section counts one confusion matrix with
:func:`counts` and reads everything from it: the scores, the table of the
classes that occur, the Manhattan histogram of dimension errors, and the
per-dimension unit tables.  Grouped log-mae selects each class's examples
by id.  Class names appear only where the report is written.

The latent-dimension model is scored by counting a contingency matrix of
(latent class, true dimension) pairs, solving the maximum-weight
assignment between latent classes and dimensions, and applying that
mapping before computing classification metrics.

The probes a variant answers are part of its :class:`~measured.model.Variant`
record.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from measured.data import DatasetSplit, NonPositiveNumber, lower_median
from measured.model import BatchArrays, MeasurementModel, MissingHead, batch_arrays
from measured.units import UnitRegistry, manhattan_distance


class LengthMismatch(ValueError):
    """Gold and predicted label sequences have different lengths."""


class NonSquare(ValueError):
    """The contingency matrix must be square."""


def _check_lengths(gold, pred) -> None:
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold labels vs {len(pred)} predictions")


# -- classification metrics -----------------------------------------------------

def counts(rows, cols, n: int) -> np.ndarray:
    """(n, n) pair counts over class ids: entry (i, j) = #(rows = i, cols = j)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    _check_lengths(rows, cols)
    return np.bincount(rows * n + cols, minlength=n * n).reshape(n, n)


def _f1(cm: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """Per-class F1 of a confusion matrix; 0 for a class that never occurs."""
    denom = cm.sum(axis=1) + cm.sum(axis=0)
    f1 = np.zeros(len(cm))
    nonzero = denom > 0
    f1[nonzero] = 2.0 * tp[nonzero] / denom[nonzero]
    return f1


def class_section(cm: np.ndarray, names) -> dict:
    """Macro-F1, accuracy and macro-recall of a confusion matrix, and its table.

    The macro means and the table cover the classes that occur as gold or
    prediction; ``names[i]`` labels class id ``i``.
    """
    tp = np.diag(cm).astype(float)
    gold = cm.sum(axis=1)
    seen = np.flatnonzero(gold + cm.sum(axis=0))
    recall = np.zeros(len(cm))
    recall[gold > 0] = tp[gold > 0] / gold[gold > 0]
    return {
        "macro_f1": float(_f1(cm, tp)[seen].mean()),
        "accuracy": int(np.trace(cm)) / int(gold.sum()),
        "macro_recall": float(recall[seen].mean()),
        "confusion": {
            "labels": [names[i] for i in seen],
            "matrix": cm[np.ix_(seen, seen)].tolist(),
        },
    }


def dimension_section(gold, pred, registry: UnitRegistry) -> dict:
    """A dimension probe's section plus its Manhattan error histogram.

    The histogram counts exponent-vector Manhattan distances between gold
    and predicted dimensions; distance 0 collects the correct predictions.
    """
    dims = registry.dimensions
    cm = counts(gold, pred, len(dims))
    distance = np.array([[manhattan_distance(g, p) for p in dims] for g in dims])
    section = class_section(cm, [d.name for d in dims])
    section["manhattan_histogram"] = {
        str(d): int(cm[distance == d].sum()) for d in np.unique(distance[cm > 0])
    }
    return section


def unit_section(gold_dims, gold, pred, registry: UnitRegistry) -> dict:
    """A unit probe's section plus one unit table per gold dimension.

    Each table is the block of the unit matrix over the dimension's units;
    the predictions must lie in each example's gold dimension.
    """
    names = [u.name for u in registry.units]
    cm = counts(gold, pred, len(names))
    section = class_section(cm, names)
    tables = {}
    for di in np.unique(gold_dims):
        dim = registry.dimensions[di]
        members = [registry.unit_index(u) for u in registry.units_of(dim)]
        tables[dim.name] = {
            "labels": [names[i] for i in members],
            "matrix": cm[np.ix_(members, members)].tolist(),
        }
    section["confusion_by_dimension"] = tables
    return section


# -- number metric ----------------------------------------------------------------

def log_mae(gold, pred) -> float:
    """Mean |log10 gold - log10 pred| over positive value pairs."""
    gold = np.asarray(gold, dtype=float)
    pred = np.asarray(pred, dtype=float)
    _check_lengths(gold, pred)
    if np.any(gold <= 0) or np.any(pred <= 0):
        raise NonPositiveNumber("log-mae is defined for positive values only")
    return float(np.mean(np.abs(np.log10(gold) - np.log10(pred))))


def group_log_mae(gold, pred, ids, names) -> dict[str, float]:
    """log-mae of each class present in ``ids``, keyed by name in name order."""
    present = sorted(np.unique(ids), key=lambda i: names[i])
    return {names[i]: log_mae(gold[ids == i], pred[ids == i]) for i in present}


# -- latent-class assignment -----------------------------------------------------------

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
        return asdict(self)


def baselines(split: DatasetSplit, registry: UnitRegistry) -> dict:
    """The constant predictors fit on the train split, scored on the test split.

    Majority class for dimension and unit (ties to the lowest index),
    training lower median for the number.
    """
    return _baselines(split, batch_arrays(registry, split.test), registry)


def _baselines(split: DatasetSplit, test: BatchArrays, registry: UnitRegistry) -> dict:
    """:func:`baselines` scored on ``test``, the arrays of the test split."""
    if not split.test:
        raise ValueError("test split is empty")
    if not split.train:
        raise ValueError("majority baseline needs a non-empty training set")
    train = batch_arrays(registry, split.train)
    report = {}
    for key, classes, train_ids, gold in (
        ("majority_dimension", registry.dimensions, train.dim_index, test.dim_index),
        ("majority_unit", registry.units, train.unit_index, test.unit_index),
    ):
        n = len(classes)
        majority = int(np.argmax(np.bincount(train_ids, minlength=n)))
        cm = counts(gold, np.full(len(gold), majority), n)
        section = class_section(cm, [c.name for c in classes])
        report[key] = {"label": classes[majority].name, **section}
    median = float(lower_median(train.canonical_number))
    gold = test.canonical_number
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
    report = EvalReport(variant, len(split.train), len(test))
    arrays = batch_arrays(reg, test)
    report.baselines = _baselines(split, arrays, reg)

    dim_names = [d.name for d in reg.dimensions]
    unit_names = [u.name for u in reg.units]
    gold_di, gold_ui = arrays.dim_index, arrays.unit_index
    gold_numbers = arrays.canonical_number
    X = model.encoder.feature_matrix([ex.masked_text for ex in test])
    out = model.outputs(model.encoder.encode_matrix(X))

    if "dim" in probes:
        pred = model.argmax_dimension_indices(out)
        if record.latent:  # map latent classes to gold ones before scoring
            cont = counts(pred, gold_di, len(dim_names))
            mapping = hungarian_map(cont)
            section = dimension_section(gold_di, mapping[pred], reg)
            section["contingency"] = cont.tolist()
            section["latent_mapping"] = {
                str(i): dim_names[m] for i, m in enumerate(mapping)
            }
        else:
            section = dimension_section(gold_di, pred, reg)
        report.probes["dim"] = section

    if "dim-given-y" in probes:
        pred = np.argmax(model.posterior_dims(out, gold_numbers), axis=1)
        report.probes["dim-given-y"] = dimension_section(gold_di, pred, reg)

    if "unit" in probes:
        pred = model.argmax_unit_indices_given(out, gold_di)
        report.probes["unit"] = unit_section(gold_di, gold_ui, pred, reg)
        if "D" in record.heads:
            pred = model.argmax_unit_indices_given(
                out, model.argmax_dimension_indices(out)
            )
            section = class_section(counts(gold_ui, pred, len(unit_names)), unit_names)
            section["extension"] = True  # not a paper probe: end-to-end pipeline
            report.probes["unit-given-predicted-dim"] = section

    if "num" in probes:
        pred = model.predict_number_batch(out)
        report.probes["num"] = {
            "log_mae": log_mae(gold_numbers, pred),
            "group_log_mae": {
                "dimension": group_log_mae(gold_numbers, pred, gold_di, dim_names),
                "unit": group_log_mae(gold_numbers, pred, gold_ui, unit_names),
            },
        }
        if record.given and not record.latent:
            cols = model._columns_given(gold_di, gold_ui)
            gold_cond = 10.0 ** out.number[np.arange(len(test)), cols]
            report.probes[f"num-given-gold-{record.given}"] = {
                "log_mae": log_mae(gold_numbers, gold_cond)
            }

    return report
