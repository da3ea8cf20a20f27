"""Mini-batch gradient training for every model variant.

Each training step is one call of :func:`gradients`: the loss and its head
gradients come from the model's one batched loss,
``measured.model._forward_backward``, plus the encoder projection's
gradient when the encoder trains.  Backpropagation through the linear
heads and the encoder projection is analytic: softmax cross-entropy, the
masked unit softmax, the L1 number loss (subgradient 0 at the kink), and
the latent-dimension log-sum-exp mixture all have closed-form gradients,
checked against central finite differences in the test suite.

The optimizer is AdamW with decoupled weight decay and a linear learning
rate warmup.  The encoder projection ``W_S`` is updated lazily, as in
LazyAdam or ``torch.optim.SparseAdam``: a batch touches only the rows of
its hashed n-gram buckets, and only rows with a nonzero gradient get the
Adam step, their moments updated and weight decay.  The projection
gradient names its rows, so the step reads only those.  Untouched rows keep
their values and moments, so they get no decay and no drift on stale
momentum; the heads take the dense step.  Early stopping watches the
variant's validation metric and restores the parameters of the best
epoch, not the last.  A non-finite batch loss or validation metric stops
training with :class:`NonFiniteLoss`.  Given the same config, seeds, and
data, training gives the same bits on one host with one numpy and BLAS
build, at any BLAS thread count.  They change with the BLAS kernel: one
``joint`` config trained different parameters under OpenBLAS's Haswell,
Sandybridge and Prescott kernels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from measured import evaluation
from measured.data import DatasetSplit
from measured.encoding import _small_page_zeros
from measured.model import (
    VARIANT_RECORDS,
    BatchArrays,
    MeasurementModel,
    _forward_backward,
    batch_arrays,
)
from measured.seeding import stream_rng


class ShapeMismatch(ValueError):
    """Gradient and parameter arrays disagree in shape."""


class AllZeroCounts(ValueError):
    """Class weighting needs at least one observed example."""


class NonFiniteLoss(RuntimeError):
    """A batch loss or the validation metric became NaN or infinite."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.

    ``learning_rate``, ``weighting``, and ``selection_metric`` default to
    ``None`` meaning "resolve automatically": frozen encoders get the
    higher rate 1e-3 and log-frequency class weighting, unfrozen ones get
    1e-4 and uniform weights; the selection metric is the variant
    record's ``selection_metric`` (macro-F1 for pure classifiers, log-mae
    for the pure number model, joint NLL otherwise).  Adam's ``betas`` and
    ``eps`` are :class:`AdamWState` constants.
    """

    batch_size: int = 200
    max_epochs: int = 100
    learning_rate: float | None = None
    warmup_steps: int = 500
    patience: int = 5
    seed: int = 0
    weighting: str | None = None  # "uniform" | "log-frequency"
    selection_metric: str | None = None  # "joint-nll" | "macro-f1" | "log-mae"
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, patience must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        lr, wd = self.learning_rate, self.weight_decay
        if lr is not None and not 0 < lr < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {lr!r}")
        if not 0 <= wd < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {wd!r}")
        if self.weighting not in (None, "uniform", "log-frequency"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.selection_metric not in (None, "joint-nll", "macro-f1", "log-mae"):
            raise ValueError(f"unknown selection metric {self.selection_metric!r}")

    def resolve(self, frozen: bool, variant: str) -> "TrainConfig":
        """Fill the automatic fields for a concrete model; a selection metric
        the variant cannot compute raises ``ValueError`` before training."""
        lr = self.learning_rate if self.learning_rate is not None else (
            1e-3 if frozen else 1e-4
        )
        weighting = self.weighting if self.weighting is not None else (
            "log-frequency" if frozen else "uniform"
        )
        record = VARIANT_RECORDS[variant]
        metric = self.selection_metric or record.selection_metric
        if metric == "macro-f1" and ("D" not in record.heads or record.latent):
            raise ValueError(f"variant {variant!r} has no supervised D for macro-f1")
        if metric == "log-mae" and "Y" not in record.heads:
            raise ValueError(f"variant {variant!r} has no number head for log-mae")
        return replace(
            self, learning_rate=lr, weighting=weighting, selection_metric=metric
        )


# higher is better only for macro-f1
_MAXIMIZE = {"macro-f1"}
# rows per gather-update-scatter block of a lazy step: 128 KB temporaries at
# M = 256, which stay in cache where whole-batch ones are faulted in fresh
_ROW_BLOCK = 64


def class_weights(counts: np.ndarray) -> np.ndarray:
    """Log-frequency weights ``1 / ln(e + n)`` normalized to mean 1.

    Monotone decreasing in the count, so empty classes get the maximum
    weight automatically.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0 or not np.any(counts > 0):
        raise AllZeroCounts("all class counts are zero")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    w = 1.0 / np.log(math.e + counts)
    return w * (len(w) / w.sum())


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear warmup to the base rate, constant afterwards (step >= 1)."""
    if step < 1:
        raise ValueError("steps are 1-based")
    base = config.learning_rate
    if base is None:
        raise ValueError("resolve() the config before scheduling")
    if config.warmup_steps <= 0:
        return base
    return base * min(1.0, step / config.warmup_steps)


@dataclass
class AdamWState:
    """First/second moment accumulators plus the shared step counter.

    Parameters named in ``row_sparse`` are updated lazily: a step touches
    only the rows where the gradient is nonzero, so the other rows keep
    their values and moments, with no weight decay and no drift on stale
    momentum.  A touched row gets exactly the dense step's arithmetic.
    :func:`adamw_step` says where the rows come from.
    """

    betas: ClassVar[tuple[float, float]] = (0.9, 0.999)
    eps: ClassVar[float] = 1e-8
    weight_decay: float = 0.01
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    row_sparse: frozenset[str] = frozenset()


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
) -> dict[str, np.ndarray]:
    """One decoupled-weight-decay Adam update, in place; returns ``params``.

    A ``row_sparse`` parameter steps the rows of its gradient's ``rows``
    list (see :class:`measured.encoding.RowGradient`) whose gradient is not
    all zero, and reads no other row.  A plain array, or one derived from a
    projection gradient, has no list and is scanned whole for nonzero rows.
    The rows are stepped ``_ROW_BLOCK`` at a time; every operation is
    elementwise, so that is bit-identical to one whole-batch update.
    """
    state.step += 1
    b1, b2 = state.betas
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step

    def update(p, g, m, v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * ((m / bc1) / (np.sqrt(v / bc2) + state.eps))
        if state.weight_decay:
            p -= lr * state.weight_decay * p

    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatch(
                f"grad {name} has shape {g.shape}, param has {p.shape}"
            )
        if name not in state.m:
            # unlike zeros_like, which writes every page, these map fresh
            # zero pages, so rows a lazy update never touches are not written
            zeros = _small_page_zeros if name in state.row_sparse else np.zeros
            state.m[name] = zeros(p.shape, p.dtype)
            state.v[name] = zeros(p.shape, p.dtype)
        m, v = state.m[name], state.v[name]
        if name in state.row_sparse:
            hint = getattr(g, "rows", None)
            if hint is None:
                rows = np.flatnonzero(g.any(axis=1))
            else:
                rows = hint[g[hint].any(axis=1)]
            for start in range(0, len(rows), _ROW_BLOCK):
                block = rows[start : start + _ROW_BLOCK]
                p_rows, m_rows, v_rows = p[block], m[block], v[block]
                update(p_rows, g[block], m_rows, v_rows)
                p[block], m[block], v[block] = p_rows, m_rows, v_rows
        else:
            update(p, g, m, v)
    return params


# -- loss and gradients ------------------------------------------------------------

def gradients(
    model: MeasurementModel,
    X,
    arrays: BatchArrays,
    *,
    dim_weights: np.ndarray | None = None,
    unit_weights: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean joint loss and gradients for every trainable parameter.

    ``X`` is the batch feature matrix and ``arrays`` its rows' gold ids and
    targets.  The encoder projection gradient is included unless the
    encoder is frozen; it is a view of the encoder's one gradient buffer,
    which the next call overwrites, so train one encoder from one thread.
    Its ``rows`` spare :func:`adamw_step` a scan of the whole buffer; an
    array derived from it has none.
    """
    out = model.outputs(model.encoder.encode_matrix(X))
    loss, grads, dH = _forward_backward(
        model, out, arrays, dim_weights, unit_weights, want_grads=True
    )
    if not model.encoder.frozen:
        grads["encoder.W_S"] = model.encoder.projection_gradient(X, dH)
    return loss, grads


def batch_loss(model: MeasurementModel, examples) -> float:
    """Mean unweighted joint loss of ``examples`` (no gradients)."""
    X = model.encoder.feature_matrix([ex.masked_text for ex in examples])
    out = model.outputs(model.encoder.encode_matrix(X))
    arrays = batch_arrays(model.registry, examples)
    loss, _, _ = _forward_backward(model, out, arrays, None, None, want_grads=False)
    return loss


# -- training loop -------------------------------------------------------------------

@dataclass
class TrainResult:
    model: MeasurementModel
    history: list[dict]
    best_epoch: int
    best_value: float
    selection_metric: str


def _val_metric(model, metric, out, arrays) -> float:
    if metric == "joint-nll":
        loss, _, _ = _forward_backward(model, out, arrays, None, None, want_grads=False)
        return loss
    if metric == "macro-f1":
        dims = model.registry.dimensions
        pred = model.argmax_dimension_indices(out)
        cm = evaluation.counts(arrays.dim_index, pred, len(dims))
        return evaluation.class_section(cm, dims)["macro_f1"]
    if metric == "log-mae":
        pred = model.predict_number_batch(out)
        return evaluation.log_mae(arrays.canonical_number, pred)
    raise ValueError(f"unknown selection metric {metric!r}")


def train(
    model: MeasurementModel,
    split: DatasetSplit,
    config: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Train in place with AdamW, warmup, and early stopping.

    Stops once the validation metric has not improved for ``patience``
    consecutive epochs and restores the best epoch's parameters.  Frozen
    encoders receive no projection updates; a trainable ``W_S`` is updated
    lazily (see :class:`AdamWState`).  Selects on the training data, with a
    warning, when the validation split is empty.  Raises
    :class:`NonFiniteLoss` naming the epoch and step when a batch loss or
    the validation metric is NaN or infinite.
    """
    if not split.train:
        raise ValueError("training split is empty")
    config = config.resolve(model.encoder.frozen, model.spec.variant)
    metric = config.selection_metric
    maximize = metric in _MAXIMIZE

    train_ex = list(split.train)
    if split.val:
        val_ex = list(split.val)
    else:
        warnings.warn(
            "validation split is empty: selecting the model on the training data",
            stacklevel=2,
        )
        val_ex = train_ex
    X_train = model.encoder.feature_matrix([ex.masked_text for ex in train_ex])
    X_val = model.encoder.feature_matrix([ex.masked_text for ex in val_ex])
    arrays_train = batch_arrays(model.registry, train_ex)
    arrays_val = batch_arrays(model.registry, val_ex)

    dim_weights = unit_weights = None
    if config.weighting == "log-frequency":
        dim_counts = np.bincount(
            arrays_train.dim_index, minlength=len(model.registry.dimensions)
        )
        dim_weights = class_weights(dim_counts)
        unit_counts = np.bincount(
            arrays_train.unit_index, minlength=len(model.registry.units)
        )
        unit_weights = class_weights(unit_counts)

    params = model.trainable_parameters()
    opt = AdamWState(
        weight_decay=config.weight_decay,
        row_sparse=frozenset({"encoder.W_S"}),
    )
    # lazy updates never move a W_S row outside the training columns, so
    # the best-epoch snapshot keeps only those rows
    touched = np.unique(X_train.indices)

    best_value = -math.inf if maximize else math.inf
    best_epoch = 0
    strikes = 0
    history: list[dict] = []
    step = 0
    lr = config.learning_rate
    n = len(train_ex)

    for epoch in range(1, config.max_epochs + 1):
        order = stream_rng(config.seed, "shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            step += 1
            idx = order[start : start + config.batch_size]
            loss, grads = gradients(
                model,
                X_train[idx],
                arrays_train.take(idx),
                dim_weights=dim_weights,
                unit_weights=unit_weights,
            )
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"epoch {epoch}, step {step}: batch loss is {loss}")
            lr = lr_at(step, config)
            adamw_step(params, grads, opt, lr)
            # drop this step's view of the W_S gradient: the next step overwrites it
            del grads
            epoch_loss += loss
            n_batches += 1

        out_val = model.outputs(model.encoder.encode_matrix(X_val))
        value = _val_metric(model, metric, out_val, arrays_val)
        if not math.isfinite(value):
            raise NonFiniteLoss(
                f"epoch {epoch}, step {step}: validation {metric} is {value}"
            )
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / n_batches,
                "val_metric": value,
                "lr": lr,
            }
        )
        # a finite value always improves on the initial infinity, so epoch 1
        # sets the first snapshot
        improved = value > best_value if maximize else value < best_value
        if improved:
            best_value = value
            best_epoch = epoch
            best_params = {
                k: p[touched] if k in opt.row_sparse else p.copy()
                for k, p in params.items()
            }
            strikes = 0
        else:
            strikes += 1
            if strikes >= config.patience:
                break

    for name, saved in best_params.items():
        if name in opt.row_sparse:
            params[name][touched] = saved
        else:
            params[name][...] = saved
    return TrainResult(model, history, best_epoch, best_value, metric)
