"""Joint probabilistic models over (dimension, unit, number) given masked text.

Every variant reads the same hidden vector ``h`` from a text encoder and
attaches linear heads:

* ``W_D`` scores dimensions (softmax over the registry's dimensions);
* ``W_U`` scores units, masked so that conditioning on a dimension puts
  exactly zero probability on units outside it;
* ``W_Y`` locates the number: one location column per dimension, per unit,
  or a single column, depending on the variant.  The number model is a
  Laplace distribution on log10 of the canonical value with fixed scale 1,
  so its negative log-likelihood is absolute error in log10 space.

Variants (factorization of the joint given text S):

=============  =====================================================
``dim``        p(D|S)
``dim-unit``   p(D|S) p(U|D,S)
``number``     p(Y|S)
``dim-number`` p(D|S) p(Y|D,S)
``joint``      p(D|S) p(U|D,S) p(Y|D,S)
``joint-unit`` p(D|S) p(U|D,S) p(Y|U,S)
``latent-dim`` sum_D p(D|S) p(Y|D,S)  (D never supervised)
=============  =====================================================

Each row of the table is one :class:`Variant` record in ``VARIANT_RECORDS``:
the heads the variant owns, the class its number column is given (``given``:
the dimension, the unit, or nothing for a single column), whether D is
latent, its default model-selection metric and the evaluation probes it
answers.  The code reads these fields and never branches on a variant's
name.

An encoded batch ``H`` has one :class:`HeadOutputs` record, made by
``MeasurementModel.outputs(H)``, which runs each head the variant owns once.
The loss (:func:`_forward_backward`, with its analytic gradients) and the
read-outs (the argmaxes, ``predict_number_batch``, ``posterior_dims``) read
that record and exist only batched; ``predict(h)`` is the read-outs on the
one-row batch ``h[None]``.  The unit factor p(U|D,S) is computed once, in
``MeasurementModel._unit_log_probs``, which the unit loss and the posterior
read; the unit argmax reads the masked logits.

All losses and locations use base-10 logarithms throughout, so a loss of 1
means "off by one decade".  Inference methods are pure given parameters and
safe for concurrent readers; only the training loop mutates parameters.  The
one state they write is the encoder's featurize memo, whose entries are pure
functions of the encoder config, so a race there costs only a recomputation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from measured.data import NonPositiveNumber
from measured.encoding import EncoderConfig, HashedNgramEncoder, draw_init, init_blocks
from measured.seeding import stream_rng
from measured.units import Dimension, Unit, UnitRegistry, convert

LN10 = math.log(10.0)
LAPLACE_SCALE = 1.0  # fixed; the number loss is plain L1 in log10 space
CHECKPOINT_FORMAT = "measured-checkpoint-v3"
_V2 = "measured-checkpoint-v2"  # read only: its full W_S is used as stored


@dataclass(frozen=True)
class Variant:
    """One factorization of the joint p(D, U, Y | S), as data.

    ``heads`` are the linear heads the variant owns, among ``"D"``, ``"U"``
    and ``"Y"``.  ``given`` is the class the number head conditions on, one
    column per class: ``"dim"`` (p(Y|D,S)), ``"unit"`` (p(Y|U,S)), or ``""``
    for a single column (p(Y|S)) or no number head.  ``latent`` marks a D
    that is never supervised: the number loss sums over it, and the ``dim``
    probe maps its classes to the gold ones.  ``selection_metric`` is the
    default early-stopping metric and ``probes`` the evaluation probes it
    answers.
    """

    name: str
    heads: tuple[str, ...]
    selection_metric: str
    probes: tuple[str, ...]
    given: str = ""
    latent: bool = False

    @property
    def mixture_readout(self) -> bool:
        """Whether ``mixture_number_prediction`` applies: a supervised D
        that the number head conditions on."""
        return self.given == "dim" and not self.latent


VARIANT_RECORDS: dict[str, Variant] = {
    v.name: v
    for v in (  # name, heads, selection metric, probes, given, latent
        Variant("dim", ("D",), "macro-f1", ("dim",)),
        Variant("dim-unit", ("D", "U"), "macro-f1", ("dim", "unit")),
        Variant("number", ("Y",), "log-mae", ("num",)),
        Variant(
            "dim-number", ("D", "Y"), "joint-nll", ("dim", "dim-given-y", "num"), "dim"
        ),
        Variant("joint", ("D", "U", "Y"), "joint-nll", ("dim", "unit", "num"), "dim"),
        Variant(
            "joint-unit", ("D", "U", "Y"), "joint-nll",
            ("dim", "dim-given-y", "unit", "num"), "unit",
        ),
        Variant("latent-dim", ("D", "Y"), "joint-nll", ("dim", "num"), "dim", True),
    )
}
VARIANTS = tuple(VARIANT_RECORDS)


class MissingHead(RuntimeError):
    """The variant does not own the head an operation requires."""


class RegistryMismatch(ValueError):
    """Checkpoint was trained against a different registry."""


@dataclass(frozen=True)
class ModelSpec:
    """Variant choice plus the hidden width the heads read."""

    variant: str
    hidden_dim: int
    mixture_number_prediction: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANT_RECORDS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.mixture_number_prediction and not self.record.mixture_readout:
            mixed = [v.name for v in VARIANT_RECORDS.values() if v.mixture_readout]
            raise ValueError(
                f"mixture_number_prediction applies only to {', '.join(mixed)}, "
                f"not {self.variant!r}"
            )

    @property
    def record(self) -> Variant:
        """The :class:`Variant` record of ``variant``."""
        return VARIANT_RECORDS[self.variant]

    def number_columns(self, registry: UnitRegistry) -> int:
        """Width of the number head: |dims|, |units|, 1, or 0 if absent."""
        record = self.record
        if "Y" not in record.heads:
            return 0
        if not record.given:
            return 1
        return len(registry.units if record.given == "unit" else registry.dimensions)


@dataclass(frozen=True)
class Prediction:
    """Deterministic read-out of the model's joint prediction."""

    dimension: Dimension
    unit: Unit
    canonical_number: float
    surface_number: float
    dim_probs: np.ndarray


@dataclass(frozen=True)
class HeadOutputs:
    """The heads' outputs on one encoded batch ``H``, each computed once.

    ``dim`` and ``unit`` are the (B, |dims|) and (B, |units|) logits and
    ``number`` the (B, columns) log10 locations.  Reading a head the variant
    does not own raises :class:`MissingHead`.
    """

    variant: str
    H: np.ndarray
    heads: dict[str, np.ndarray]  # "D", "U", "Y" -> that head's output

    def _read(self, head: str) -> np.ndarray:
        try:
            return self.heads[head]
        except KeyError:
            raise MissingHead(f"variant {self.variant!r} has no {head} head") from None

    dim = property(lambda self: self._read("D"))
    unit = property(lambda self: self._read("U"))
    number = property(lambda self: self._read("Y"))


def _softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis."""
    m = z.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))


class MeasurementModel:
    """A model spec bound to a registry, an encoder, and head parameters."""

    def __init__(
        self,
        spec: ModelSpec,
        registry: UnitRegistry,
        encoder: HashedNgramEncoder,
        seed: int = 0,
    ):
        if encoder.hidden_dim != spec.hidden_dim:
            raise ValueError(
                f"encoder hidden_dim {encoder.hidden_dim} != spec {spec.hidden_dim}"
            )
        self.spec = spec
        self.registry = registry
        self.encoder = encoder
        self.head_seed = seed

        # each unit's dimension index, and each dimension's units, ascending
        self._unit_dim = np.array(
            [registry.dimension_index(u.dimension) for u in registry.units]
        )
        self._dim_units = [
            np.flatnonzero(self._unit_dim == d) for d in range(len(registry.dimensions))
        ]

        m = spec.hidden_dim
        rng = stream_rng(seed, "head-init", spec.variant)
        bound = 1.0 / math.sqrt(m)
        width = {
            "D": len(registry.dimensions),
            "U": len(registry.units),
            "Y": spec.number_columns(registry),
        }
        self.params: dict[str, np.ndarray] = {}
        for head in spec.record.heads:  # drawn in D, U, Y order
            self.params[f"W_{head}"] = rng.uniform(-bound, bound, size=(m, width[head]))
            self.params[f"b_{head}"] = np.zeros(width[head])

    # -- parameter plumbing ---------------------------------------------------

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        out = dict(self.params)
        for name, array in self.encoder.trainable_parameters().items():
            out[f"encoder.{name}"] = array
        return out

    def encode(self, text: str) -> np.ndarray:
        return self.encoder.encode(text)

    # -- head outputs -----------------------------------------------------------

    def dim_logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.params["W_D"] + self.params["b_D"]

    def unit_logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.params["W_U"] + self.params["b_U"]

    def number_locations(self, h: np.ndarray) -> np.ndarray:
        """Predicted log10 locations, one per number-head column."""
        return h @ self.params["W_Y"] + self.params["b_Y"]

    def outputs(self, H: np.ndarray) -> HeadOutputs:
        """Every head the variant owns, run once on the encoded batch ``H``."""
        run = {"D": self.dim_logits, "U": self.unit_logits, "Y": self.number_locations}
        heads = {head: run[head](H) for head in self.spec.record.heads}
        return HeadOutputs(self.spec.variant, H, heads)

    def _unit_log_probs(self, Z: np.ndarray) -> np.ndarray:
        """(B, U) log p(u | dim(u), h) from the unit logits ``Z``.

        Each dimension's block is normalized as a C-ordered copy:
        ``Z[:, allowed]`` comes out F-ordered, numpy sums the two layouts in
        different orders (the last bit differs on the 8-unit length block),
        and only C order gives a row the same bits in a batch as alone.
        """
        L = np.full(Z.shape, -np.inf)
        for allowed in self._dim_units:
            L[:, allowed] = _log_softmax(Z[:, allowed].copy(order="C"), axis=1)
        return L

    def _columns_given(self, dim_index, unit_index):
        """Number-head column conditioned on the given dimension/unit indices."""
        given = self.spec.record.given
        if not given:
            return np.zeros_like(dim_index)
        return unit_index if given == "unit" else dim_index

    # -- inference: batched read-outs of one HeadOutputs ------------------------

    def posterior_dims(self, out: HeadOutputs, canonical_numbers) -> np.ndarray:
        """Dimension distribution of each row after observing its number.

        Bayes update of ``p(d|h)`` with the number density: the per-
        dimension density for a per-dimension number head, or the
        dimension's units mixed by ``p(u|d,h)`` for a per-unit one.
        Computed in log space; answers the ``dim-given-y`` probe.
        """
        y = np.asarray(canonical_numbers, dtype=float)
        if not np.all(y > 0):
            bad = y[~(y > 0)][0]
            raise NonPositiveNumber(f"canonical numbers must be > 0, got {bad}")
        record = self.spec.record
        if "dim-given-y" not in record.probes:
            raise MissingHead(
                f"variant {self.spec.variant!r} does not answer the dim-given-y "
                "probe, so it has no dimension posterior"
            )
        t = np.log10(y)
        if record.given == "dim":
            _, scores = _mixture_summands(out, t)
        else:
            log_joint = self._unit_log_probs(out.unit) - LN10 * (
                np.abs(t[:, None] - out.number) / LAPLACE_SCALE
            )
            scores = _log_softmax(out.dim, axis=1) + np.stack(
                [_logsumexp(log_joint[:, units]) for units in self._dim_units], axis=1
            )
        return _softmax(scores, axis=1)

    def argmax_dimension_indices(self, out: HeadOutputs) -> np.ndarray:
        return np.argmax(out.dim, axis=1)

    def argmax_unit_indices_given(self, out: HeadOutputs, dim_indices) -> np.ndarray:
        """Top unit within each row's given dimension.  The argmax reads the
        logits: rounding to log-probabilities can tie two of them."""
        given = self._unit_dim == np.asarray(dim_indices)[:, None]
        return np.argmax(np.where(given, out.unit, -np.inf), axis=1)

    def mixture_median_locations(self, out: HeadOutputs) -> np.ndarray:
        """Median of each row's dimension-mixture number distribution (log10)."""
        prior = _softmax(out.dim, axis=1)
        MU = out.number
        lo = MU.min(axis=1) - 20.0
        hi = MU.max(axis=1) + 20.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            diff = mid[:, None] - MU
            cdf = np.where(
                diff < 0,
                0.5 * 10.0 ** (diff / LAPLACE_SCALE),
                1.0 - 0.5 * 10.0 ** (-diff / LAPLACE_SCALE),
            )
            total = np.einsum("bd,bd->b", prior, cdf)
            below = total < 0.5
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if float(np.max(hi - lo)) < 1e-12:
                break
        return 0.5 * (lo + hi)

    def predict_number_batch(self, out: HeadOutputs) -> np.ndarray:
        """Canonical number predicted from text alone, one per row."""
        given = self.spec.record.given
        di = self.argmax_dimension_indices(out) if given else np.zeros(len(out.H), int)
        ui = self.argmax_unit_indices_given(out, di) if given == "unit" else di
        return 10.0 ** self._located(out, di, ui)

    def _located(self, out: HeadOutputs, di, ui) -> np.ndarray:
        """log10 of the number read from text alone, given each row's top classes.

        The dimension-mixture median for a latent-dimension model, or for a
        per-dimension one with ``mixture_number_prediction``; otherwise the
        location in the column of the row's top classes ``di`` and ``ui``.
        """
        if self.spec.record.latent or self.spec.mixture_number_prediction:
            return self.mixture_median_locations(out)
        return out.number[np.arange(len(di)), self._columns_given(di, ui)]

    def predict(self, h: np.ndarray) -> Prediction:
        """Argmax dimension, argmax unit within it, and the located number.

        The batched read-outs on the one-row batch ``h[None]``, so ties break
        toward the lowest class index and a variant without all three heads
        raises :class:`MissingHead`.  The surface number is the canonical
        number converted into the predicted unit.
        """
        out = self.outputs(h[None])
        di = self.argmax_dimension_indices(out)
        ui = self.argmax_unit_indices_given(out, di)
        dimension = self.registry.dimensions[int(di[0])]
        unit = self.registry.units[int(ui[0])]
        # a scalar power: numpy's vectorized one can differ in the last bit
        canonical = 10.0 ** float(self._located(out, di, ui)[0])
        surface = convert(canonical, self.registry.canonical_unit(dimension), unit)
        return Prediction(dimension, unit, canonical, surface, _softmax(out.dim[0]))


# -- the loss, batched -------------------------------------------------------------

@dataclass
class BatchArrays:
    """The gold ids and targets of a list of examples, one row per example."""

    dim_index: np.ndarray
    unit_index: np.ndarray
    log10_target: np.ndarray
    canonical_number: np.ndarray

    def take(self, idx) -> "BatchArrays":
        """The rows ``idx`` of every field."""
        return BatchArrays(*(getattr(self, f.name)[idx] for f in fields(self)))


def batch_arrays(registry: UnitRegistry, examples) -> BatchArrays:
    """Each example's gold dimension and unit ids, canonical number, and its log10.

    The one place an example becomes gold ids and targets.  The log10 is
    ``math.log10`` per example: numpy's vectorized one may differ in the
    last bit, and the loss reads it.
    """
    return BatchArrays(
        dim_index=np.array([registry.dimension_index(ex.dimension) for ex in examples]),
        unit_index=np.array([registry.unit_index(ex.unit) for ex in examples]),
        log10_target=np.array([math.log10(ex.canonical_number) for ex in examples]),
        canonical_number=np.array([ex.canonical_number for ex in examples]),
    )


# Each loss term maps (model, head outputs, arrays, class weights, want_grads)
# to its batch-mean value and the gradients on the logits of the heads it reads.

def _dim_term(model, out, arrays, weights, want_grads):
    """Cross-entropy of the gold dimension."""
    B = len(out.H)
    rows = np.arange(B)
    log_pi = _log_softmax(out.dim, axis=1)
    w = weights[arrays.dim_index] if weights is not None else np.ones(B)
    loss = float(np.mean(-w * log_pi[rows, arrays.dim_index] / LN10))
    if not want_grads:
        return loss, {}
    dZD = np.exp(log_pi)
    dZD[rows, arrays.dim_index] -= 1.0
    dZD *= w[:, None] / LN10
    return loss, {"D": dZD}


def _unit_term(model, out, arrays, weights, want_grads):
    """Cross-entropy of the gold unit among the units of the gold dimension."""
    B = len(out.H)
    rows = np.arange(B)
    L = model._unit_log_probs(out.unit)
    w = weights[arrays.unit_index] if weights is not None else np.ones(B)
    loss = float(np.mean(w * (-L[rows, arrays.unit_index] / LN10)))
    if not want_grads:
        return loss, {}
    gold_dim = model._unit_dim == arrays.dim_index[:, None]
    dZU = np.where(gold_dim, np.exp(L), 0.0)
    dZU[rows, arrays.unit_index] -= 1.0
    dZU *= w[:, None] / LN10
    return loss, {"U": dZU}


def _number_term(model, out, arrays, weights, want_grads):
    """L1 loss in log10 space of the column the number conditions on."""
    MU = out.number
    rows = np.arange(len(MU))
    cols = model._columns_given(arrays.dim_index, arrays.unit_index)
    mu = MU[rows, cols]
    t = arrays.log10_target
    loss = float(np.mean(np.abs(t - mu)))
    if not want_grads:
        return loss, {}
    dMU = np.zeros_like(MU)
    dMU[rows, cols] = -np.sign(t - mu)
    return loss, {"Y": dMU}


def _mixture_summands(out, t):
    """``ln p(d|h) - ln10 * fullNLL_d(y)`` per row and dimension.

    ``fullNLL_d`` is the number's negative log10 density under column ``d``,
    normalizer and change of variable included.  Returns the log prior too.
    """
    log_pi = _log_softmax(out.dim, axis=1)
    full_nll = np.abs(t[:, None] - out.number) + math.log10(2.0) + t[:, None]
    return log_pi, log_pi - LN10 * full_nll


def _mixture_term(model, out, arrays, weights, want_grads):
    """Marginal number loss ``-log10 sum_d p(d|h) p(y|d,h)``."""
    t = arrays.log10_target
    log_pi, summands = _mixture_summands(out, t)
    lse = _logsumexp(summands)
    loss = float(np.mean(-lse / LN10))
    if not want_grads:
        return loss, {}
    resp = np.exp(summands - lse[:, None])
    return loss, {
        "D": (np.exp(log_pi) - resp) / LN10,
        "Y": -resp * np.sign(t[:, None] - out.number),
    }


def _forward_backward(
    model: MeasurementModel,
    out: HeadOutputs,
    arrays: BatchArrays,
    dim_weights: np.ndarray | None,
    unit_weights: np.ndarray | None,
    want_grads: bool,
):
    """Mean loss over the batch and, optionally, gradients for the heads.

    The loss sums one term per head the variant owns: dimension and unit
    cross-entropy, and the number loss of the conditioning column; a latent
    dimension has the mixture term alone.  Returns ``(loss, head_grads,
    dH)`` where ``dH`` is the gradient with respect to the encoded batch
    ``out.H`` (for the encoder projection).
    """
    record = model.spec.record
    if record.latent:
        terms = [(_mixture_term, None)]
    else:
        terms = [
            (term, weights)
            for head, term, weights in (
                ("D", _dim_term, dim_weights),
                ("U", _unit_term, unit_weights),
                ("Y", _number_term, None),
            )
            if head in record.heads
        ]
    H = out.H
    B = H.shape[0]
    loss = 0.0
    grads: dict[str, np.ndarray] = {}
    dH = np.zeros_like(H) if want_grads else None
    for term, weights in terms:
        value, logit_grads = term(model, out, arrays, weights, want_grads)
        loss += value
        for head, dZ in logit_grads.items():
            grads[f"W_{head}"] = H.T @ dZ / B
            grads[f"b_{head}"] = dZ.sum(axis=0) / B
            dH += dZ @ model.params[f"W_{head}"].T / B
    return loss, grads, dH


# -- checkpoints -------------------------------------------------------------------
#
# ``W_S`` is a pure function of the encoder seed and shape until training
# moves it, and lazy AdamW moves only the rows some batch touched.  So
# ``measured-checkpoint-v3`` stores the seed (in the meta), the moved rows
# and rows 0 and E-1 of the init as a probe.  v2 stored the full ``W_S``.

def save_model(model: MeasurementModel, path) -> None:
    """Write a ``measured-checkpoint-v3`` npz at exactly ``path``.

    Besides the JSON meta and the heads it holds ``encoder.rows``, the
    sorted ids of the rows whose bits differ from the init (none for an
    untrained or frozen model), ``encoder.W_rows``, their values, and
    ``encoder.init_probe``.  The file is written under a temporary name in
    the same directory and then renamed over ``path``, so a failed write
    leaves the previous file there intact.  ``np.savez`` appends ``.npz`` to
    a path without it, so it is handed an open file instead.
    """
    enc = model.encoder
    meta = {
        "format": CHECKPOINT_FORMAT,
        **asdict(model.spec),
        "head_seed": model.head_seed,
        "encoder": {**asdict(enc.config), "seed": enc.seed},
        "registry_fingerprint": model.registry.fingerprint,
        "heads": sorted(model.params),
    }
    arrays = {f"head.{k}": v for k, v in model.params.items()}
    rows = enc.moved_rows()
    arrays["encoder.rows"] = rows
    arrays["encoder.W_rows"] = enc.W_S[rows]
    shape = enc.W_S.shape
    arrays["encoder.init_probe"] = np.vstack([
        next(init_blocks(enc.seed, shape, r, r + 1))[1] for r in (0, shape[0] - 1)
    ])
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, __meta__=np.array(json.dumps(meta)), **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _from_meta(cls, meta: dict):
    """A config dataclass from its checkpoint JSON, lists back to tuples."""
    values = {f.name: meta[f.name] for f in fields(cls)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def _v3_projection(z, config: EncoderConfig, seed: int, path) -> np.ndarray:
    """``W_S`` of a v3 file: the seed's init with the stored rows put back."""
    E, M = config.feature_dim, config.hidden_dim
    rows, values = z["encoder.rows"], z["encoder.W_rows"]
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or not (
        np.all(rows >= 0) and np.all(rows < E) and np.all(rows[1:] > rows[:-1])
    ):
        raise ValueError(f"{path}: encoder.rows must be increasing ids in [0, {E})")
    if values.shape != (len(rows), M):
        raise ValueError(f"{path}: encoder.W_rows is not {len(rows)} x {M}")
    probe = z["encoder.init_probe"]
    if probe.shape != (2, M) or probe.dtype != np.float64:
        raise ValueError(f"{path}: encoder.init_probe is not 2 x {M} float64")
    W = draw_init(seed, (E, M))
    if not np.array_equal(W[[0, E - 1]], probe):
        raise ValueError(
            f"{path}: numpy {np.__version__} draws another W_S init than the numpy "
            "that saved this checkpoint (numpy keeps no stream across versions)"
        )
    W[rows] = values
    return W


def load_model(path, registry: UnitRegistry) -> MeasurementModel:
    """Rebuild a model from a checkpoint whose registry and head set must match.

    A v3 file's ``W_S`` is drawn from the encoder seed, refused if its rows
    0 and E-1 differ from the stored probe, and gets the stored rows back.
    A v2 file's ``encoder.W_S`` is used as stored; a v1 file is refused.
    """
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["__meta__"][()]))
        fmt = meta.get("format")
        if fmt == "measured-checkpoint-v1":
            raise ValueError(
                f"{path} is a measured-checkpoint-v1 file: v1 fingerprinted the "
                "registry file's text, comments and layout included, so its "
                f"registry cannot be checked; retrain to write {CHECKPOINT_FORMAT}"
            )
        if fmt not in (_V2, CHECKPOINT_FORMAT):
            raise ValueError(f"not a measured checkpoint: {path}")
        if meta["registry_fingerprint"] != registry.fingerprint:
            raise RegistryMismatch(
                "checkpoint was built against a registry with fingerprint "
                f"{meta['registry_fingerprint'][:12]}..., got "
                f"{registry.fingerprint[:12]}..."
            )
        config = _from_meta(EncoderConfig, meta["encoder"])
        seed = meta["encoder"]["seed"]
        W_S = (
            z["encoder.W_S"] if fmt == _V2 else _v3_projection(z, config, seed, path)
        )
        encoder = HashedNgramEncoder(config, seed=seed, W_S=W_S)
        spec = _from_meta(ModelSpec, meta)
        model = MeasurementModel(spec, registry, encoder, seed=meta["head_seed"])
        differ = sorted(set(meta["heads"]) ^ set(model.params))
        if differ:
            raise ValueError(
                f"checkpoint heads differ from {spec.variant!r}'s: {', '.join(differ)}"
            )
        for name in meta["heads"]:
            stored = z[f"head.{name}"]
            if stored.shape != model.params[name].shape:
                raise ValueError(
                    f"checkpoint head {name} has shape {stored.shape}, "
                    f"expected {model.params[name].shape}"
                )
            model.params[name] = stored
    return model
