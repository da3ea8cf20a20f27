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
the heads the variant owns, the kind of number column (none, single, per
dimension, per unit, or per dimension mixed over a latent D), its default
model-selection metric and the evaluation probes it answers.  The code
reads the record and never branches on a variant's name.

The loss exists once, batched over the rows of an encoded batch ``H``:
:func:`_forward_backward` sums the terms of the variant's factors and
returns their analytic gradients; one example's loss is that function on
``H = h[None]``.  The number and posterior read-outs
(``predict_number_batch``, ``mixture_median_locations``, ``posterior_dims``)
exist only batched too.

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
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.seeding import stream_rng
from measured.units import Dimension, Unit, UnitRegistry, convert

LN10 = math.log(10.0)
LAPLACE_SCALE = 1.0  # fixed; the number loss is plain L1 in log10 space
CHECKPOINT_FORMAT = "measured-checkpoint-v2"


@dataclass(frozen=True)
class Variant:
    """One factorization of the joint p(D, U, Y | S), as data.

    ``heads`` are the linear heads the variant owns, among ``"D"``, ``"U"``
    and ``"Y"``.  ``number`` is the kind of number column: ``"none"``,
    ``"single"`` (p(Y|S)), ``"per-dim"`` (p(Y|D,S)), ``"per-unit"``
    (p(Y|U,S)), or ``"mixture"`` (one column per dimension, summed over a
    latent D that is never supervised).  ``selection_metric`` is the default
    early-stopping metric and ``probes`` the evaluation probes it answers.
    """

    name: str
    heads: tuple[str, ...]
    number: str
    selection_metric: str
    probes: tuple[str, ...]


VARIANT_RECORDS: dict[str, Variant] = {
    v.name: v
    for v in (
        Variant("dim", ("D",), "none", "macro-f1", ("dim",)),
        Variant("dim-unit", ("D", "U"), "none", "macro-f1", ("dim", "unit")),
        Variant("number", ("Y",), "single", "log-mae", ("num",)),
        Variant(
            "dim-number", ("D", "Y"), "per-dim", "joint-nll",
            ("dim", "dim-given-y", "num"),
        ),
        Variant(
            "joint", ("D", "U", "Y"), "per-dim", "joint-nll",
            ("dim", "unit", "num"),
        ),
        Variant(
            "joint-unit", ("D", "U", "Y"), "per-unit", "joint-nll",
            ("dim", "dim-given-y", "unit", "num"),
        ),
        Variant("latent-dim", ("D", "Y"), "mixture", "joint-nll", ("dim", "num")),
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

    @property
    def record(self) -> Variant:
        """The :class:`Variant` record of ``variant``."""
        return VARIANT_RECORDS[self.variant]

    def number_columns(self, registry: UnitRegistry) -> int:
        """Width of the number head: |dims|, |units|, 1, or 0 if absent."""
        kind = self.record.number
        if kind == "none":
            return 0
        if kind == "single":
            return 1
        if kind == "per-unit":
            return len(registry.units)
        return len(registry.dimensions)


@dataclass(frozen=True)
class Prediction:
    """Deterministic read-out of the model's joint prediction."""

    dimension: Dimension
    unit: Unit
    canonical_number: float
    surface_number: float
    dim_probs: np.ndarray
    unit_probs: np.ndarray


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

        # per-dimension unit index arrays, ascending (declaration order)
        self._dim_units: list[np.ndarray] = [
            np.array([registry.unit_index(u) for u in registry.units_of(d)])
            for d in registry.dimensions
        ]

        m = spec.hidden_dim
        rng = stream_rng(seed, "head-init", spec.variant)
        bound = 1.0 / math.sqrt(m)
        self.params: dict[str, np.ndarray] = {}
        heads = spec.record.heads
        if "D" in heads:
            self.params["W_D"] = rng.uniform(
                -bound, bound, size=(m, len(registry.dimensions))
            )
            self.params["b_D"] = np.zeros(len(registry.dimensions))
        if "U" in heads:
            self.params["W_U"] = rng.uniform(
                -bound, bound, size=(m, len(registry.units))
            )
            self.params["b_U"] = np.zeros(len(registry.units))
        if "Y" in heads:
            cols = spec.number_columns(registry)
            self.params["W_Y"] = rng.uniform(-bound, bound, size=(m, cols))
            self.params["b_Y"] = np.zeros(cols)

    # -- parameter plumbing ---------------------------------------------------

    def _head(self, name: str) -> np.ndarray:
        try:
            return self.params[name]
        except KeyError:
            raise MissingHead(
                f"variant {self.spec.variant!r} has no {name} head"
            ) from None

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        out = dict(self.params)
        for name, array in self.encoder.trainable_parameters().items():
            out[f"encoder.{name}"] = array
        return out

    def encode(self, text: str) -> np.ndarray:
        return self.encoder.encode(text)

    # -- head outputs (accept a single h or a batch H) --------------------------

    def dim_logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self._head("W_D") + self._head("b_D")

    def unit_logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self._head("W_U") + self._head("b_U")

    def number_locations(self, h: np.ndarray) -> np.ndarray:
        """Predicted log10 locations, one per number-head column."""
        return h @ self._head("W_Y") + self._head("b_Y")

    def dim_distribution(self, h: np.ndarray) -> np.ndarray:
        """Softmax distribution over the registry's dimensions."""
        return _softmax(self.dim_logits(h))

    def unit_distribution(self, h: np.ndarray, d: Dimension | str) -> np.ndarray:
        """Distribution over all units with support exactly ``units_of(d)``.

        Entries for units outside the dimension are exactly zero.
        """
        di = self.registry.dimension_index(d)
        z = self.unit_logits(h)
        allowed = self._dim_units[di]
        probs = np.zeros_like(z)
        probs[allowed] = _softmax(z[allowed])
        return probs

    # -- number columns ---------------------------------------------------------

    def _columns_given(self, dim_index, unit_index):
        """Number-head column conditioned on the given dimension/unit indices."""
        kind = self.spec.record.number
        if kind == "none":
            raise MissingHead(f"variant {self.spec.variant!r} has no number head")
        if kind == "single":
            return np.zeros_like(dim_index)
        return unit_index if kind == "per-unit" else dim_index

    def _top_columns(self, H: np.ndarray) -> np.ndarray:
        """Number-head column of each row's own top dimension and unit."""
        kind = self.spec.record.number
        if kind == "single":
            return np.zeros(len(H), dtype=np.int64)
        di = self.argmax_dimension_indices(H)
        if kind == "per-unit":
            return self.argmax_unit_indices_given(H, di)
        return di

    @property
    def _reads_mixture_median(self) -> bool:
        """Whether the text-only number read-out is the dimension-mixture median."""
        kind = self.spec.record.number
        return kind == "mixture" or (
            kind == "per-dim" and self.spec.mixture_number_prediction
        )

    # -- inference -------------------------------------------------------------

    def posterior_dims(self, H: np.ndarray, canonical_numbers) -> np.ndarray:
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
        if record.number == "per-dim":
            _, _, scores = _mixture_summands(self, H, t)
        else:
            log_prior = _log_softmax(self.dim_logits(H), axis=1)
            Z = self.unit_logits(H)
            MU = self.number_locations(H)
            scores = np.empty_like(log_prior)
            for di, allowed in enumerate(self._dim_units):
                log_pu = _log_softmax(Z[:, allowed], axis=1)
                log_dens = -LN10 * (
                    np.abs(t[:, None] - MU[:, allowed]) / LAPLACE_SCALE
                )
                scores[:, di] = log_prior[:, di] + _logsumexp(log_pu + log_dens)
        return _softmax(scores, axis=1)

    def argmax_dimension_indices(self, H: np.ndarray) -> np.ndarray:
        return np.argmax(self.dim_logits(H), axis=1)

    def argmax_unit_indices_given(
        self, H: np.ndarray, dim_indices: np.ndarray
    ) -> np.ndarray:
        """Top unit within each row's given dimension."""
        z = self.unit_logits(H)
        out = np.empty(len(dim_indices), dtype=np.int64)
        for di in np.unique(dim_indices):
            rows = np.nonzero(dim_indices == di)[0]
            allowed = self._dim_units[int(di)]
            out[rows] = allowed[np.argmax(z[np.ix_(rows, allowed)], axis=1)]
        return out

    def mixture_median_locations(self, H: np.ndarray) -> np.ndarray:
        """Median of each row's dimension-mixture number distribution (log10)."""
        prior = _softmax(self.dim_logits(H), axis=1)
        MU = self.number_locations(H)
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

    def predict_number_batch(self, H: np.ndarray) -> np.ndarray:
        """Canonical number predicted from text alone, one per row of H.

        The dimension-mixture median for a latent-dimension model, or for a
        per-dimension one with ``mixture_number_prediction``; otherwise the
        location in the column of the row's own top classes.
        """
        MU = self.number_locations(H)
        if self._reads_mixture_median:
            return 10.0 ** self.mixture_median_locations(H)
        return 10.0 ** MU[np.arange(len(H)), self._top_columns(H)]

    def predict(self, h: np.ndarray) -> Prediction:
        """Argmax dimension, argmax unit within it, and the located number.

        Ties break toward the lowest class index.  The surface number is
        the canonical number converted into the predicted unit.
        """
        if not {"D", "U", "Y"} <= set(self.spec.record.heads):
            raise MissingHead(
                f"full prediction needs dimension, unit, and number heads; "
                f"variant {self.spec.variant!r} lacks some"
            )
        dim_probs = self.dim_distribution(h)
        di = int(np.argmax(dim_probs))
        dimension = self.registry.dimensions[di]
        unit_probs = self.unit_distribution(h, dimension)
        ui = int(np.argmax(unit_probs))
        unit = self.registry.units[ui]
        if self._reads_mixture_median:
            mu = float(self.mixture_median_locations(h[None])[0])
        else:
            mu = float(self.number_locations(h)[self._columns_given(di, ui)])
        canonical = 10.0 ** mu
        surface = convert(
            canonical, self.registry.canonical_unit(dimension), unit
        )
        return Prediction(dimension, unit, canonical, surface, dim_probs, unit_probs)


# -- the loss, batched -------------------------------------------------------------

@dataclass
class BatchArrays:
    """Precomputed per-example index/target arrays for a fixed corpus."""

    dim_index: np.ndarray
    unit_index: np.ndarray
    log10_target: np.ndarray


def batch_arrays(model: MeasurementModel, examples) -> BatchArrays:
    reg = model.registry
    return BatchArrays(
        dim_index=np.array([reg.dimension_index(ex.dimension) for ex in examples]),
        unit_index=np.array([reg.unit_index(ex.unit) for ex in examples]),
        log10_target=np.array(
            [math.log10(ex.canonical_number) for ex in examples]
        ),
    )


# Each loss term maps (model, H, arrays, class weights, want_grads) to its
# batch-mean value and the gradients on the logits of the heads it reads.

def _dim_term(model, H, arrays, weights, want_grads):
    """Cross-entropy of the gold dimension."""
    B = H.shape[0]
    rows = np.arange(B)
    log_pi = _log_softmax(model.dim_logits(H), axis=1)
    w = weights[arrays.dim_index] if weights is not None else np.ones(B)
    loss = float(np.mean(-w * log_pi[rows, arrays.dim_index] / LN10))
    if not want_grads:
        return loss, {}
    dZD = np.exp(log_pi)
    dZD[rows, arrays.dim_index] -= 1.0
    dZD *= w[:, None] / LN10
    return loss, {"D": dZD}


def _unit_term(model, H, arrays, weights, want_grads):
    """Cross-entropy of the gold unit among the units of the gold dimension."""
    B = H.shape[0]
    zU = model.unit_logits(H)
    dZU = np.zeros_like(zU) if want_grads else None
    w = weights[arrays.unit_index] if weights is not None else np.ones(B)
    ce = np.empty(B)
    for di in np.unique(arrays.dim_index):
        rows_d = np.nonzero(arrays.dim_index == di)[0]
        allowed = model._dim_units[int(di)]
        sub = zU[np.ix_(rows_d, allowed)]
        log_p = _log_softmax(sub, axis=1)
        pos = np.searchsorted(allowed, arrays.unit_index[rows_d])
        ce[rows_d] = -log_p[np.arange(len(rows_d)), pos] / LN10
        if want_grads:
            dsub = np.exp(log_p)
            dsub[np.arange(len(rows_d)), pos] -= 1.0
            dsub *= w[rows_d, None] / LN10
            dZU[np.ix_(rows_d, allowed)] = dsub
    loss = float(np.mean(w * ce))
    return loss, ({"U": dZU} if want_grads else {})


def _number_term(model, H, arrays, weights, want_grads):
    """L1 loss in log10 space of the column the number conditions on."""
    rows = np.arange(H.shape[0])
    MU = model.number_locations(H)
    cols = model._columns_given(arrays.dim_index, arrays.unit_index)
    mu = MU[rows, cols]
    t = arrays.log10_target
    loss = float(np.mean(np.abs(t - mu)))
    if not want_grads:
        return loss, {}
    dMU = np.zeros_like(MU)
    dMU[rows, cols] = -np.sign(t - mu)
    return loss, {"Y": dMU}


def _mixture_summands(model, H, t):
    """``ln p(d|h) - ln10 * fullNLL_d(y)`` per row and dimension.

    ``fullNLL_d`` is the number's negative log10 density under column ``d``,
    normalizer and change of variable included.  Returns the log prior and
    the locations too.
    """
    log_pi = _log_softmax(model.dim_logits(H), axis=1)
    MU = model.number_locations(H)
    full_nll = np.abs(t[:, None] - MU) + math.log10(2.0) + t[:, None]
    return log_pi, MU, log_pi - LN10 * full_nll


def _mixture_term(model, H, arrays, weights, want_grads):
    """Marginal number loss ``-log10 sum_d p(d|h) p(y|d,h)``."""
    t = arrays.log10_target
    log_pi, MU, summands = _mixture_summands(model, H, t)
    lse = _logsumexp(summands)
    loss = float(np.mean(-lse / LN10))
    if not want_grads:
        return loss, {}
    resp = np.exp(summands - lse[:, None])
    return loss, {
        "D": (np.exp(log_pi) - resp) / LN10,
        "Y": -resp * np.sign(t[:, None] - MU),
    }


def _forward_backward(
    model: MeasurementModel,
    H: np.ndarray,
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
    (for the encoder projection).
    """
    record = model.spec.record
    if record.number == "mixture":
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
    B = H.shape[0]
    loss = 0.0
    grads: dict[str, np.ndarray] = {}
    dH = np.zeros_like(H) if want_grads else None
    for term, weights in terms:
        value, logit_grads = term(model, H, arrays, weights, want_grads)
        loss += value
        for head, dZ in logit_grads.items():
            grads[f"W_{head}"] = H.T @ dZ / B
            grads[f"b_{head}"] = dZ.sum(axis=0) / B
            dH += dZ @ model.params[f"W_{head}"].T / B
    return loss, grads, dH


# -- checkpoints -------------------------------------------------------------------

def save_model(model: MeasurementModel, path) -> None:
    """Write a single self-describing checkpoint file (npz) at exactly ``path``.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so a failed write leaves the previous file
    there intact.  ``np.savez`` appends ``.npz`` to a path without it, so it
    is handed an open file instead.
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
    arrays["encoder.W_S"] = enc.W_S
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


def load_model(path, registry: UnitRegistry) -> MeasurementModel:
    """Rebuild a model from a checkpoint whose registry and head set must match."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["__meta__"][()]))
        if meta.get("format") == "measured-checkpoint-v1":
            raise ValueError(
                f"{path} is a measured-checkpoint-v1 file: v1 fingerprinted the "
                "registry file's text, comments and layout included, so its "
                f"registry cannot be checked; retrain to write {CHECKPOINT_FORMAT}"
            )
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a measured checkpoint: {path}")
        if meta["registry_fingerprint"] != registry.fingerprint:
            raise RegistryMismatch(
                "checkpoint was built against a registry with fingerprint "
                f"{meta['registry_fingerprint'][:12]}..., got "
                f"{registry.fingerprint[:12]}..."
            )
        encoder = HashedNgramEncoder(
            _from_meta(EncoderConfig, meta["encoder"]),
            seed=meta["encoder"]["seed"],
            W_S=z["encoder.W_S"],
        )
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
