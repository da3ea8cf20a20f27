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

All losses and locations use base-10 logarithms throughout, so a loss of 1
means "off by one decade".  Inference methods are pure given parameters and
safe for concurrent readers; only the training loop mutates parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from measured.data import MeasurementExample, NonPositiveNumber
from measured.encoding import EncoderConfig, HashedNgramEncoder
from measured.seeding import stream_rng
from measured.units import Dimension, Unit, UnitRegistry, convert

LN10 = math.log(10.0)
LAPLACE_SCALE = 1.0  # fixed; the number loss is plain L1 in log10 space

VARIANTS = (
    "dim",
    "dim-unit",
    "number",
    "dim-number",
    "joint",
    "joint-unit",
    "latent-dim",
)

# which heads each variant owns; number-head width is resolved per registry
_HEADS = {
    "dim": ("D",),
    "dim-unit": ("D", "U"),
    "number": ("Y",),
    "dim-number": ("D", "Y"),
    "joint": ("D", "U", "Y"),
    "joint-unit": ("D", "U", "Y"),
    "latent-dim": ("D", "Y"),
}


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
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")

    def number_columns(self, registry: UnitRegistry) -> int:
        """Width of the number head: |dims|, |units|, 1, or 0 if absent."""
        if self.variant in ("dim-number", "joint", "latent-dim"):
            return len(registry.dimensions)
        if self.variant == "joint-unit":
            return len(registry.units)
        if self.variant == "number":
            return 1
        return 0


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


def _logsumexp(z: np.ndarray) -> float:
    m = float(np.max(z))
    return m + math.log(float(np.sum(np.exp(z - m))))


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
        self._unit_dim_index = np.array(
            [registry.dimension_index(u.dimension) for u in registry.units]
        )

        m = spec.hidden_dim
        rng = stream_rng(seed, "head-init", spec.variant)
        bound = 1.0 / math.sqrt(m)
        self.params: dict[str, np.ndarray] = {}
        heads = _HEADS[spec.variant]
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

    # -- number model -----------------------------------------------------------

    def _number_column(
        self,
        dimension: Dimension | str | None,
        unit: Unit | str | None,
    ) -> int:
        variant = self.spec.variant
        if variant == "number":
            return 0
        if variant in ("dim-number", "joint", "latent-dim"):
            if dimension is None:
                raise ValueError(f"variant {variant!r} conditions on a dimension")
            return self.registry.dimension_index(
                dimension if isinstance(dimension, str) else dimension.name
            )
        if variant == "joint-unit":
            if unit is None:
                raise ValueError("variant 'joint-unit' conditions on a unit")
            return self.registry.unit_index(
                unit if isinstance(unit, str) else unit.name
            )
        raise MissingHead(f"variant {variant!r} has no number head")

    def number_nll(
        self,
        h: np.ndarray,
        canonical_number: float,
        *,
        dimension: Dimension | str | None = None,
        unit: Unit | str | None = None,
        include_normalization: bool = False,
    ) -> float:
        """Number loss ``|log10 y - mu|`` for the conditioning column.

        With ``include_normalization`` the Laplace normalizer and the
        log-space change-of-variable term are added, giving the full
        negative log10 density over the canonical value; both extra terms
        are constant in the parameters, so optimization never needs them.
        """
        if not canonical_number > 0:
            raise NonPositiveNumber(f"canonical number must be > 0, got {canonical_number}")
        col = self._number_column(dimension, unit)
        mu = float(self.number_locations(h)[col])
        t = math.log10(canonical_number)
        value = abs(t - mu) / LAPLACE_SCALE
        if include_normalization:
            value += math.log10(2.0 * LAPLACE_SCALE) + t
        return value

    def _mixture_log10_components(
        self, h: np.ndarray, canonical_number: float
    ) -> np.ndarray:
        """Natural-log summands ln p(d|h) - ln10 * fullNLL_d(y)."""
        log_prior = _log_softmax(self.dim_logits(h))
        mu = self.number_locations(h)
        t = math.log10(canonical_number)
        full_nll = (
            np.abs(t - mu) / LAPLACE_SCALE
            + math.log10(2.0 * LAPLACE_SCALE)
            + t
        )
        return log_prior - LN10 * full_nll

    def latdim_nll(self, h: np.ndarray, canonical_number: float) -> float:
        """Marginal number loss ``-log10 sum_d p(d|h) p(y|d,h)``.

        The per-component densities include their normalizers, so the
        mixture is a proper density over the canonical value; the sum runs
        through log-sum-exp for stability.
        """
        if self.spec.variant != "latent-dim":
            raise MissingHead("latdim_nll is defined for the 'latent-dim' variant")
        return self._mixture_nll(h, canonical_number)

    def _mixture_nll(self, h: np.ndarray, canonical_number: float) -> float:
        if not canonical_number > 0:
            raise NonPositiveNumber(f"canonical number must be > 0, got {canonical_number}")
        return -_logsumexp(self._mixture_log10_components(h, canonical_number)) / LN10

    # -- joint loss ---------------------------------------------------------------

    def joint_nll(self, h: np.ndarray, example: MeasurementExample) -> float:
        """Sum of the variant's loss terms for one example (base-10 logs)."""
        variant = self.spec.variant
        if variant == "latent-dim":
            return self._mixture_nll(h, example.canonical_number)
        total = 0.0
        if "D" in _HEADS[variant]:
            di = self.registry.dimension_index(example.dimension)
            total -= float(_log_softmax(self.dim_logits(h))[di]) / LN10
        if "U" in _HEADS[variant]:
            di = self.registry.dimension_index(example.dimension)
            ui = self.registry.unit_index(example.unit)
            allowed = self._dim_units[di]
            z = self.unit_logits(h)[allowed]
            pos = int(np.searchsorted(allowed, ui))
            total -= float(_log_softmax(z)[pos]) / LN10
        if "Y" in _HEADS[variant]:
            if variant == "joint-unit":
                total += self.number_nll(
                    h, example.canonical_number, unit=example.unit
                )
            else:
                total += self.number_nll(
                    h, example.canonical_number, dimension=example.dimension
                )
        return total

    # -- inference -------------------------------------------------------------

    def posterior_dim(self, h: np.ndarray, canonical_number: float) -> np.ndarray:
        """Dimension distribution after observing the canonical number.

        Bayes update of ``p(d|h)`` with the number density: the per-
        dimension density for ``dim-number``, or the dimension's units
        mixed by ``p(u|d,h)`` for ``joint-unit``.  Computed in log space.
        """
        if not canonical_number > 0:
            raise NonPositiveNumber(f"canonical number must be > 0, got {canonical_number}")
        variant = self.spec.variant
        t = math.log10(canonical_number)
        if variant == "dim-number":
            scores = self._mixture_log10_components(h, canonical_number)
        elif variant == "joint-unit":
            log_prior = _log_softmax(self.dim_logits(h))
            z = self.unit_logits(h)
            mu = self.number_locations(h)
            scores = np.empty(len(self.registry.dimensions))
            for di in range(len(self.registry.dimensions)):
                allowed = self._dim_units[di]
                log_pu = _log_softmax(z[allowed])
                log_dens = -LN10 * (np.abs(t - mu[allowed]) / LAPLACE_SCALE)
                scores[di] = log_prior[di] + _logsumexp(log_pu + log_dens)
        else:
            raise MissingHead(
                "posterior_dim needs a per-dimension or per-unit number head "
                f"(variant {variant!r})"
            )
        return _softmax(scores)

    def conditional_number(
        self,
        h: np.ndarray,
        condition: str,
        *,
        dimension: Dimension | str | None = None,
        unit: Unit | str | None = None,
    ) -> float:
        """Canonical number read from a chosen ("gold") or argmax column.

        ``condition="gold"`` uses the caller-supplied dimension (variant
        ``dim-number``) or unit (variant ``joint-unit``); ``"argmax"``
        ignores the arguments and uses the model's own top classes.
        """
        variant = self.spec.variant
        if variant not in ("dim-number", "joint-unit"):
            raise MissingHead(
                f"conditional_number needs variant 'dim-number' or 'joint-unit', "
                f"got {variant!r}"
            )
        if condition == "argmax":
            if variant == "dim-number":
                di = int(np.argmax(self.dim_logits(h)))
                dimension, unit = self.registry.dimensions[di], None
            else:
                di = int(np.argmax(self.dim_logits(h)))
                allowed = self._dim_units[di]
                z = self.unit_logits(h)[allowed]
                unit = self.registry.units[int(allowed[int(np.argmax(z))])]
                dimension = None
        elif condition != "gold":
            raise ValueError(f"condition must be 'gold' or 'argmax', got {condition!r}")
        col = self._number_column(dimension, unit)
        return 10.0 ** float(self.number_locations(h)[col])

    def mixture_median_location(self, h: np.ndarray) -> float:
        """Median of the dimension-mixture number distribution in log10 space."""
        prior = self.dim_distribution(h)
        mu = self.number_locations(h)

        def cdf(x: float) -> float:
            lo = x < mu
            vals = np.where(
                lo,
                0.5 * 10.0 ** ((x - mu) / LAPLACE_SCALE),
                1.0 - 0.5 * 10.0 ** (-(x - mu) / LAPLACE_SCALE),
            )
            return float(prior @ vals)

        lo, hi = float(mu.min()) - 20.0, float(mu.max()) + 20.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < 0.5:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        return 0.5 * (lo + hi)

    def predict_number(self, h: np.ndarray) -> float:
        """Canonical number predicted from text alone (marginal read-out)."""
        variant = self.spec.variant
        if variant == "number":
            return 10.0 ** float(self.number_locations(h)[0])
        if variant == "latent-dim" or (
            variant in ("dim-number", "joint")
            and self.spec.mixture_number_prediction
        ):
            return 10.0 ** self.mixture_median_location(h)
        if variant in ("dim-number", "joint"):
            di = int(np.argmax(self.dim_logits(h)))
            return 10.0 ** float(self.number_locations(h)[di])
        if variant == "joint-unit":
            di = int(np.argmax(self.dim_logits(h)))
            allowed = self._dim_units[di]
            z = self.unit_logits(h)[allowed]
            ui = int(allowed[int(np.argmax(z))])
            return 10.0 ** float(self.number_locations(h)[ui])
        raise MissingHead(f"variant {variant!r} has no number head")

    # -- batched inference (H has one row per example) ----------------------------

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
        """Vectorized :meth:`mixture_median_location` over rows of H."""
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
        """Vectorized :meth:`predict_number` over rows of H."""
        variant = self.spec.variant
        MU = self.number_locations(H)
        if variant == "number":
            return 10.0 ** MU[:, 0]
        if variant == "latent-dim" or (
            variant in ("dim-number", "joint")
            and self.spec.mixture_number_prediction
        ):
            return 10.0 ** self.mixture_median_locations(H)
        if variant in ("dim-number", "joint"):
            di = self.argmax_dimension_indices(H)
            return 10.0 ** MU[np.arange(len(H)), di]
        if variant == "joint-unit":
            di = self.argmax_dimension_indices(H)
            ui = self.argmax_unit_indices_given(H, di)
            return 10.0 ** MU[np.arange(len(H)), ui]
        raise MissingHead(f"variant {variant!r} has no number head")

    def predict(self, h: np.ndarray) -> Prediction:
        """Argmax dimension, argmax unit within it, and the located number.

        Ties break toward the lowest class index.  The surface number is
        the canonical number converted into the predicted unit.
        """
        variant = self.spec.variant
        if variant not in ("joint", "joint-unit"):
            raise MissingHead(
                f"full prediction needs dimension, unit, and number heads; "
                f"variant {variant!r} lacks some"
            )
        dim_probs = self.dim_distribution(h)
        di = int(np.argmax(dim_probs))
        dimension = self.registry.dimensions[di]
        unit_probs = self.unit_distribution(h, dimension)
        ui = int(np.argmax(unit_probs))
        unit = self.registry.units[ui]
        if variant == "joint":
            if self.spec.mixture_number_prediction:
                mu = self.mixture_median_location(h)
            else:
                mu = float(self.number_locations(h)[di])
        else:
            mu = float(self.number_locations(h)[ui])
        canonical = 10.0 ** mu
        surface = convert(
            canonical, self.registry.canonical_unit(dimension), unit
        )
        return Prediction(dimension, unit, canonical, surface, dim_probs, unit_probs)


# -- checkpoints -------------------------------------------------------------------

def save_model(model: MeasurementModel, path) -> None:
    """Write a single self-describing checkpoint file (npz) at exactly ``path``.

    ``np.savez`` appends ``.npz`` to a path without it, so it is handed an
    open file instead.
    """
    enc = model.encoder
    meta = {
        "format": "measured-checkpoint-v1",
        "variant": model.spec.variant,
        "hidden_dim": model.spec.hidden_dim,
        "mixture_number_prediction": model.spec.mixture_number_prediction,
        "head_seed": model.head_seed,
        "encoder": {
            "feature_dim": enc.config.feature_dim,
            "hidden_dim": enc.config.hidden_dim,
            "word_ngrams": list(enc.config.word_ngrams),
            "char_ngrams": list(enc.config.char_ngrams),
            "hash_seed": enc.config.hash_seed,
            "frozen": enc.config.frozen,
            "seed": enc.seed,
        },
        "registry_fingerprint": model.registry.fingerprint,
        "heads": sorted(model.params),
    }
    arrays = {f"head.{k}": v for k, v in model.params.items()}
    arrays["encoder.W_S"] = enc.W_S
    with open(path, "wb") as f:
        np.savez(f, __meta__=np.array(json.dumps(meta)), **arrays)


def load_model(path, registry: UnitRegistry) -> MeasurementModel:
    """Rebuild a model from a checkpoint; the registry must fingerprint-match."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["__meta__"][()]))
        if meta.get("format") != "measured-checkpoint-v1":
            raise ValueError(f"not a measured checkpoint: {path}")
        if meta["registry_fingerprint"] != registry.fingerprint:
            raise RegistryMismatch(
                "checkpoint was built against a registry with fingerprint "
                f"{meta['registry_fingerprint'][:12]}..., got "
                f"{registry.fingerprint[:12]}..."
            )
        enc_meta = meta["encoder"]
        config = EncoderConfig(
            feature_dim=int(enc_meta["feature_dim"]),
            hidden_dim=int(enc_meta["hidden_dim"]),
            word_ngrams=tuple(enc_meta["word_ngrams"]),
            char_ngrams=tuple(enc_meta["char_ngrams"]),
            hash_seed=int(enc_meta["hash_seed"]),
            frozen=bool(enc_meta["frozen"]),
        )
        encoder = HashedNgramEncoder(
            config, seed=int(enc_meta["seed"]), W_S=z["encoder.W_S"]
        )
        spec = ModelSpec(
            variant=meta["variant"],
            hidden_dim=int(meta["hidden_dim"]),
            mixture_number_prediction=bool(meta["mixture_number_prediction"]),
        )
        model = MeasurementModel(
            spec, registry, encoder, seed=int(meta["head_seed"])
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
