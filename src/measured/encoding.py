"""Text encoding: hashed n-gram features behind a trainable linear projection.

The model family only needs a map from masked text to a hidden vector
``h`` of width ``M`` plus access to the trainable parameters, so any encoder
honoring that contract can be swapped in.  The reference encoder here hashes
word and character n-grams into ``E`` buckets (seeded 64-bit FNV-1a, so
features are stable across platforms and processes), L2-normalizes the
counts, and projects with a single matrix:

    h = W_S^T x,   W_S in R^{E x M}

With ``frozen=True`` the projection keeps its random initialization and only
downstream heads train, which probes whether the fixed representation
already carries the task signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from measured.data import MeasurementExample, exponent_bin, tokenize
from measured.seeding import stream_rng

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_MIX = 0x9E3779B97F4A7C15


def _hash64(data: bytes, seed: int) -> int:
    h = (_FNV_OFFSET ^ ((seed * _SEED_MIX) & _MASK64)) or _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class EncoderConfig:
    feature_dim: int = 2**18
    hidden_dim: int = 256
    word_ngrams: tuple[int, ...] = (1, 2)
    char_ngrams: tuple[int, ...] = (3, 4)
    hash_seed: int = 0
    frozen: bool = False

    def validate(self) -> None:
        if self.feature_dim < 1 or self.hidden_dim < 1:
            raise ValueError("feature_dim and hidden_dim must be >= 1")
        if any(n < 1 for n in (*self.word_ngrams, *self.char_ngrams)):
            raise ValueError("n-gram orders must be >= 1")


@dataclass(frozen=True)
class FeatureVector:
    """Sparse L2-normalized feature counts: parallel (indices, values)."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        dense[self.indices] = self.values
        return dense


def ngram_strings(text: str, config: EncoderConfig) -> list[str]:
    """All word and character n-grams of the text, kind-tagged.

    Word n-grams run over the token sequence; character n-grams run inside
    each token with boundary markers, so an edit to one word only touches
    n-grams containing that word.  Mask tokens are ordinary tokens.
    """
    tokens = tokenize(text)
    grams: list[str] = []
    for n in config.word_ngrams:
        for i in range(len(tokens) - n + 1):
            grams.append(f"w{n}:" + " ".join(tokens[i : i + n]))
    for n in config.char_ngrams:
        for token in tokens:
            marked = f"<{token}>"
            for i in range(len(marked) - n + 1):
                grams.append(f"c{n}:" + marked[i : i + n])
    return grams


def featurize(text: str, config: EncoderConfig) -> FeatureVector:
    """Hash n-gram counts into ``feature_dim`` buckets and L2-normalize."""
    counts: dict[int, float] = {}
    for gram in ngram_strings(text, config):
        bucket = _hash64(gram.encode("utf-8"), config.hash_seed) % config.feature_dim
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    if not counts:
        return FeatureVector(
            np.empty(0, dtype=np.int64), np.empty(0), config.feature_dim
        )
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices])
    values /= np.linalg.norm(values)
    return FeatureVector(indices, values, config.feature_dim)


def feature_matrix(features: list[FeatureVector], dim: int) -> sparse.csr_matrix:
    """Stack feature vectors into one CSR matrix (rows follow input order)."""
    indptr = np.zeros(len(features) + 1, dtype=np.int64)
    for i, fv in enumerate(features):
        indptr[i + 1] = indptr[i] + len(fv.indices)
    indices = (
        np.concatenate([fv.indices for fv in features])
        if features
        else np.empty(0, dtype=np.int64)
    )
    values = np.concatenate([fv.values for fv in features]) if features else np.empty(0)
    return sparse.csr_matrix((values, indices, indptr), shape=(len(features), dim))


class HashedNgramEncoder:
    """Reference encoder: hashed n-gram featurizer with linear projection.

    The trainable surface is the single projection matrix ``W_S`` (empty
    when frozen); gradient flow uses :meth:`encode_matrix` plus
    :meth:`projection_gradient` on a batch feature matrix.  ``W_S`` is drawn
    from ``seed`` unless a stored matrix is given, as when loading a
    checkpoint.
    """

    def __init__(
        self, config: EncoderConfig, seed: int = 0, W_S: np.ndarray | None = None
    ):
        config.validate()
        self.config = config
        self.seed = seed
        shape = (config.feature_dim, config.hidden_dim)
        if W_S is None:
            bound = 1.0 / np.sqrt(config.feature_dim)
            W_S = stream_rng(seed, "encoder-init").uniform(-bound, bound, size=shape)
        elif W_S.shape != shape:
            raise ValueError(f"W_S shape {W_S.shape} != {shape}")
        self.W_S = W_S

    @property
    def hidden_dim(self) -> int:
        return self.config.hidden_dim

    @property
    def frozen(self) -> bool:
        return self.config.frozen

    def featurize(self, text: str) -> FeatureVector:
        return featurize(text, self.config)

    def encode_features(self, fv: FeatureVector) -> np.ndarray:
        if len(fv.indices) == 0:
            return np.zeros(self.config.hidden_dim)
        return fv.values @ self.W_S[fv.indices]

    def encode(self, text: str) -> np.ndarray:
        """Hidden vector for one text: ``W_S^T featurize(text)``."""
        return self.encode_features(self.featurize(text))

    def feature_matrix(self, texts: list[str]) -> sparse.csr_matrix:
        return feature_matrix(
            [self.featurize(t) for t in texts], self.config.feature_dim
        )

    def encode_matrix(self, X: sparse.csr_matrix) -> np.ndarray:
        """Batch hidden vectors, one row per feature-matrix row."""
        return X @ self.W_S

    def projection_gradient(
        self, X: sparse.csr_matrix, dH: np.ndarray
    ) -> np.ndarray:
        """d(loss)/d(W_S) given d(loss)/d(H) for the batch encoded from X.

        Row-sparse by construction: only the rows of X's distinct columns
        are nonzero, and scipy accumulates the sparse-times-dense product
        into a fresh zero array, writing those rows only.  (Compacting the
        columns first computes the same rows, but through an extra
        intermediate: about 4x the page faults and no faster.)
        """
        return np.asarray(X.T @ dH)

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        return {} if self.frozen else {"W_S": self.W_S}

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W_S": self.W_S}


def export_embeddings(
    encoder: HashedNgramEncoder,
    examples: list[MeasurementExample],
    sink,
) -> int:
    """Write one TSV row per example: hidden vector plus labels.

    Columns: ``h_0..h_{M-1}``, then the example's dimension name, unit name,
    and base-10 exponent bin of the canonical number.  ``sink`` is a path or
    a writable text file.  Returns the number of rows written.
    """
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    f = open(sink, "w", encoding="utf-8") if own else sink
    try:
        m = encoder.hidden_dim
        header = [f"h_{i}" for i in range(m)] + ["dimension", "unit", "exponent_bin"]
        f.write("\t".join(header) + "\n")
        for ex in examples:
            h = encoder.encode(ex.masked_text)
            row = ["%.8g" % v for v in h] + [
                ex.dimension.name,
                ex.unit.name,
                str(exponent_bin(ex.canonical_number)),
            ]
            f.write("\t".join(row) + "\n")
    finally:
        if own:
            f.close()
    return len(examples)
