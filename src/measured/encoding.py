"""Text encoding: hashed n-gram features behind a trainable linear projection.

The model family only needs a map from masked text to a hidden vector
``h`` of width ``M`` plus access to the trainable parameters, so any encoder
honoring that contract can be swapped in.  The reference encoder here hashes
word and character n-grams into ``E`` buckets (seeded 64-bit FNV-1a, so
features are stable across platforms and processes), L2-normalizes the
counts, and projects with a single matrix:

    h = W_S^T x,   W_S in R^{E x M}

Each encoder hashes a distinct token once: it keeps a per-encoder memo from
a token to the bucket ids of its own n-grams, and from a word n-gram to its
bucket id.  The memo holds at most ``_MEMO_CAPACITY`` entries and is cleared
when full; it starts empty whenever an encoder is built.  A miss hashes only
the n-gram's own bytes, continuing from the FNV-1a state after its kind
prefix (``w1:``, ``c3:``, ...), which the encoder computes once.

With ``frozen=True`` the projection keeps its random initialization and only
downstream heads train, which probes whether the fixed representation
already carries the task signal.
"""

from __future__ import annotations

import contextlib
import mmap
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from measured.data import MeasurementExample, exponent_bin, tokenize
from measured.seeding import stream_rng

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_MIX = 0x9E3779B97F4A7C15
# memo entries per encoder; a full memo is cleared, not evicted entry by entry
_MEMO_CAPACITY = 2**14


def _fnv1a(data: bytes, h: int) -> int:
    """Continue a 64-bit FNV-1a hash from state ``h`` over ``data``."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _hash64(data: bytes, seed: int) -> int:
    return _fnv1a(data, (_FNV_OFFSET ^ ((seed * _SEED_MIX) & _MASK64)) or _FNV_OFFSET)


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


def _token_grams(token: str, config: EncoderConfig) -> list[tuple[str, str]]:
    """A token's own n-grams as ``(kind, text)``: ``w1`` and its character n-grams.

    Character n-grams run inside the token with boundary markers, so an
    edit to one word only touches n-grams containing that word.
    """
    grams = [("w1", token) for n in config.word_ngrams if n == 1]
    marked = f"<{token}>"
    for n in config.char_ngrams:
        kind = f"c{n}"
        grams += [(kind, marked[i : i + n]) for i in range(len(marked) - n + 1)]
    return grams


def _phrase_grams(tokens: list[str], config: EncoderConfig) -> list[tuple[str, str]]:
    """Word n-grams of order >= 2 over the token sequence, as ``(kind, text)``."""
    grams = []
    for n in config.word_ngrams:
        if n >= 2:
            kind = f"w{n}"
            spans = range(len(tokens) - n + 1)
            grams += [(kind, " ".join(tokens[i : i + n])) for i in spans]
    return grams


def ngram_strings(text: str, config: EncoderConfig) -> list[str]:
    """All word and character n-grams of the text, kind-tagged (``w2:a b``).

    The list is the multiset that :func:`featurize` hashes; its order is not
    meaningful.  Mask tokens are ordinary tokens.
    """
    tokens = tokenize(text)
    grams = [g for token in tokens for g in _token_grams(token, config)]
    return [f"{kind}:{body}" for kind, body in grams + _phrase_grams(tokens, config)]


def _prefix_states(config: EncoderConfig) -> dict[str, int]:
    """FNV-1a state after each kind prefix (``w1:``, ``c3:``, ...)."""
    kinds = [f"w{n}" for n in config.word_ngrams]
    kinds += [f"c{n}" for n in config.char_ngrams]
    return {kind: _hash64(f"{kind}:".encode(), config.hash_seed) for kind in kinds}


def _remember(memo: dict, key: str, grams, prefixes: dict[str, int], dim: int) -> bytes:
    """Hash ``grams`` into packed int64 bucket ids and store them under ``key``."""
    ids = np.array(
        [_fnv1a(body.encode("utf-8"), prefixes[kind]) % dim for kind, body in grams],
        dtype=np.int64,
    ).tobytes()
    if len(memo) >= _MEMO_CAPACITY:
        memo.clear()
    memo[key] = ids
    return ids


def _featurize(
    text: str, config: EncoderConfig, prefixes: dict[str, int], memo: dict
) -> FeatureVector:
    """:func:`featurize` through ``memo``: token -> its grams' ids, phrase -> id.

    Tokens never contain whitespace and phrases always do, so the two kinds
    of key cannot collide.
    """
    tokens = tokenize(text)
    dim = config.feature_dim
    parts = []
    for token in tokens:
        ids = memo.get(token)
        if ids is None:
            ids = _remember(memo, token, _token_grams(token, config), prefixes, dim)
        parts.append(ids)
    for kind, phrase in _phrase_grams(tokens, config):
        ids = memo.get(phrase)
        if ids is None:
            ids = _remember(memo, phrase, [(kind, phrase)], prefixes, dim)
        parts.append(ids)
    buckets = np.frombuffer(b"".join(parts), dtype=np.int64)
    indices, counts = np.unique(buckets, return_counts=True)
    values = counts.astype(np.float64)
    values /= np.linalg.norm(values)
    return FeatureVector(indices, values, dim)


def _small_page_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zeros whose memory is mapped 4 KiB page by page as rows are written.

    numpy advises the kernel to back large arrays with 2 MiB huge pages, so
    writing a few thousand scattered rows would map and zero nearly all of
    an ``np.zeros`` array.  A private anonymous mapping advised against huge
    pages maps only the pages of the rows written; a kernel that refuses the
    advice leaves it unadvised.  Elsewhere this is plain ``np.zeros``.
    """
    if not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros(shape, dtype)
    nbytes = np.prod(shape) * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(OSError):  # EINVAL without transparent huge pages
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype).reshape(shape)


def featurize(text: str, config: EncoderConfig) -> FeatureVector:
    """Hash n-gram counts into ``feature_dim`` buckets and L2-normalize."""
    return _featurize(text, config, _prefix_states(config), {})


class HashedNgramEncoder:
    """Reference encoder: hashed n-gram featurizer with linear projection.

    The trainable surface is the single projection matrix ``W_S`` (empty
    when frozen); gradient flow uses :meth:`encode_matrix` plus
    :meth:`projection_gradient` on a batch feature matrix; one text takes
    :meth:`encode`, a gather of its own ``W_S`` rows with no CSR matrix.
    ``W_S`` is drawn from ``seed`` unless a stored matrix is given, as when
    loading a checkpoint.

    :meth:`featurize` hashes through the encoder's own memo (see the module
    docstring): at most ``_MEMO_CAPACITY`` entries, cleared when full, empty
    on construction.  Every entry is a pure function of the config, so
    concurrent readers under the GIL stay correct: a lost insert or an
    extra clear only costs a recomputation, and the memo may briefly hold
    one entry per racing thread beyond its capacity.  One encoder trains in
    one thread only: :meth:`projection_gradient` returns a view of its one
    ``W_S`` gradient buffer, which the next call overwrites.
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
        self._prefixes = _prefix_states(config)
        self._memo: dict[str, bytes] = {}
        self._grad, self._grad_rows = None, np.empty(0, dtype=np.int64)

    @property
    def hidden_dim(self) -> int:
        return self.config.hidden_dim

    @property
    def frozen(self) -> bool:
        return self.config.frozen

    def featurize(self, text: str) -> FeatureVector:
        return _featurize(text, self.config, self._prefixes, self._memo)

    def encode(self, text: str) -> np.ndarray:
        """Hidden vector for one text: ``W_S^T featurize(text)``."""
        fv = self.featurize(text)
        if len(fv.indices) == 0:
            return np.zeros(self.config.hidden_dim)
        return fv.values @ self.W_S[fv.indices]

    def feature_matrix(self, texts: list[str]) -> sparse.csr_matrix:
        """The texts' feature vectors stacked into one CSR matrix, in input order."""
        features = [self.featurize(t) for t in texts]
        indptr = np.zeros(len(features) + 1, dtype=np.int64)
        for i, fv in enumerate(features):
            indptr[i + 1] = indptr[i] + len(fv.indices)
        indices = (
            np.concatenate([fv.indices for fv in features])
            if features
            else np.empty(0, dtype=np.int64)
        )
        values = (
            np.concatenate([fv.values for fv in features]) if features else np.empty(0)
        )
        shape = (len(features), self.config.feature_dim)
        return sparse.csr_matrix((values, indices, indptr), shape=shape)

    def encode_matrix(self, X: sparse.csr_matrix) -> np.ndarray:
        """Batch hidden vectors, one row per feature-matrix row."""
        return X @ self.W_S

    def projection_gradient(
        self, X: sparse.csr_matrix, dH: np.ndarray
    ) -> np.ndarray:
        """d(loss)/d(W_S) given d(loss)/d(H) for the batch encoded from X.

        Only the rows of X's distinct columns are nonzero; they equal
        ``X.T @ dH`` bit for bit, computed on those columns alone (both add
        into a row in batch-row order).  The result is a view of the
        encoder's one small-page buffer, which the next call overwrites after
        re-zeroing the rows this call wrote: train from one thread only.
        """
        if self._grad is None:
            self._grad = _small_page_zeros(self.W_S.shape, self.W_S.dtype)
        self._grad[self._grad_rows] = 0.0
        cols, pos = np.unique(X.indices, return_inverse=True)
        compact = sparse.csr_matrix((X.data, pos, X.indptr), (X.shape[0], len(cols)))
        self._grad[cols] = compact.T @ dH
        self._grad_rows = cols
        return self._grad.view()

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
