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

A batch learns ahead.  ``feature_matrix`` featurizes text by text, and after
a text that missed more memo keys than it hit, it takes the texts ahead of
it for as long as all their keys fit in ``_MEMO_CAPACITY`` and hashes every
one the memo lacks in numpy passes of ``_HASH_BLOCK`` keys
(:func:`_hash_keys`); those texts then featurize from memo hits alone.  If the new keys do not fit beside the
memo's entries, the memo is cleared but keeps the entries those texts need.
A text with more keys than the capacity takes the serial path.  Either way
the memo never holds more than ``_MEMO_CAPACITY`` entries, and every entry
is the same bytes the serial path stores.

The initial ``W_S`` is a pure function of (seed, shape): one serial
``uniform`` over the table from the ``encoder-init`` stream.  PCG64 can jump
ahead, so :func:`init_blocks` draws any row range on its own, and
:func:`draw_init` draws the table in parallel row ranges, bit for bit the
same.  A checkpoint therefore stores only the rows that differ from it.

With ``frozen=True`` the projection keeps its random initialization and only
downstream heads train, which probes whether the fixed representation
already carries the task signal.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from measured.data import tokenize
from measured.seeding import stream_rng

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEED_MIX = 0x9E3779B97F4A7C15
# memo entries per encoder; a full memo is cleared, not evicted entry by entry
_MEMO_CAPACITY = 2**14
# keys per batch hashing pass, which bounds the pass's transient arrays
_HASH_BLOCK = 2**11
# W_S init rows per uniform() call, and the fewest rows worth a thread
_DRAW_BLOCK = 64
_DRAW_MIN_ROWS = 2**14


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

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.hidden_dim < 1:
            raise ValueError("feature_dim and hidden_dim must be >= 1")
        if any(n < 1 for n in (*self.word_ngrams, *self.char_ngrams)):
            raise ValueError("n-gram orders must be >= 1")
        if not (self.word_ngrams or self.char_ngrams):
            raise ValueError("need at least one word or character n-gram order")


@dataclass(frozen=True)
class FeatureVector:
    """Sparse L2-normalized feature counts: parallel (indices, values)."""

    indices: np.ndarray
    values: np.ndarray
    dim: int


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
) -> tuple[FeatureVector, bool]:
    """:func:`featurize` through ``memo``: token -> its grams' ids, phrase -> id;
    and whether the text's memo lookups missed more often than they hit.

    Tokens never contain whitespace and phrases always do, so the two kinds
    of key cannot collide.
    """
    tokens = tokenize(text)
    phrases = _phrase_grams(tokens, config)
    dim = config.feature_dim
    parts = []
    misses = 0
    for token in tokens:
        ids = memo.get(token)
        if ids is None:
            misses += 1
            ids = _remember(memo, token, _token_grams(token, config), prefixes, dim)
        parts.append(ids)
    for kind, phrase in phrases:
        ids = memo.get(phrase)
        if ids is None:
            misses += 1
            ids = _remember(memo, phrase, [(kind, phrase)], prefixes, dim)
        parts.append(ids)
    buckets = np.frombuffer(b"".join(parts), dtype=np.int64)
    indices, counts = np.unique(buckets, return_counts=True)
    values = counts.astype(np.float64)
    values /= np.linalg.norm(values)
    return FeatureVector(indices, values, dim), 2 * misses > len(tokens) + len(phrases)


def _fnv1a_windows(
    buf: np.ndarray, start: np.ndarray, length: np.ndarray, state: np.ndarray
) -> np.ndarray:
    """:func:`_fnv1a` of every byte window ``buf[start : start + length]``, each
    continued from its own ``uint64`` ``state``, all at once.

    The windows are sorted longest first, so byte ``k`` of every window
    longer than ``k`` is mixed in by one step over a leading slice.
    """
    order = np.argsort(-length, kind="stable")
    start, h = start[order], state[order]
    longest_first = -length[order]
    active = np.searchsorted(longest_first, -np.arange(length.max(initial=0)))
    for k, n in enumerate(active.tolist()):
        h[:n] ^= buf[start[:n] + k]
        h[:n] *= np.uint64(_FNV_PRIME)
    out = np.empty_like(h)
    out[order] = h
    return out


def _hash_keys(
    keys: list[tuple[str | None, str]], config: EncoderConfig, prefixes: dict[str, int]
) -> list[bytes]:
    """What :func:`_remember` stores for each ``(None, token)`` or ``(kind,
    phrase)``, hashed in one pass.

    The marked tokens and the phrases are joined into one UTF-8 buffer whose
    code points start at the bytes that are not ``10xxxxxx``, so every
    n-gram is a window of whole code points found by index arithmetic.
    Each key's ids are packed in :func:`_token_grams` order.
    """
    strings = [key if kind else f"<{key}>" for kind, key in keys]
    buf = np.frombuffer("".join(strings).encode("utf-8"), dtype=np.uint8)
    at = np.append(np.flatnonzero((buf & 0xC0) != 0x80), len(buf))
    size = np.array([len(s) for s in strings], dtype=np.int64)
    first = np.cumsum(size) - size
    n = len(strings)
    token = np.array([kind is None for kind, _ in keys], dtype=np.int64)
    phrase_state = [prefixes[kind] if kind else 0 for kind, _ in keys]
    # gram families: per key, the kind's FNV-1a state, the code point of its
    # first gram, the gram width and the number of grams
    families = [
        (prefixes["w1"], first + 1, size - 2, token) for k in config.word_ngrams if k == 1
    ]
    families += [
        (prefixes[f"c{k}"], first, k, token * np.maximum(size - k + 1, 0))
        for k in config.char_ngrams
    ]
    families.append((phrase_state, first, size, 1 - token))
    state, begin, width, count = (
        np.concatenate([np.broadcast_to(np.asarray(f[j], dtype), n) for f in families])
        for j, dtype in enumerate((np.uint64, np.int64, np.int64, np.int64))
    )
    # a key's ids are packed family after family; slot[f, key] is where
    # family f's ids of that key start in the packed output
    per_key = count.reshape(len(families), n)
    grams = per_key.sum(axis=0)
    slot = (np.cumsum(grams) - grams) + (np.cumsum(per_key, axis=0) - per_key)
    family = np.repeat(np.arange(len(count)), count)
    i = np.arange(len(family)) - np.repeat(np.cumsum(count) - count, count)
    char = begin[family] + i
    start = at[char]
    h = _fnv1a_windows(buf, start, at[char + width[family]] - start, state[family])
    ids = np.empty(len(h), dtype=np.int64)
    ids[slot.ravel()[family] + i] = h % np.uint64(config.feature_dim)
    raw = ids.tobytes()
    bounds = [0, *(8 * np.cumsum(grams)).tolist()]
    return [raw[a:b] for a, b in zip(bounds, bounds[1:])]


def _learn_ahead(texts, config: EncoderConfig, prefixes: dict[str, int], memo: dict) -> None:
    """Hash every key of the leading ``texts`` that ``memo`` lacks, in numpy
    passes of ``_HASH_BLOCK`` keys.

    Takes texts while all their keys fit in ``_MEMO_CAPACITY``, so a first
    text with more keys than that is left to the serial path.  When the new
    keys do not fit beside the memo's entries, the memo is cleared but keeps
    the entries the taken texts need.
    """
    wanted: dict[str, str | None] = {}  # token -> None, phrase -> its kind
    for text in texts:
        tokens = tokenize(text)
        keys = dict.fromkeys(tokens)
        keys.update((phrase, kind) for kind, phrase in _phrase_grams(tokens, config))
        fresh = {key: kind for key, kind in keys.items() if key not in wanted}
        if len(wanted) + len(fresh) > _MEMO_CAPACITY:
            break
        wanted.update(fresh)
    kept, missing = {}, []
    for key, kind in wanted.items():
        ids = memo.get(key)
        if ids is None:
            missing.append((kind, key))
        else:
            kept[key] = ids
    try:
        hashed = [
            ids
            for lo in range(0, len(missing), _HASH_BLOCK)
            for ids in _hash_keys(missing[lo : lo + _HASH_BLOCK], config, prefixes)
        ]
    except UnicodeEncodeError:
        return  # the serial path raises only where an n-gram holds the bad text
    if len(memo) + len(hashed) > _MEMO_CAPACITY:
        memo.clear()
        memo.update(kept)
    memo.update(zip((key for _, key in missing), hashed))


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


class RowGradient(np.ndarray):
    """A gradient whose ``rows`` (sorted, distinct) are its only nonzero rows.

    Only :meth:`HashedNgramEncoder.projection_gradient` sets ``rows``.  No
    ``__array_finalize__`` carries it over, so an array derived from one
    (``-g``, ``g.copy()``, ``g[r]``, ``np.roll(g, 1, axis=0)``) has
    ``rows is None``.
    """

    rows: np.ndarray | None = None


def init_blocks(seed: int, shape: tuple[int, int], lo: int, hi: int):
    """Yield ``(start, block)`` of ``_DRAW_BLOCK`` rows covering rows [lo, hi)
    of the initial ``W_S``.  numpy draws one 64-bit output per double, so
    jumping the stream ahead by ``lo * M`` outputs starts at row ``lo``."""
    bound = 1.0 / np.sqrt(shape[0])
    bits = stream_rng(seed, "encoder-init").bit_generator
    bits.advance(lo * shape[1])
    rng = np.random.Generator(bits)
    for start in range(lo, hi, _DRAW_BLOCK):
        rows = min(_DRAW_BLOCK, hi - start)
        yield start, rng.uniform(-bound, bound, size=(rows, shape[1]))


def _over_row_ranges(rows: int, work) -> list:
    """``work(lo, hi)`` over consecutive ranges covering [0, rows), one thread
    per CPU this process may use but at least ``_DRAW_MIN_ROWS`` rows each;
    the results in range order.  A worker's exception re-raises here, after
    every worker has stopped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(cpus, rows // _DRAW_MIN_ROWS))
    bounds = [rows * i // n for i in range(n + 1)]
    with ThreadPoolExecutor(n) as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return [f.result() for f in futures]


def draw_init(seed: int, shape: tuple[int, int]) -> np.ndarray:
    """The initial ``W_S``, drawn by :func:`init_blocks` in parallel row ranges."""
    W = np.empty(shape)

    def fill(lo, hi):
        for start, block in init_blocks(seed, shape, lo, hi):
            W[start : start + len(block)] = block

    _over_row_ranges(shape[0], fill)
    return W


def featurize(text: str, config: EncoderConfig) -> FeatureVector:
    """Hash n-gram counts into ``feature_dim`` buckets and L2-normalize."""
    return _featurize(text, config, _prefix_states(config), {})[0]


class HashedNgramEncoder:
    """Reference encoder: hashed n-gram featurizer with linear projection.

    The trainable surface is the single projection matrix ``W_S`` (empty
    when frozen); gradient flow uses :meth:`encode_matrix` plus
    :meth:`projection_gradient` on a batch feature matrix; one text takes
    :meth:`encode`, a gather of its own ``W_S`` rows with no CSR matrix.
    ``W_S`` is :func:`draw_init` of ``seed`` unless a stored matrix is given,
    as when loading a checkpoint; :meth:`moved_rows` names the rows that
    differ from that init.

    :meth:`featurize` hashes through the encoder's own memo (see the module
    docstring): at most ``_MEMO_CAPACITY`` entries, cleared when full, empty
    on construction.  :meth:`feature_matrix` learns ahead: after a text that
    missed more memo keys than it hit, it hashes the keys the memo lacks of
    as many texts ahead as the memo can hold in numpy passes, clearing the memo
    but for the entries those texts need when the new keys do not fit.
    Every entry is a pure function of the config, so
    concurrent readers under the GIL stay correct: a lost insert or an
    extra clear only costs a recomputation, the memo may briefly hold
    one entry per racing thread beyond its capacity, and a racing miss
    count only decides whether a batch learns ahead.  One encoder trains in
    one thread only: :meth:`projection_gradient` returns a view of its one
    ``W_S`` gradient buffer, which the next call overwrites.
    """

    def __init__(
        self, config: EncoderConfig, seed: int = 0, W_S: np.ndarray | None = None
    ):
        self.config = config
        self.seed = seed
        shape = (config.feature_dim, config.hidden_dim)
        if W_S is None:
            W_S = draw_init(seed, shape)
        elif W_S.shape != shape:
            raise ValueError(f"W_S shape {W_S.shape} != {shape}")
        self.W_S = W_S
        self._prefixes = _prefix_states(config)
        self._memo: dict[str, bytes] = {}
        self._missed_most = False  # by the last featurize's memo lookups
        self._grad, self._grad_rows = None, np.empty(0, dtype=np.int64)

    @property
    def hidden_dim(self) -> int:
        return self.config.hidden_dim

    @property
    def frozen(self) -> bool:
        return self.config.frozen

    def featurize(self, text: str) -> FeatureVector:
        fv, self._missed_most = _featurize(text, self.config, self._prefixes, self._memo)
        return fv

    def encode(self, text: str) -> np.ndarray:
        """Hidden vector for one text: ``W_S^T featurize(text)``."""
        fv = self.featurize(text)
        if len(fv.indices) == 0:
            return np.zeros(self.config.hidden_dim)
        return fv.values @ self.W_S[fv.indices]

    def feature_matrix(self, texts: list[str]) -> sparse.csr_matrix:
        """The texts' feature vectors stacked into one CSR matrix, in input order.

        Each text goes through :meth:`featurize`; after one that missed more
        memo keys than it hit, the texts ahead learn their keys in numpy passes.
        """
        features = []
        for i, text in enumerate(texts):
            features.append(self.featurize(text))
            if self._missed_most and i + 1 < len(texts):
                rest = itertools.islice(texts, i + 1, None)
                _learn_ahead(rest, self.config, self._prefixes, self._memo)
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
    ) -> RowGradient:
        """d(loss)/d(W_S) given d(loss)/d(H) for the batch encoded from X.

        Only the rows of X's distinct columns are nonzero; they equal
        ``X.T @ dH`` bit for bit, computed on those columns alone (both add
        into a row in batch-row order), and the result's ``rows`` lists them
        (see :class:`RowGradient`).  The result is a view of the encoder's one
        small-page buffer, which the next call overwrites after re-zeroing
        the rows this call wrote: train from one thread only.
        """
        if self._grad is None:
            self._grad = _small_page_zeros(self.W_S.shape, self.W_S.dtype)
        self._grad[self._grad_rows] = 0.0
        cols, pos = np.unique(X.indices, return_inverse=True)
        compact = sparse.csr_matrix((X.data, pos, X.indptr), (X.shape[0], len(cols)))
        self._grad[cols] = compact.T @ dH
        self._grad_rows = cols
        grad = self._grad.view(RowGradient)
        grad.rows = cols
        return grad

    def moved_rows(self) -> np.ndarray:
        """Sorted ids of the ``W_S`` rows whose bits differ from the init,
        streamed against it block by block: no second table is held."""
        W = self.W_S.view(np.uint64)

        def moved(lo, hi):
            found = [np.empty(0, dtype=np.int64)]
            for start, block in init_blocks(self.seed, W.shape, lo, hi):
                differ = W[start : start + len(block)] != block.view(np.uint64)
                found.append(start + np.flatnonzero(differ.any(axis=1)))
            return np.concatenate(found)

        return np.concatenate(_over_row_ranges(W.shape[0], moved))

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        return {} if self.frozen else {"W_S": self.W_S}

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W_S": self.W_S}
