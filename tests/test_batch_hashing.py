"""The batch pass of ``feature_matrix``: one numpy FNV-1a pass over the keys
the memo lacks, against the serial per-gram ``_fnv1a``.

The oracle is ``_remember``, which hashes a key's n-grams one by one in
Python; the batch pass must store the same bytes for every key.  The memo
and trigger tests spy on the module's functions to see which path ran.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from measured import encoding
from measured.data import tokenize
from measured.encoding import (
    EncoderConfig,
    HashedNgramEncoder,
    _hash_keys,
    _phrase_grams,
    _prefix_states,
    _remember,
    _token_grams,
    featurize,
)
from tests.test_feature_hashing import random_letter_texts

CONFIGS = [
    EncoderConfig(),
    EncoderConfig(feature_dim=1000, word_ngrams=(2, 3), char_ngrams=(1, 2, 5), hash_seed=7),
    EncoderConfig(feature_dim=777, word_ngrams=(2, 1, 1), char_ngrams=(3, 3), hash_seed=99),
    EncoderConfig(feature_dim=2**12, word_ngrams=(1,), char_ngrams=(6,), hash_seed=2**40),
]
CONFIG_IDS = ["default", "no-w1", "repeated-orders", "long-orders"]

# ASCII, then 2-, 3- and 4-byte UTF-8 letters
ALPHABETS = ["abcxyz.-[]#", "éµ°ßñ", "€中あ", "𝛼😀𐍈"]


def random_tokens(n, seed):
    rng = np.random.default_rng(seed)
    letters = [c for alphabet in ALPHABETS for c in alphabet]
    tokens = {
        "".join(rng.choice(letters, size=rng.integers(1, 12))) for _ in range(n)
    }
    # shorter than every char order of every config, and one per alphabet
    tokens |= {"a", "é", "中", "😀", "ab", "😀a"}
    tokens |= {alphabet * 2 for alphabet in ALPHABETS}
    return sorted(tokens)


def serial_ids(key, grams, config):
    return _remember({}, key, grams, _prefix_states(config), config.feature_dim)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_batch_hasher_matches_serial_fnv1a(config):
    tokens = random_tokens(300, seed=config.feature_dim)
    keys = [(None, token) for token in tokens]
    keys += list(dict.fromkeys(_phrase_grams(tokens, config)))
    keys = [keys[i] for i in np.random.default_rng(0).permutation(len(keys))]
    hashed = _hash_keys(keys, config, _prefix_states(config))
    assert len(hashed) == len(keys)
    for (kind, key), ids in zip(keys, hashed):
        grams = [(kind, key)] if kind else _token_grams(key, config)
        assert ids == serial_ids(key, grams, config), key


def test_batch_hasher_handles_no_keys_and_gramless_tokens():
    config = EncoderConfig(word_ngrams=(2,), char_ngrams=(5,))
    assert _hash_keys([], config, _prefix_states(config)) == []
    assert _hash_keys([(None, "ab")], config, _prefix_states(config)) == [b""]


def stacked(texts, config):
    """The per-text reference: module ``featurize`` of each text, as CSR."""
    fvs = [featurize(text, config) for text in texts]
    indptr = np.cumsum([0] + [len(fv.indices) for fv in fvs])
    indices = np.concatenate([fv.indices for fv in fvs] + [np.empty(0, np.int64)])
    values = np.concatenate([fv.values for fv in fvs] + [np.empty(0)])
    return sparse.csr_matrix((values, indices, indptr), (len(texts), config.feature_dim))


def assert_same_csr(X, Y):
    for field in ("indices", "data", "indptr"):
        a, b = getattr(X, field), getattr(Y, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), field


@pytest.mark.parametrize("block", [7, encoding._HASH_BLOCK])
@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_feature_matrix_of_miss_dense_text_equals_per_text_featurize(
    config, block, monkeypatch
):
    monkeypatch.setattr(encoding, "_HASH_BLOCK", block)
    texts = [" ".join(random_tokens(12, seed)) for seed in range(40)]
    encoder = HashedNgramEncoder(replace(config, hidden_dim=1))
    for _ in range(2):  # cold, then with the memo the first call left
        assert_same_csr(encoder.feature_matrix(texts), stacked(texts, encoder.config))


def test_lone_surrogate_still_raises_unicode_encode_error():
    encoder = HashedNgramEncoder(EncoderConfig(feature_dim=2**10, hidden_dim=1))
    with pytest.raises(UnicodeEncodeError):
        encoder.feature_matrix(["a fresh start", "then a bad \ud800 token", "after"])


def test_lone_surrogate_in_no_hashed_ngram_does_not_raise():
    """Serially, a token with no n-gram of its own is never encoded."""
    config = EncoderConfig(feature_dim=2**10, hidden_dim=1, word_ngrams=(3,),
                           char_ngrams=(5,))
    texts = ["a fresh start here", "\ud800", "then more words"]
    encoder = HashedNgramEncoder(config)
    assert_same_csr(encoder.feature_matrix(texts), stacked(texts, config))


# -- the memo's capacity and the trigger ----------------------------------------------

SMALL = EncoderConfig(feature_dim=2**12, hidden_dim=1)


def memo_sizes(encoder, monkeypatch):
    """Record ``len(encoder._memo)`` after every featurize and batch pass."""
    sizes = []
    featurize_one = encoder.featurize
    learn_ahead = encoding._learn_ahead

    def spy_featurize(text):
        fv = featurize_one(text)
        sizes.append(len(encoder._memo))
        return fv

    def spy_learn_ahead(*args):
        learn_ahead(*args)
        sizes.append(len(encoder._memo))

    monkeypatch.setattr(encoder, "featurize", spy_featurize)
    monkeypatch.setattr(encoding, "_learn_ahead", spy_learn_ahead)
    return sizes


def n_keys(text, config):
    tokens = tokenize(text)
    return len(set(tokens)) + len(set(_phrase_grams(tokens, config)))


@pytest.mark.parametrize("capacity", [16, 64])
def test_feature_matrix_keeps_the_memo_within_capacity(capacity, monkeypatch):
    monkeypatch.setattr(encoding, "_MEMO_CAPACITY", capacity)
    texts = random_letter_texts(120, seed=capacity)
    big = " ".join(f"w{i}x" for i in range(capacity))  # more keys than the memo holds
    texts[30:30] = [big]
    assert n_keys(big, SMALL) > capacity
    encoder = HashedNgramEncoder(SMALL)
    sizes = memo_sizes(encoder, monkeypatch)
    for _ in range(2):
        assert_same_csr(encoder.feature_matrix(texts), stacked(texts, SMALL))
    assert len(sizes) > 2 * len(texts)  # some batch passes ran
    assert max(sizes) <= capacity


def test_a_warm_batch_never_enters_the_batch_pass(monkeypatch):
    texts = random_letter_texts(80, seed=4)
    encoder = HashedNgramEncoder(SMALL)
    passes = []
    monkeypatch.setattr(encoding, "_learn_ahead", lambda *args: passes.append(args))
    for text in texts:  # the single-text path never learns ahead, cold or warm
        encoder.featurize(text)
    assert passes == []
    assert_same_csr(encoder.feature_matrix(texts), stacked(texts, SMALL))
    assert passes == []


@pytest.mark.parametrize("block", [7, encoding._HASH_BLOCK])
def test_a_cold_batch_hashes_one_serial_text_per_learned_range(block, monkeypatch):
    """Every text fits in the memo, so the text after a serial one is learned."""
    monkeypatch.setattr(encoding, "_MEMO_CAPACITY", 64)
    monkeypatch.setattr(encoding, "_HASH_BLOCK", block)
    texts = random_letter_texts(150, seed=6)
    assert max(n_keys(text, SMALL) for text in texts) < 64
    expected = stacked(texts, SMALL)
    encoder = HashedNgramEncoder(SMALL)
    events = []  # "pass" per learned range, and per text "hit" or "serial"
    remember, learn_ahead = encoding._remember, encoding._learn_ahead
    featurize_one = encoder.featurize

    def spy_remember(*args):
        events[-1] = "serial"
        return remember(*args)

    def spy_learn_ahead(*args):
        events.append("pass")
        return learn_ahead(*args)

    def spy_featurize(text):
        events.append("hit")
        return featurize_one(text)

    monkeypatch.setattr(encoding, "_remember", spy_remember)
    monkeypatch.setattr(encoding, "_learn_ahead", spy_learn_ahead)
    monkeypatch.setattr(encoder, "featurize", spy_featurize)
    assert_same_csr(encoder.feature_matrix(texts), expected)
    ranges, serial = events.count("pass"), events.count("serial")
    assert ranges >= 3
    assert serial <= ranges + 1  # the last text may have nothing ahead
    # a serial text is followed by its learned range, and that by a hit
    assert {b for a, b in zip(events, events[1:]) if a == "serial"} <= {"pass"}
    assert {b for a, b in zip(events, events[1:]) if a == "pass"} == {"hit"}
