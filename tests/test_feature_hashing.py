"""Bucket ids and values of the hashed n-gram featurizer, and its memo.

Checkpoints index ``W_S`` rows by bucket id, so any change to how
``featurize`` enumerates or hashes n-grams would silently scramble every
saved model.  The golden cases pin the exact output for fixed texts under
two configs: each case maps bucket id -> n-gram count, and gives the float64
feature value of each count.  Values are compared with ``==``.

The encoder's memo is checked against a direct count that hashes every
n-gram string from scratch with ``_hash64``.
"""

import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from measured import encoding
from measured.data import ingest
from measured.encoding import (
    EncoderConfig,
    HashedNgramEncoder,
    _hash64,
    featurize,
    ngram_strings,
)
from measured.model import MeasurementModel, ModelSpec, load_model, save_model
from measured.synth import SynthConfig, generate_records
from measured.units import default_registry

DEFAULT = EncoderConfig()
CUSTOM = EncoderConfig(
    feature_dim=512, hash_seed=99, word_ngrams=(1, 2, 3), char_ngrams=(2, 5)
)

# (config, text, {bucket: count}, {count: value})
GOLDEN = [
    (
        DEFAULT,
        "The bridge spans [#NUM] [#UNIT] across the river.",
        {933: 1, 3708: 1, 7814: 1, 10068: 1, 11268: 1, 16053: 1, 24495: 1,
         25005: 1, 28830: 2, 35154: 1, 35710: 1, 37966: 1, 38150: 1, 39301: 1,
         42397: 1, 45461: 1, 50355: 1, 51693: 1, 52385: 1, 53924: 1, 53965: 1,
         57598: 1, 62511: 1, 64228: 1, 66127: 1, 73487: 1, 80698: 1, 82047: 1,
         83044: 1, 87958: 1, 95423: 1, 97107: 1, 104284: 1, 104563: 1, 105160: 1,
         106113: 1, 106884: 1, 112394: 1, 114454: 1, 125198: 1, 129465: 1,
         133192: 1, 135347: 1, 135375: 1, 138132: 1, 138681: 1, 147147: 2,
         150751: 1, 150958: 1, 153842: 1, 155737: 1, 156480: 1, 156985: 1,
         157399: 1, 160663: 1, 161438: 1, 162154: 1, 164310: 1, 165248: 1,
         165913: 1, 169179: 1, 173500: 1, 178434: 1, 180514: 1, 181933: 1,
         190327: 1, 192380: 1, 196692: 1, 197141: 1, 198026: 1, 198410: 1,
         198476: 1, 201638: 1, 203631: 1, 205469: 1, 209617: 1, 209913: 1,
         216867: 1, 218154: 1, 219662: 1, 227089: 1, 240121: 1, 241540: 1,
         244408: 1, 245625: 1, 252685: 1, 254647: 1, 255156: 1, 255625: 1,
         257835: 1},
        {1: 0.10206207261596577, 2: 0.20412414523193154},
    ),
    (
        DEFAULT,
        "",
        {},
        {},
    ),
    (
        DEFAULT,
        "?! ... -- ;",
        {2498: 2, 25005: 3, 180755: 1, 181190: 2, 185822: 1, 189952: 1, 193652: 1,
         205660: 1, 231084: 1, 237775: 1, 244320: 2, 245625: 3, 248934: 1,
         249540: 1, 252150: 1, 253890: 1},
        {1: 0.15617376188860607, 2: 0.31234752377721214, 3: 0.4685212856658182},
    ),
    (
        DEFAULT,
        "Water boils at 100 °C; the naïve cell is 5 µm wide.",
        {2186: 1, 8745: 1, 18085: 1, 18301: 1, 25005: 1, 28830: 1, 32823: 1,
         33637: 1, 35648: 1, 36965: 1, 39292: 1, 44234: 1, 47566: 1, 52385: 1,
         52802: 1, 54435: 1, 57247: 1, 64228: 1, 65380: 1, 67124: 1, 67191: 1,
         70223: 1, 73289: 1, 79744: 1, 80695: 1, 81991: 1, 82047: 1, 87662: 1,
         89608: 1, 90108: 1, 90492: 1, 90967: 1, 97727: 1, 97977: 1, 99629: 1,
         100652: 1, 101599: 1, 101876: 1, 107962: 1, 112538: 1, 118178: 1,
         118551: 1, 121040: 1, 122612: 1, 123116: 1, 127569: 1, 127668: 1,
         127874: 1, 133097: 1, 137529: 1, 140830: 1, 146471: 1, 147700: 1,
         148885: 1, 150594: 1, 151028: 1, 152049: 1, 158759: 1, 162689: 1,
         167918: 1, 171928: 1, 173792: 1, 177361: 1, 178434: 1, 179386: 1,
         183067: 1, 184406: 1, 186365: 1, 186650: 1, 190327: 1, 194048: 1,
         199429: 1, 203578: 1, 205660: 1, 208179: 1, 213107: 1, 213377: 1,
         213951: 1, 219662: 1, 221960: 1, 225543: 1, 226273: 1, 227908: 1,
         231294: 1, 236613: 1, 245625: 1, 249327: 1, 249436: 1, 252313: 1,
         253890: 1, 254760: 1, 256774: 1, 259715: 1, 260078: 1},
        {1: 0.10314212462587934},
    ),
    (
        DEFAULT,
        "very very very very tall",
        {1829: 1, 16665: 4, 22425: 4, 28351: 1, 29864: 4, 48470: 1, 63423: 1,
         86905: 1, 129518: 1, 148419: 4, 192380: 4, 194188: 4, 194356: 4,
         210166: 3, 234334: 1, 237432: 1, 249327: 1, 257748: 4},
        {1: 0.0827605888602368, 3: 0.24828176658071038, 4: 0.3310423554409472},
    ),
    (
        DEFAULT,
        "Pneumonoultramicroscopicsilicovolcanoconiosis",
        {3641: 1, 3931: 1, 11113: 1, 11331: 1, 11335: 1, 17931: 1, 18056: 1,
         19231: 1, 25337: 1, 25835: 1, 26079: 1, 26207: 1, 35272: 1, 35673: 1,
         35777: 1, 36427: 1, 37173: 1, 39037: 1, 39274: 1, 39750: 1, 42397: 1,
         43702: 1, 44702: 1, 48545: 1, 50355: 1, 53471: 1, 57439: 1, 59561: 1,
         61671: 1, 64848: 1, 69388: 1, 73636: 1, 73738: 1, 74361: 1, 78123: 1,
         82535: 1, 83205: 1, 90910: 1, 92700: 1, 96543: 1, 96968: 1, 97905: 1,
         98434: 1, 102140: 1, 119104: 1, 121153: 1, 123021: 1, 124337: 1,
         126560: 1, 130966: 1, 131905: 1, 132589: 1, 134358: 1, 134404: 1,
         134839: 1, 136144: 1, 145641: 1, 153364: 1, 162971: 1, 169457: 1,
         170057: 1, 170099: 1, 174703: 1, 177534: 1, 178547: 1, 179975: 1,
         180544: 1, 184331: 1, 188586: 1, 189493: 1, 190266: 1, 191253: 1,
         194385: 1, 200045: 1, 202025: 1, 205495: 1, 216196: 1, 216867: 1,
         225347: 1, 230157: 1, 231603: 1, 235181: 1, 243813: 1, 247683: 1,
         252301: 1, 253294: 1, 257232: 1, 257408: 1, 259715: 1, 260379: 1},
        {1: 0.10540925533894598},
    ),
    (
        CUSTOM,
        "The bridge spans [#NUM] [#UNIT] across the river.",
        {11: 1, 14: 1, 26: 1, 31: 1, 34: 2, 56: 1, 59: 1, 65: 1, 76: 2, 78: 1,
         84: 1, 85: 1, 86: 1, 96: 3, 98: 1, 106: 1, 121: 1, 132: 2, 134: 1, 137: 1,
         144: 1, 145: 2, 146: 1, 147: 1, 157: 1, 167: 2, 173: 1, 190: 1, 197: 1,
         198: 1, 199: 1, 203: 1, 205: 2, 221: 1, 249: 1, 259: 1, 263: 1, 267: 1,
         269: 2, 271: 2, 280: 1, 281: 1, 286: 2, 289: 1, 295: 1, 298: 1, 312: 2,
         313: 1, 315: 1, 316: 1, 342: 1, 352: 1, 355: 1, 371: 1, 373: 1, 375: 1,
         377: 1, 378: 1, 383: 1, 388: 4, 396: 1, 408: 1, 409: 1, 411: 2, 413: 1,
         414: 2, 417: 1, 437: 1, 440: 1, 449: 1, 459: 1, 461: 1, 466: 1, 467: 1,
         476: 2, 478: 1, 486: 1, 490: 2, 491: 2, 495: 1},
        {
            1: 0.08219949365267865,
            2: 0.1643989873053573,
            3: 0.24659848095803594,
            4: 0.3287979746107146,
        },
    ),
    (
        CUSTOM,
        "",
        {},
        {},
    ),
    (
        CUSTOM,
        "?! ... -- ;",
        {19: 1, 25: 1, 61: 1, 85: 2, 96: 2, 98: 3, 147: 1, 175: 2, 190: 1, 196: 1,
         204: 1, 205: 1, 229: 1, 246: 1, 252: 2, 267: 3, 297: 1, 315: 1, 316: 1,
         318: 1, 352: 1, 354: 1, 360: 1, 377: 3, 379: 1, 436: 1, 450: 1},
        {1: 0.1259881576697424, 2: 0.2519763153394848, 3: 0.3779644730092272},
    ),
    (
        CUSTOM,
        "Water boils at 100 °C; the naïve cell is 5 µm wide.",
        {1: 2, 5: 1, 25: 1, 34: 1, 36: 1, 45: 1, 52: 1, 54: 2, 55: 1, 57: 1, 61: 1,
         67: 1, 78: 1, 82: 1, 88: 1, 96: 1, 98: 1, 100: 1, 103: 1, 116: 1, 131: 1,
         132: 1, 135: 1, 138: 2, 144: 1, 152: 1, 154: 1, 157: 1, 167: 1, 176: 1,
         182: 1, 183: 1, 187: 1, 198: 1, 207: 1, 209: 1, 230: 1, 234: 1, 236: 1,
         238: 2, 240: 1, 251: 2, 259: 1, 263: 1, 267: 1, 275: 1, 279: 2, 282: 1,
         284: 2, 288: 1, 295: 1, 296: 1, 297: 1, 303: 1, 311: 1, 313: 1, 316: 1,
         319: 1, 325: 1, 328: 2, 334: 1, 342: 1, 346: 1, 353: 1, 354: 1, 362: 1,
         368: 1, 370: 1, 371: 2, 375: 2, 377: 1, 385: 2, 388: 5, 389: 1, 390: 2,
         403: 1, 405: 1, 411: 1, 433: 1, 450: 1, 459: 1, 469: 1, 476: 2, 478: 1,
         479: 1, 490: 2, 491: 2, 492: 2, 499: 1, 500: 1, 505: 1, 510: 1},
        {1: 0.07808688094430304, 2: 0.15617376188860607, 5: 0.3904344047215152},
    ),
    (
        CUSTOM,
        "very very very very tall",
        {11: 1, 78: 4, 80: 4, 96: 4, 108: 4, 131: 1, 158: 5, 185: 1, 257: 4,
         274: 1, 277: 3, 310: 2, 360: 4, 411: 1, 415: 1, 444: 1, 451: 1, 478: 4,
         505: 1},
        {
            1: 0.07930515857181442,
            2: 0.15861031714362883,
            3: 0.23791547571544325,
            4: 0.31722063428725766,
            5: 0.3965257928590721,
        },
    ),
    (
        CUSTOM,
        "Pneumonoultramicroscopicsilicovolcanoconiosis",
        {0: 2, 7: 1, 8: 1, 26: 1, 40: 1, 48: 1, 52: 1, 55: 1, 56: 1, 61: 3, 69: 1,
         81: 1, 104: 1, 115: 1, 122: 1, 124: 1, 126: 1, 132: 2, 133: 1, 152: 1,
         154: 1, 156: 1, 175: 1, 176: 1, 182: 1, 183: 1, 187: 1, 192: 2, 218: 1,
         224: 2, 228: 1, 235: 1, 245: 1, 246: 1, 255: 1, 259: 1, 261: 1, 264: 1,
         265: 1, 285: 1, 298: 1, 310: 1, 312: 1, 314: 1, 335: 1, 340: 1, 342: 2,
         343: 1, 349: 2, 359: 3, 362: 1, 366: 2, 380: 1, 387: 1, 390: 1, 392: 2,
         396: 1, 397: 1, 409: 1, 412: 1, 414: 2, 419: 1, 421: 1, 425: 1, 437: 2,
         442: 1, 454: 1, 464: 1, 466: 1, 475: 3, 476: 1, 486: 1, 490: 1, 494: 1},
        {1: 0.08838834764831843, 2: 0.17677669529663687, 3: 0.2651650429449553},
    ),

]


def _expected(buckets, value_of_count):
    indices = np.array(sorted(buckets), dtype=np.int64)
    values = np.array([value_of_count[buckets[i]] for i in sorted(buckets)])
    return indices, values


@pytest.mark.parametrize("config,text,buckets,value_of_count", GOLDEN)
def test_featurize_matches_golden(config, text, buckets, value_of_count):
    fv = featurize(text, config)
    indices, values = _expected(buckets, value_of_count)
    assert fv.indices.dtype == np.int64
    assert fv.values.dtype == np.float64
    assert fv.dim == config.feature_dim
    assert fv.indices.tolist() == indices.tolist()
    assert fv.values.tolist() == values.tolist()


@pytest.mark.parametrize("config,text,buckets,value_of_count", GOLDEN)
def test_encoder_featurize_matches_golden(config, text, buckets, value_of_count):
    """The encoder's own path gives the same ids, also on a second call."""
    encoder = HashedNgramEncoder(
        EncoderConfig(
            feature_dim=config.feature_dim,
            hidden_dim=4,
            word_ngrams=config.word_ngrams,
            char_ngrams=config.char_ngrams,
            hash_seed=config.hash_seed,
        )
    )
    indices, values = _expected(buckets, value_of_count)
    for _ in range(2):
        fv = encoder.featurize(text)
        assert fv.indices.tolist() == indices.tolist()
        assert fv.values.tolist() == values.tolist()


# -- the memo against a direct count ---------------------------------------------

SMALL = EncoderConfig(feature_dim=2**12, hidden_dim=4)


def direct_featurize(text, config):
    """The reference: hash every n-gram string from scratch and count."""
    counts = Counter(
        _hash64(gram.encode("utf-8"), config.hash_seed) % config.feature_dim
        for gram in ngram_strings(text, config)
    )
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    if len(values):
        values /= np.linalg.norm(values)
    return indices, values


def assert_direct(fv, text, config):
    indices, values = direct_featurize(text, config)
    assert fv.indices.dtype == np.int64 and fv.values.dtype == np.float64
    assert fv.indices.tolist() == indices.tolist()
    assert fv.values.tolist() == values.tolist()


def synth_texts(n, seed):
    registry = default_registry()
    records = generate_records(SynthConfig(n_examples=n, seed=seed), registry)
    return [r["text"] for r in records] + [
        ex.masked_text for ex in ingest(records, registry).examples
    ]


def random_letter_texts(n, seed):
    """Words of random letters, some non-ASCII, so few n-grams repeat."""
    rng = np.random.default_rng(seed)
    alphabet = list("abcdefghijklmnopqrstuvwxyzéµ°ß") + ["[#NUM]", "."]
    return [
        " ".join(
            "".join(rng.choice(alphabet, size=rng.integers(1, 9)))
            for _ in range(rng.integers(0, 16))
        )
        for _ in range(n)
    ]


def test_ngram_strings_counts_a_repeated_order_once_per_listing():
    config = EncoderConfig(word_ngrams=(1, 2, 1), char_ngrams=(3, 3))
    expected = ["w1:ab", "w1:cd"] * 2 + ["w2:ab cd"]
    expected += ["c3:<ab", "c3:ab>", "c3:<cd", "c3:cd>"] * 2
    assert Counter(ngram_strings("ab cd", config)) == Counter(expected)


@pytest.mark.parametrize(
    "config",
    [SMALL, replace(CUSTOM, hidden_dim=4), replace(SMALL, word_ngrams=(2, 1, 1))],
    ids=["small", "custom", "repeated-orders"],
)
@pytest.mark.parametrize("make_texts", [synth_texts, random_letter_texts])
def test_memoized_featurize_equals_direct_count(config, make_texts):
    encoder = HashedNgramEncoder(config)
    texts = make_texts(60, seed=3)
    for _ in range(2):  # cold memo, then warm
        for text in texts:
            assert_direct(encoder.featurize(text), text, config)
    for text in texts[:10]:
        assert_direct(featurize(text, config), text, config)


def test_memo_stays_within_capacity_and_clearing_keeps_features(monkeypatch):
    monkeypatch.setattr(encoding, "_MEMO_CAPACITY", 16)
    encoder = HashedNgramEncoder(SMALL)
    sizes = []
    for text in random_letter_texts(40, seed=5) * 2:
        assert_direct(encoder.featurize(text), text, SMALL)
        sizes.append(len(encoder._memo))
    assert max(sizes) == 16
    # the memo was cleared and refilled along the way
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_encoders_with_different_hash_seeds_share_no_entries():
    a = HashedNgramEncoder(SMALL)
    b = HashedNgramEncoder(replace(SMALL, hash_seed=99))
    text = "the beam is [#NUM] [#UNIT] long"
    a.featurize(text)
    assert a._memo and b._memo == {}
    assert_direct(b.featurize(text), text, b.config)
    assert a._memo is not b._memo
    assert all(a._memo[key] != b._memo[key] for key in a._memo)


def test_loaded_encoder_starts_with_an_empty_memo(tmp_path, toy_registry):
    encoder = HashedNgramEncoder(SMALL)
    model = MeasurementModel(ModelSpec("joint", 4), toy_registry, encoder, seed=0)
    model.encode("a tower of [#NUM] [#UNIT]")
    assert encoder._memo
    save_model(model, tmp_path / "model.npz")
    loaded = load_model(tmp_path / "model.npz", toy_registry)
    assert loaded.encoder._memo == {}
    assert HashedNgramEncoder(SMALL)._memo == {}


def test_concurrent_readers_get_exact_features(monkeypatch):
    """Threads share one encoder whose small memo is cleared again and again."""
    capacity, n_threads = 32, 8
    monkeypatch.setattr(encoding, "_MEMO_CAPACITY", capacity)
    encoder = HashedNgramEncoder(SMALL)
    texts = random_letter_texts(30, seed=9)
    expected = [direct_featurize(t, SMALL) for t in texts]
    wrong, sizes = [], []

    def read(offset):
        for k in range(3 * len(texts)):
            i = (offset + k) % len(texts)
            fv = encoder.featurize(texts[i])
            if not (
                np.array_equal(fv.indices, expected[i][0])
                and np.array_equal(fv.values, expected[i][1])
            ):
                wrong.append(i)
            sizes.append(len(encoder._memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(7 * i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(sizes) == n_threads * 3 * len(texts)
    assert wrong == []
    assert max(sizes) <= capacity + n_threads
