import errno
import mmap
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from measured import encoding
from measured.data import ingest
from measured.encoding import (
    EncoderConfig,
    HashedNgramEncoder,
    _hash64,
    export_embeddings,
    featurize,
    ngram_strings,
)
from measured.synth import SynthConfig, generate_records
from measured.units import default_registry

CFG = EncoderConfig(feature_dim=512, hidden_dim=16)


class TestFeaturize:
    def test_deterministic(self):
        a = featurize("The bridge spans [#NUM] [#UNIT] across.", CFG)
        b = featurize("The bridge spans [#NUM] [#UNIT] across.", CFG)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_empty_text_gives_zero_vector(self):
        fv = featurize("", CFG)
        assert len(fv.indices) == len(fv.values) == 0
        assert fv.dim == CFG.feature_dim

    def test_l2_normalized(self):
        fv = featurize("one two three four five", CFG)
        assert np.linalg.norm(fv.values) == pytest.approx(1.0)

    def test_hash_seed_changes_buckets(self):
        other = EncoderConfig(feature_dim=512, hidden_dim=16, hash_seed=99)
        a = featurize("some words here", CFG)
        b = featurize("some words here", other)
        assert not np.array_equal(a.indices, b.indices)

    def test_single_word_change_touches_only_its_ngrams(self):
        """Bucket sets differ exactly on n-grams containing the changed word.

        Word n-grams of order 1/2 and within-token character n-grams are
        enumerated by hand for the two texts; every differing bucket must
        come from an n-gram string mentioning the swapped word.
        """
        t1 = "the red tower stands tall"
        t2 = "the blue tower stands tall"
        g1 = set(ngram_strings(t1, CFG))
        g2 = set(ngram_strings(t2, CFG))
        changed = g1 ^ g2
        expected = {
            # word n-grams touching "red" / "blue"
            "w1:red", "w2:the red", "w2:red tower",
            "w1:blue", "w2:the blue", "w2:blue tower",
            # character n-grams of <red>
            "c3:<re", "c3:red", "c3:ed>", "c4:<red", "c4:red>",
            # character n-grams of <blue>
            "c3:<bl", "c3:blu", "c3:lue", "c3:ue>",
            "c4:<blu", "c4:blue", "c4:lue>",
        }
        assert changed == expected

        def buckets(text):
            return set(featurize(text, CFG).indices.tolist())

        diff_buckets = buckets(t1) ^ buckets(t2)
        changed_buckets = {
            _hash64(g.encode("utf-8"), CFG.hash_seed) % CFG.feature_dim
            for g in changed
        }
        assert diff_buckets <= changed_buckets

    def test_mask_tokens_are_ordinary_features(self):
        grams = ngram_strings("[#NUM] [#UNIT]", CFG)
        assert "w1:[#NUM]" in grams
        assert "w2:[#NUM] [#UNIT]" in grams


class TestEncoder:
    def test_encode_is_linear_in_features(self):
        enc = HashedNgramEncoder(CFG, seed=1)
        X = enc.feature_matrix(["a small test sentence"])
        h1 = enc.encode_matrix(X)[0]
        h2 = enc.encode_matrix(X * 2.5)[0]
        assert np.allclose(h2, 2.5 * h1)

    def test_zero_features_give_zero_hidden(self):
        enc = HashedNgramEncoder(CFG, seed=1)
        assert np.all(enc.encode("") == 0)

    def test_identity_projection_recovers_features(self):
        config = EncoderConfig(feature_dim=8, hidden_dim=8)
        enc = HashedNgramEncoder(config, seed=0)
        enc.W_S = np.eye(8)
        dense = enc.feature_matrix(["tiny text"]).toarray()[0]
        assert np.allclose(enc.encode("tiny text"), dense)

    def test_deterministic_given_seed(self):
        a = HashedNgramEncoder(CFG, seed=7).encode("same text")
        b = HashedNgramEncoder(CFG, seed=7).encode("same text")
        assert np.array_equal(a, b)
        c = HashedNgramEncoder(CFG, seed=8).encode("same text")
        assert not np.array_equal(a, c)

    def test_batch_matches_single(self):
        enc = HashedNgramEncoder(CFG, seed=3)
        texts = ["first sentence here", "and a second one", ""]
        H = enc.encode_matrix(enc.feature_matrix(texts))
        for i, text in enumerate(texts):
            assert np.allclose(H[i], enc.encode(text))

    def test_frozen_exposes_no_trainable_parameters(self):
        frozen = HashedNgramEncoder(
            EncoderConfig(feature_dim=64, hidden_dim=4, frozen=True), seed=0
        )
        assert frozen.trainable_parameters() == {}
        live = HashedNgramEncoder(EncoderConfig(feature_dim=64, hidden_dim=4), seed=0)
        assert set(live.trainable_parameters()) == {"W_S"}

    def test_projection_gradient_matches_dense(self):
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=32, hidden_dim=3), seed=2)
        texts = ["alpha beta", "", "gamma delta epsilon", "alpha beta"]
        X = enc.feature_matrix(texts)
        dH = np.arange(12, dtype=float).reshape(4, 3)
        grad = enc.projection_gradient(X, dH)
        assert grad.shape == (32, 3)
        assert np.allclose(grad, X.toarray().T @ dH)

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_gradient_is_exact_on_integer_batches(self, seed):
        """Integer entries make every sum exact, whatever order BLAS adds in."""
        rng = np.random.default_rng(seed)
        E, M, B = 64, 5, 7
        lengths = rng.integers(0, 9, size=B)
        lengths[rng.integers(B)] = 0  # an empty text
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        # few columns, so rows share columns; a row may repeat a column too
        indices = rng.integers(0, 12, size=indptr[-1]) * 5
        values = rng.integers(1, 4, size=indptr[-1]).astype(float)
        X = sparse.csr_matrix((values, indices, indptr), shape=(B, E))
        dH = rng.integers(-3, 4, size=(B, M)).astype(float)
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=E, hidden_dim=M), seed=0)
        grad = enc.projection_gradient(X, dH)
        assert np.array_equal(grad, X.toarray().T @ dH)
        untouched = np.setdiff1d(np.arange(E), indices)
        assert not grad[untouched].any()

    def test_successive_projection_gradients_are_exact(self):
        """Calls in a row on one encoder: each result is exact on its own batch.

        The batches' column sets overlap, are disjoint, or are empty.  A
        result may be overwritten by the next call, so each is checked first.
        """
        E, M, B = 64, 5, 6
        rng = np.random.default_rng(11)
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=E, hidden_dim=M), seed=0)

        def integer_batch(columns):
            lengths = rng.integers(1, 9, size=B)
            indptr = np.concatenate([[0], np.cumsum(lengths)])
            indices = rng.choice(columns, size=indptr[-1])  # columns may repeat
            values = rng.integers(1, 4, size=indptr[-1]).astype(float)
            return sparse.csr_matrix((values, indices, indptr), shape=(B, E))

        empty = enc.feature_matrix([""] * B)
        batches = [
            integer_batch(np.arange(0, 20)),
            integer_batch(np.arange(10, 30)),  # overlaps the first
            integer_batch(np.arange(40, 64)),  # disjoint from both
            empty,
            integer_batch(np.arange(0, 20)),
            empty,
        ]
        for X in batches:
            dH = rng.integers(-3, 4, size=(B, M)).astype(float)
            grad = enc.projection_gradient(X, dH)
            assert grad.shape == (E, M)
            assert np.array_equal(grad, X.toarray().T @ dH)
            untouched = np.setdiff1d(np.arange(E), X.indices)
            assert not grad[untouched].any()

    def test_projection_gradient_names_its_rows(self):
        """Each result's ``rows`` are its batch's distinct columns, sorted;
        an array derived from it carries no row list."""
        E, M = 64, 5
        rng = np.random.default_rng(12)
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=E, hidden_dim=M), seed=0)
        batches = [
            ["alpha beta", "gamma"],
            ["delta epsilon zeta", "", "alpha"],
            [""],
            [],
            ["beta gamma delta"],
        ]
        for texts in batches:
            X = enc.feature_matrix(texts)
            grad = enc.projection_gradient(X, rng.normal(size=(len(texts), M)))
            assert np.array_equal(grad.rows, np.unique(X.indices))
            derived = [-grad, np.roll(grad, 1, axis=0), grad.copy(), grad[grad.rows]]
            assert all(d.rows is None for d in derived)

    def test_projection_gradient_reuses_one_buffer(self):
        """After the first call, a gradient costs the heap only its batch's rows."""
        E, M = 2**16, 32
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=E, hidden_dim=M), seed=0)
        texts = [
            "The bridge spans [#NUM] [#UNIT] across the river.",
            "a runner covered [#NUM] [#UNIT] in the morning",
            "",
            "the tank holds [#NUM] [#UNIT] of water",
        ]
        rng = np.random.default_rng(3)
        X = enc.feature_matrix(texts)
        enc.projection_gradient(X, rng.normal(size=(len(texts), M)))
        tracemalloc.start()
        try:
            for i in range(3):
                X = enc.feature_matrix(texts[i:])
                enc.projection_gradient(X, rng.normal(size=(X.shape[0], M)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < E * M * 8 // 16

    def test_small_page_zeros_survive_refused_huge_page_advice(self, monkeypatch):
        """A kernel without transparent huge pages rejects the advice with EINVAL."""

        class Refusing(mmap.mmap):
            def madvise(self, *args):
                raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(encoding.mmap, "MADV_NOHUGEPAGE", 14, raising=False)
        monkeypatch.setattr(encoding.mmap, "mmap", Refusing)
        zeros = encoding._small_page_zeros((5, 3), np.float64)
        assert zeros.shape == (5, 3) and zeros.dtype == np.float64
        assert not zeros.any()
        zeros[2] = 1.0
        assert zeros.sum() == 3.0

    def test_stored_projection_is_used_and_shape_checked(self):
        W = np.arange(64 * 4, dtype=float).reshape(64, 4)
        config = EncoderConfig(feature_dim=64, hidden_dim=4)
        assert HashedNgramEncoder(config, seed=0, W_S=W).W_S is W
        with pytest.raises(ValueError, match="W_S shape"):
            HashedNgramEncoder(config, seed=0, W_S=W[:32])


class TestEncoderConfig:
    """Every check runs when the config is built, before any encoder exists."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"feature_dim": 0}, "feature_dim and hidden_dim must be >= 1"),
            ({"hidden_dim": 0}, "feature_dim and hidden_dim must be >= 1"),
            ({"word_ngrams": (0, 2)}, "n-gram orders must be >= 1"),
            ({"char_ngrams": (3, -1)}, "n-gram orders must be >= 1"),
            (
                {"word_ngrams": (), "char_ngrams": ()},
                "need at least one word or character n-gram order",
            ),
        ],
    )
    def test_bad_config_fails_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EncoderConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"word_ngrams": ()}, {"char_ngrams": ()}])
    def test_one_kind_of_ngram_is_enough(self, kwargs):
        fv = featurize("a runner covered [#NUM] [#UNIT]", EncoderConfig(**kwargs))
        assert len(fv.indices) > 0


class TestExport:
    def test_tsv_shape_and_labels(self, tmp_path):
        reg = default_registry()
        examples = ingest(
            generate_records(SynthConfig(n_examples=5, seed=0), reg), reg
        ).examples
        enc = HashedNgramEncoder(EncoderConfig(feature_dim=128, hidden_dim=4), seed=0)
        sink = tmp_path / "embeddings.tsv"
        n = export_embeddings(enc, examples, sink)
        assert n == 5
        lines = sink.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split("\t")
        assert header == ["h_0", "h_1", "h_2", "h_3", "dimension", "unit", "exponent_bin"]
        assert len(lines) == 6
        for line, ex in zip(lines[1:], examples):
            cols = line.split("\t")
            assert len(cols) == 7
            assert cols[4] == ex.dimension.name
            assert cols[5] == ex.unit.name
            h = enc.encode(ex.masked_text)
            assert float(cols[0]) == pytest.approx(h[0], rel=1e-6, abs=1e-9)
