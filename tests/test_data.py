import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measured.data import (
    BadRatios,
    InsufficientExamples,
    MalformedTemplate,
    NonPositiveNumber,
    NoTemplate,
    exponent_bin,
    fewshot_sample,
    ingest,
    lower_median,
    parse_convert_template,
    read_jsonl,
    serialize_convert_template,
    split,
    stats,
    tokenize,
    write_jsonl,
)
from measured.synth import SynthConfig, generate_records
from measured.units import default_registry


@pytest.fixture(scope="module")
def reg():
    return default_registry()


def record(text="The span is [#NUM] [#UNIT] wide .", number=2.0, unit="km"):
    return {"text": text, "number": number, "unit": unit}


class TestTokenize:
    def test_masked_sentence(self):
        tokens = tokenize("has an [#NUM] [#UNIT] centerboard.")
        assert tokens == ["has", "an", "[#NUM]", "[#UNIT]", "centerboard", "."]
        assert len(tokens) == 6

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_splits(self):
        assert tokenize("a,b") == ["a", ",", "b"]

    def test_mask_tokens_stay_atomic_next_to_punctuation(self):
        assert tokenize("([#NUM] [#UNIT]).") == ["(", "[#NUM]", "[#UNIT]", ")", "."]


class TestExponentBin:
    def test_power_of_ten(self):
        assert exponent_bin(1000.0) == 3

    def test_floor_semantics(self):
        assert exponent_bin(999.7) == 2

    def test_small_values(self):
        assert exponent_bin(1e-5) == -5
        assert exponent_bin(9.999e-6) == -6

    def test_decade_edges_are_exact(self):
        for k in range(-12, 13):
            assert exponent_bin(10.0 ** k) == k

    def test_nonpositive(self):
        with pytest.raises(NonPositiveNumber):
            exponent_bin(0.0)


class TestConvertTemplate:
    def test_paper_style_form(self):
        assert parse_convert_template("{{convert|2|km|mi}}") == (2.0, "km", "mi")

    def test_decimal_number(self):
        assert parse_convert_template("{{convert|3.5|m|ft}}") == (3.5, "m", "ft")

    def test_missing_number_is_malformed(self):
        with pytest.raises(MalformedTemplate):
            parse_convert_template("{{convert|km|mi}}")

    def test_no_template(self):
        with pytest.raises(NoTemplate):
            parse_convert_template("plain sentence without markup")

    def test_first_wellformed_wins(self):
        text = "{{convert|km|mi}} then {{convert|4|yd|m}}"
        assert parse_convert_template(text) == (4.0, "yd", "m")

    def test_embedded_in_sentence(self):
        text = "The road is {{convert|2|km|mi}} long."
        assert parse_convert_template(text) == (2.0, "km", "mi")

    @given(
        number=st.floats(
            min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
        src=st.text(alphabet="abcdefgkmy/²", min_size=1, max_size=6),
        dst=st.text(alphabet="abcdefgkmy/²", min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_round_trip(self, number, src, dst):
        wikitext = serialize_convert_template(number, src, dst)
        got = parse_convert_template(wikitext)
        assert got == (number, src, dst)


class TestIngest:
    def test_canonicalizes(self, reg):
        result = ingest([record(number=2.0, unit="km")], reg)
        assert result.kept == 1
        ex = result.examples[0]
        assert ex.canonical_number == 2000.0
        assert ex.dimension.name == "length"
        assert ex.unit.name == "km"

    def test_negative_number_dropped(self, reg):
        result = ingest([record(number=-5.0)], reg)
        assert result.kept == 0
        assert result.drops["negative"] == 1

    def test_zero_dropped(self, reg):
        assert ingest([record(number=0.0)], reg).drops["zero"] == 1

    def test_unknown_unit_dropped(self, reg):
        result = ingest([record(unit="cubit")], reg)
        assert result.drops["unknown-unit"] == 1

    def test_long_text_dropped(self, reg):
        text = " ".join(["word"] * 70) + " [#NUM] [#UNIT]"
        result = ingest([record(text=text)], reg)
        assert result.drops["too-long"] == 1

    def test_sixty_four_tokens_kept(self, reg):
        text = " ".join(["word"] * 62) + " [#NUM] [#UNIT]"
        assert ingest([record(text=text)], reg).kept == 1

    def test_mask_must_appear_once(self, reg):
        assert ingest([record(text="no masks here")], reg).drops["bad-mask"] == 1
        twice = "x [#NUM] [#NUM] [#UNIT]"
        assert ingest([record(text=twice)], reg).drops["bad-mask"] == 1

    def test_bad_records(self, reg):
        result = ingest([{"text": 1}, "nope", {}], reg)
        assert result.drops["bad-record"] == 3

    def test_order_preserved(self, reg):
        records = [record(number=float(i + 1)) for i in range(20)]
        result = ingest(records, reg)
        assert [ex.surface_number for ex in result.examples] == [
            float(i + 1) for i in range(20)
        ]

    def test_examples_satisfy_invariants(self, reg):
        records = generate_records(SynthConfig(n_examples=300, seed=5), reg)
        result = ingest(records, reg)
        assert result.kept == 300
        for ex in result.examples:
            assert ex.surface_number > 0
            assert ex.canonical_number > 0
            again, _ = reg.canonicalize(ex.surface_number, ex.unit)
            assert again == ex.canonical_number
            assert len(tokenize(ex.masked_text)) <= 64


class TestSplit:
    def test_tiny_exact_sizes(self):
        sp = split(list(range(10)), (0.8, 0.1, 0.1), seed=1)
        assert (len(sp.train), len(sp.val), len(sp.test)) == (8, 1, 1)

    def test_large_sizes_within_one_of_target(self):
        n = 919_237
        sp = split(range(n), (0.8, 0.1, 0.1), seed=0)
        # targets from the ratio arithmetic: 735389.6 / 91923.7 / 91923.7
        assert abs(len(sp.train) - 735_390) <= 1
        assert abs(len(sp.val) - 91_924) <= 1
        assert abs(len(sp.test) - 91_924) <= 1
        assert len(sp.train) + len(sp.val) + len(sp.test) == n

    def test_deterministic(self):
        a = split(list(range(100)), seed=42)
        b = split(list(range(100)), seed=42)
        assert a.train == b.train and a.val == b.val and a.test == b.test

    def test_seed_changes_assignment(self):
        a = split(list(range(100)), seed=1)
        b = split(list(range(100)), seed=2)
        assert a.train != b.train

    def test_partition(self):
        items = list(range(500))
        sp = split(items, (0.6, 0.2, 0.2), seed=3)
        combined = sorted(sp.train + sp.val + sp.test)
        assert combined == items
        assert not (set(sp.train) & set(sp.val))
        assert not (set(sp.val) & set(sp.test))

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.9, 0.2, -0.1), (0.5, 0.2, 0.2)])
    def test_bad_ratios(self, ratios):
        with pytest.raises(BadRatios):
            split(list(range(10)), ratios, seed=0)


@pytest.fixture(scope="module")
def corpus_split(reg):
    records = generate_records(SynthConfig(n_examples=700, seed=9), reg)
    return split(ingest(records, reg).examples, seed=9)


class TestFewshot:
    def test_balanced_counts(self, corpus_split):
        sample = fewshot_sample(corpus_split, k=10, seed=0)
        assert len(sample) == 70
        per_dim = {}
        for ex in sample:
            per_dim[ex.dimension.name] = per_dim.get(ex.dimension.name, 0) + 1
        assert set(per_dim.values()) == {10}

    def test_deterministic(self, corpus_split):
        a = fewshot_sample(corpus_split, k=7, seed=3)
        b = fewshot_sample(corpus_split, k=7, seed=3)
        assert [ex.masked_text for ex in a] == [ex.masked_text for ex in b]

    def test_without_replacement(self, corpus_split):
        sample = fewshot_sample(corpus_split, k=25, seed=1)
        assert len(set(id(ex) for ex in sample)) == len(sample)

    def test_insufficient(self, corpus_split):
        smallest = min(
            sum(1 for ex in corpus_split.train if ex.dimension.name == d.name)
            for d in {e.dimension for e in corpus_split.train}
        )
        with pytest.raises(InsufficientExamples):
            fewshot_sample(corpus_split, k=smallest + 1, seed=0)


class TestStats:
    def test_exponent_bins_and_counts(self, reg):
        examples = ingest(
            [
                record(number=1.0, unit="km"),     # canonical 1000 -> bin 3
                record(number=0.9997, unit="km"),  # canonical 999.7 -> bin 2
                record(number=3.0, unit="s"),      # bin 0
            ],
            reg,
        ).examples
        s = stats(examples)
        assert s.n_examples == 3
        assert s.dimension_counts == {"length": 2, "time": 1}
        assert s.exponent_hist_by_dimension["length"] == {3: 1, 2: 1}
        assert s.exponent_hist_by_unit["km"] == {3: 1, 2: 1}

    def test_histogram_sums_match_counts(self, reg):
        records = generate_records(SynthConfig(n_examples=400, seed=2), reg)
        examples = ingest(records, reg).examples
        s = stats(examples)
        for dim, bins in s.exponent_hist_by_dimension.items():
            assert sum(bins.values()) == s.dimension_counts[dim]
        for unit, bins in s.exponent_hist_by_unit.items():
            assert sum(bins.values()) == s.unit_counts[unit]

    def test_medians(self, reg):
        examples = ingest(
            [
                record(text="a [#NUM] [#UNIT]", number=1.0),
                record(text="bb bb [#NUM] [#UNIT]", number=1.0),
                record(text="ccc ccc ccc [#NUM] [#UNIT]", number=1.0),
            ],
            reg,
        ).examples
        s = stats(examples)
        assert s.median_tokens == 4
        assert s.median_characters == len("bb bb [#NUM] [#UNIT]")

    def test_json_document_round_trips(self, reg):
        records = generate_records(SynthConfig(n_examples=50, seed=1), reg)
        s = stats(ingest(records, reg).examples)
        doc = json.loads(json.dumps(s.to_json_dict()))
        assert doc["n_examples"] == 50


class TestLowerMedian:
    def test_odd(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0

    def test_even_takes_lower(self):
        assert lower_median([1.0, 10.0]) == 1.0
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0


class TestJsonlIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.jsonl"
        records = [{"a": 1}, {"b": "two"}]
        assert write_jsonl(path, records) == 2
        assert list(read_jsonl(path)) == records
