import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from measured.data import MASK_NUMBER, MASK_UNIT, ingest
from measured.synth import (
    DEFAULT_PROFILES,
    SynthConfig,
    UnitProfile,
    generate_records,
)
from measured.units import default_registry


@pytest.fixture(scope="module")
def reg():
    return default_registry()


def test_schema_and_masks(reg):
    records = generate_records(SynthConfig(n_examples=50, seed=0), reg)
    for r in records:
        assert set(r) == {"text", "number", "unit"}
        assert r["text"].count(MASK_NUMBER) == 1
        assert r["text"].count(MASK_UNIT) == 1
        assert r["number"] > 0
        reg.resolve_unit(r["unit"])


def test_deterministic(reg):
    a = generate_records(SynthConfig(n_examples=100, seed=4), reg)
    b = generate_records(SynthConfig(n_examples=100, seed=4), reg)
    assert a == b
    c = generate_records(SynthConfig(n_examples=100, seed=5), reg)
    assert a != c


def test_records_are_pinned(reg):
    """A seed's corpus never drifts: its records hash to a fixed value."""
    config = SynthConfig(n_examples=400, seed=5, ambiguity=0.3)
    records = generate_records(config, reg)
    blob = json.dumps(records, sort_keys=True, ensure_ascii=False).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == (
        "5e6bcea4a268ae3b5c9af4b3112c1d58714f4e46f81c1e5eac515f3e0043cfdc"
    )


def test_balanced_counts(reg):
    records = generate_records(SynthConfig(n_examples=7000, seed=1), reg)
    result = ingest(records, reg)
    assert result.kept == 7000
    counts = Counter(ex.dimension.name for ex in result.examples)
    assert set(counts.values()) == {1000}


def test_unbalanced_uses_weights(reg):
    profiles = tuple(
        replace(p, weight=(5.0 if p.dimension == "length" else 1.0))
        for p in DEFAULT_PROFILES
    )
    config = SynthConfig(n_examples=4000, seed=2, balanced=False, profiles=profiles)
    counts = Counter(
        ex.dimension.name for ex in ingest(generate_records(config, reg), reg).examples
    )
    assert counts["length"] > 2 * max(
        v for k, v in counts.items() if k != "length"
    )


def test_per_unit_log_locations_match_config(reg):
    """Sample mean of log10(canonical) per unit stays within 3 sigma/sqrt(n)."""
    config = SynthConfig(n_examples=8000, seed=3)
    examples = ingest(generate_records(config, reg), reg).examples
    by_unit: dict[str, list[float]] = {}
    for ex in examples:
        by_unit.setdefault(ex.unit.name, []).append(math.log10(ex.canonical_number))
    for prof in config.profiles:
        for up in prof.units:
            unit_name = reg.resolve_unit(up.unit).name
            values = by_unit[unit_name]
            margin = 3.0 * up.log10_scale / math.sqrt(len(values))
            assert abs(np.mean(values) - up.log10_loc) <= margin, unit_name


def test_ambiguity_mixes_neutral_templates(reg):
    config = SynthConfig(n_examples=2000, seed=6, ambiguity=0.5)
    records = generate_records(config, reg)
    neutral_markers = ("gauge", "Records list", "log shows", "Instruments", "entry notes")
    neutral = sum(
        1 for r in records if any(m in r["text"] for m in neutral_markers)
    )
    assert 0.4 < neutral / len(records) < 0.6

    none = generate_records(SynthConfig(n_examples=500, seed=6, ambiguity=0.0), reg)
    assert not any(any(m in r["text"] for m in neutral_markers) for r in none)


def test_validation_rejects_bad_configs(reg):
    with pytest.raises(ValueError):
        generate_records(SynthConfig(n_examples=0), reg)
    with pytest.raises(ValueError):
        generate_records(SynthConfig(ambiguity=1.5), reg)
    bad = (replace(DEFAULT_PROFILES[0], units=(UnitProfile("mph", 0.0, -1.0),)),)
    with pytest.raises(ValueError):
        generate_records(SynthConfig(profiles=bad), reg)


def test_unit_must_match_profile_dimension(reg):
    bad = (replace(DEFAULT_PROFILES[0], units=(UnitProfile("kg", 0.0, 0.2),)),)
    with pytest.raises(ValueError):
        generate_records(SynthConfig(profiles=bad), reg)
