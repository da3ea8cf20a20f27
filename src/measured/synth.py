"""Synthetic measurement corpora with controllable difficulty.

Generates raw records in the ingestion schema from per-dimension sentence
templates and per-unit log-normal number profiles.  Two knobs shape the
task the corpus poses:

* ``ambiguity`` draws a fraction of sentences from dimension-neutral
  templates, so only the number's magnitude can identify the dimension.
* per-unit ``log10_loc``/``log10_scale`` control where each unit's
  canonical numbers sit on the decade axis; defaults give every dimension
  its own magnitude band with distinct sub-bands per unit.

Generation is fully determined by the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from measured.data import MASK_NUMBER, MASK_UNIT
from measured.seeding import stream_rng
from measured.units import UnitRegistry

SIGNIFICANT_DIGITS = 6  # every surface number is rounded to this many

FILLER_WORDS = (
    "northern", "southern", "eastern", "western", "annual", "seasonal",
    "regional", "municipal", "provincial", "historic", "modern", "upgraded",
    "original", "primary", "secondary", "auxiliary", "coastal", "inland",
    "upper", "lower", "central", "remote", "public", "private", "industrial",
    "commercial", "experimental", "restored", "expanded", "temporary",
)

AMBIGUOUS_TEMPLATES = (
    "The {f} gauge read [#NUM] [#UNIT] at the {f} checkpoint .",
    "Records list [#NUM] [#UNIT] for the {f} site .",
    "The {f} log shows [#NUM] [#UNIT] from the latest {f} survey .",
    "Instruments reported [#NUM] [#UNIT] during the {f} trial .",
    "The {f} entry notes [#NUM] [#UNIT] in the appendix .",
)


@dataclass(frozen=True)
class UnitProfile:
    """How one unit's canonical numbers are drawn: log10 is Normal(loc, scale)."""

    unit: str
    log10_loc: float
    log10_scale: float
    weight: float = 1.0


@dataclass(frozen=True)
class DimensionProfile:
    dimension: str
    templates: tuple[str, ...]
    units: tuple[UnitProfile, ...]
    weight: float = 1.0


DEFAULT_PROFILES = (
    DimensionProfile(
        "velocity",
        (
            "Erosion advances at [#NUM] [#UNIT] along the {f} coastline .",
            "The {f} glacier flows at [#NUM] [#UNIT] toward the fjord .",
            "Sediment drifts at [#NUM] [#UNIT] past the {f} delta .",
            "The plate moves [#NUM] [#UNIT] relative to the {f} ridge .",
        ),
        (
            UnitProfile("in/yr", -9.2, 0.25),
            UnitProfile("mi/yr", -7.8, 0.25),
        ),
    ),
    DimensionProfile(
        "mass",
        (
            "The {f} shipment weighs [#NUM] [#UNIT] according to the manifest .",
            "Each {f} specimen has a body mass of [#NUM] [#UNIT] .",
            "The crane lifted a load of [#NUM] [#UNIT] onto the {f} barge .",
            "Packaging adds [#NUM] [#UNIT] to every {f} crate .",
        ),
        (
            UnitProfile("g", -4.9, 0.25),
            UnitProfile("kg", -3.5, 0.25),
        ),
    ),
    DimensionProfile(
        "length",
        (
            "The {f} bridge spans [#NUM] [#UNIT] across the {f} river .",
            "A {f} trail stretches [#NUM] [#UNIT] from the village to the summit .",
            "The tower stands [#NUM] [#UNIT] tall above the {f} plaza .",
            "Engineers laid [#NUM] [#UNIT] of cable along the {f} road .",
        ),
        (
            UnitProfile("mm", -1.6, 0.25),
            UnitProfile("m", -0.2, 0.25),
        ),
    ),
    DimensionProfile(
        "temperature",
        (
            "The {f} kiln holds [#NUM] [#UNIT] during the glaze firing .",
            "Water in the {f} lagoon stays near [#NUM] [#UNIT] all summer .",
            "The reactor coolant enters at [#NUM] [#UNIT] in the {f} loop .",
            "Brewing mash rests at [#NUM] [#UNIT] for the {f} batch .",
        ),
        (
            UnitProfile("K", 2.44, 0.03),
            UnitProfile("°C", 2.475, 0.01),
        ),
    ),
    DimensionProfile(
        "time",
        (
            "The {f} ferry crossing lasts [#NUM] [#UNIT] in calm weather .",
            "Fermentation continues for [#NUM] [#UNIT] before the {f} bottling .",
            "The {f} shift runs [#NUM] [#UNIT] including breaks .",
            "Curing the {f} resin takes [#NUM] [#UNIT] at room conditions .",
        ),
        (
            UnitProfile("s", 4.3, 0.25),
            UnitProfile("h", 5.7, 0.25),
        ),
    ),
    DimensionProfile(
        "area",
        (
            "The {f} reserve protects [#NUM] [#UNIT] of wetland habitat .",
            "Farmers cultivate [#NUM] [#UNIT] of {f} orchard on the plateau .",
            "The {f} campus covers [#NUM] [#UNIT] beside the harbor .",
            "Wildfire burned [#NUM] [#UNIT] of {f} forest last season .",
        ),
        (
            UnitProfile("m²", 7.6, 0.25),
            UnitProfile("km²", 9.0, 0.25),
        ),
    ),
    DimensionProfile(
        "power",
        (
            "The {f} turbine delivers [#NUM] [#UNIT] at rated wind .",
            "The plant generates [#NUM] [#UNIT] for the {f} grid .",
            "Each {f} engine produces [#NUM] [#UNIT] at full throttle .",
            "The array outputs [#NUM] [#UNIT] under {f} sunlight .",
        ),
        (
            UnitProfile("W", 11.0, 0.25),
            UnitProfile("hp", 12.4, 0.25),
        ),
    ),
)


@dataclass(frozen=True)
class SynthConfig:
    """Corpus knobs; filler words, neutral templates and rounding are constants."""

    n_examples: int = 7000
    seed: int = 0
    ambiguity: float = 0.0
    balanced: bool = True
    profiles: tuple[DimensionProfile, ...] = DEFAULT_PROFILES

    def __post_init__(self) -> None:
        if self.n_examples <= 0:
            raise ValueError("n_examples must be positive")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ValueError("ambiguity must lie in [0, 1]")
        if not self.profiles:
            raise ValueError("at least one dimension profile required")
        for prof in self.profiles:
            if not prof.templates or not prof.units:
                raise ValueError(f"profile {prof.dimension!r} is empty")
            for up in prof.units:
                if up.log10_scale <= 0 or up.weight <= 0:
                    raise ValueError(f"bad unit profile {up.unit!r}")
            for tpl in prof.templates:
                if tpl.count(MASK_NUMBER) != 1 or tpl.count(MASK_UNIT) != 1:
                    raise ValueError(f"template needs one of each mask: {tpl!r}")


def _round_sig(value: float, digits: int) -> float:
    if value == 0 or not math.isfinite(value):
        return value
    return round(value, digits - 1 - math.floor(math.log10(abs(value))))


def _fill(template: str, rng, fillers) -> str:
    parts = template.split("{f}")
    words = [str(rng.choice(fillers)) for _ in range(len(parts) - 1)]
    out = parts[0]
    for word, part in zip(words, parts[1:]):
        out += word + part
    return out


def generate_records(config: SynthConfig, registry: UnitRegistry) -> list[dict]:
    """Draw raw corpus records (the pre-ingestion schema) per the config."""
    rng = stream_rng(config.seed, "synth")

    resolved = {}
    for prof in config.profiles:
        for up in prof.units:
            unit = registry.resolve_unit(up.unit)
            if unit.dimension.name != prof.dimension:
                raise ValueError(
                    f"unit {up.unit!r} belongs to {unit.dimension.name!r}, "
                    f"profile says {prof.dimension!r}"
                )
            resolved[(prof.dimension, up.unit)] = unit

    n_dims = len(config.profiles)
    if config.balanced:
        base, rem = divmod(config.n_examples, n_dims)
        dim_indices = []
        for i in range(n_dims):
            dim_indices.extend([i] * (base + (1 if i < rem else 0)))
    else:
        weights = [p.weight for p in config.profiles]
        probs = [w / sum(weights) for w in weights]
        dim_indices = list(rng.choice(n_dims, size=config.n_examples, p=probs))

    records = []
    for di in dim_indices:
        prof = config.profiles[di]
        if config.ambiguity > 0 and rng.random() < config.ambiguity:
            template = AMBIGUOUS_TEMPLATES[rng.integers(len(AMBIGUOUS_TEMPLATES))]
        else:
            template = prof.templates[rng.integers(len(prof.templates))]
        text = _fill(template, rng, FILLER_WORDS)

        unit_weights = [u.weight for u in prof.units]
        probs = [w / sum(unit_weights) for w in unit_weights]
        up = prof.units[rng.choice(len(prof.units), p=probs)]
        unit = resolved[(prof.dimension, up.unit)]
        surface = 0.0
        for _ in range(100):
            canonical = 10.0 ** rng.normal(up.log10_loc, up.log10_scale)
            surface = unit.from_canonical(canonical)
            if surface > 0:
                break
        else:
            raise RuntimeError(
                f"could not draw a positive surface number for {up.unit!r}"
            )
        records.append(
            {
                "text": text,
                "number": _round_sig(surface, SIGNIFICANT_DIGITS),
                "unit": up.unit,
            }
        )

    order = rng.permutation(len(records))
    return [records[i] for i in order]
