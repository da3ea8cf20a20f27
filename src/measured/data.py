"""Measurement corpora: record parsing, masking, filtering, splits, statistics.

The on-disk interchange format is JSONL with one record per line::

    {"text": "... [#NUM] [#UNIT] ...", "number": 2.0, "unit": "km"}

Ingestion resolves the unit against a registry, canonicalizes the number,
and enforces the corpus invariants (positive number, exactly one of each
mask token, at most 64 tokens).  Ingested records gain ``"dimension"`` and
``"canonical_number"`` fields.  Parsed records that violate an invariant
are dropped and counted by reason, never fatal; a line that is not JSON
stops the read with an error naming its file line.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence, TypeVar

from measured.seeding import stream_rng
from measured.units import Dimension, Unit, UnitRegistry, UnknownUnit

MASK_NUMBER = "[#NUM]"
MASK_UNIT = "[#UNIT]"

MAX_TOKENS = 64
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, val, test

T = TypeVar("T")


class NonPositiveNumber(ValueError):
    """A value that must be strictly positive was zero or negative."""


class NoTemplate(ValueError):
    """The text contains no conversion template."""


class MalformedTemplate(ValueError):
    """A conversion template exists but cannot be parsed."""


class BadRatios(ValueError):
    """Split ratios are not three non-negative numbers summing to one."""


class InsufficientExamples(ValueError):
    """A class has fewer training examples than the requested sample size."""

    def __init__(self, dimension: str, available: int, requested: int):
        super().__init__(
            f"dimension {dimension!r} has {available} examples, "
            f"needs {requested}"
        )
        self.dimension = dimension
        self.available = available
        self.requested = requested


@dataclass(frozen=True)
class MeasurementExample:
    """One masked sentence with its hidden measurement.

    ``masked_text`` contains exactly one ``[#NUM]`` and one ``[#UNIT]``
    token.  ``surface_number`` is the number as written (in ``unit``);
    ``canonical_number`` is the same measurement in the dimension's
    canonical unit.
    """

    masked_text: str
    surface_number: float
    unit: Unit
    dimension: Dimension
    canonical_number: float


@dataclass(frozen=True)
class DatasetSplit:
    """Deterministic train/val/test partition of a corpus."""

    train: list
    val: list
    test: list
    seed: int


# -- tokenization -------------------------------------------------------------

_TOKEN_RE = re.compile(r"\[#NUM\]|\[#UNIT\]|\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with punctuation split off; mask tokens stay atomic."""
    return _TOKEN_RE.findall(text)


def exponent_bin(value: float) -> int:
    """Base-10 exponent bin: floor(log10(value)), guarded at decade edges."""
    if not value > 0:
        raise NonPositiveNumber(f"exponent bin needs a positive value, got {value}")
    b = math.floor(math.log10(value))
    # log10 can land a hair on the wrong side of an exact power of ten
    if 10.0 ** (b + 1) <= value:
        b += 1
    elif 10.0 ** b > value:
        b -= 1
    return b


# -- wikitext convert templates ------------------------------------------------

_TEMPLATE_RE = re.compile(r"\{\{\s*convert\s*\|([^{}]*)\}\}", re.IGNORECASE)


def parse_convert_template(wikitext: str) -> tuple[float, str, str]:
    """Extract ``(number, source_unit, display_unit)`` from wiki markup.

    Scans for ``{{convert|<number>|<from>|<to>}}`` and returns the first
    well-formed occurrence.  Raises :class:`NoTemplate` if no template is
    present at all, :class:`MalformedTemplate` if templates exist but none
    has the number|from|to arity with a numeric first field.
    """
    matches = list(_TEMPLATE_RE.finditer(wikitext))
    if not matches:
        raise NoTemplate("no {{convert|...}} template found")
    first_error: MalformedTemplate | None = None

    def note(err: MalformedTemplate) -> None:
        nonlocal first_error
        if first_error is None:
            first_error = err

    for m in matches:
        parts = [p.strip() for p in m.group(1).split("|")]
        if len(parts) != 3:
            note(MalformedTemplate(f"expected 3 fields, got {len(parts)}"))
            continue
        number_s, src, dst = parts
        try:
            number = float(number_s)
        except ValueError:
            note(MalformedTemplate(f"non-numeric number field {number_s!r}"))
            continue
        if not math.isfinite(number) or not src or not dst:
            note(MalformedTemplate(f"bad template fields {parts!r}"))
            continue
        return number, src, dst
    assert first_error is not None
    raise first_error


def serialize_convert_template(number: float, src: str, dst: str) -> str:
    """Inverse of :func:`parse_convert_template` for well-formed values."""
    return f"{{{{convert|{number!r}|{src}|{dst}}}}}"


# -- ingestion -----------------------------------------------------------------

@dataclass
class IngestResult:
    """Retained examples plus per-reason drop counts."""

    examples: list[MeasurementExample]
    drops: Counter = field(default_factory=Counter)

    @property
    def kept(self) -> int:
        return len(self.examples)

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())


def ingest(
    records: Iterable[dict],
    registry: UnitRegistry,
) -> IngestResult:
    """Resolve, canonicalize, and filter raw records into examples.

    Output order equals input order.  Drop reasons: ``bad-record`` (missing
    or mistyped fields), ``bad-mask`` (mask tokens absent or repeated),
    ``negative`` / ``zero`` / ``non-finite`` (number constraints),
    ``unknown-unit``, ``too-long`` (more than ``MAX_TOKENS`` tokens), and
    ``non-positive-canonical``.
    """
    result = IngestResult([])
    for record in records:
        reason = _ingest_one(record, registry, result.examples)
        if reason is not None:
            result.drops[reason] += 1
    return result


def _ingest_one(
    record: dict,
    registry: UnitRegistry,
    out: list[MeasurementExample],
) -> str | None:
    if not isinstance(record, dict):
        return "bad-record"
    text = record.get("text")
    number = record.get("number")
    unit_token = record.get("unit")
    if (
        not isinstance(text, str)
        or not isinstance(number, (int, float))
        or isinstance(number, bool)
        or not isinstance(unit_token, str)
    ):
        return "bad-record"
    if text.count(MASK_NUMBER) != 1 or text.count(MASK_UNIT) != 1:
        return "bad-mask"
    number = float(number)
    if not math.isfinite(number):
        return "non-finite"
    if number < 0:
        return "negative"
    if number == 0:
        return "zero"
    try:
        unit = registry.resolve_unit(unit_token)
    except UnknownUnit:
        return "unknown-unit"
    if len(tokenize(text)) > MAX_TOKENS:
        return "too-long"
    canonical, _ = registry.canonicalize(number, unit)
    if not canonical > 0:
        return "non-positive-canonical"
    out.append(
        MeasurementExample(
            masked_text=text,
            surface_number=number,
            unit=unit,
            dimension=unit.dimension,
            canonical_number=canonical,
        )
    )
    return None


def example_to_record(example: MeasurementExample) -> dict:
    """Canonical JSONL record for an ingested example."""
    return {
        "text": example.masked_text,
        "number": example.surface_number,
        "unit": example.unit.name,
        "dimension": example.dimension.name,
        "canonical_number": example.canonical_number,
    }


def read_jsonl(path) -> Iterable[dict]:
    """Yield one parsed object per non-empty line.

    A line that is not JSON raises ValueError as ``path:lineno: reason``.
    """
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if line:
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None


def write_jsonl(path, records: Iterable[dict]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False))
            f.write("\n")
            n += 1
    return n


# -- splitting and sampling ------------------------------------------------------

def split(
    examples: Sequence[T],
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    seed: int = 0,
) -> DatasetSplit:
    """Seeded shuffle followed by a train/val/test partition.

    Boundary indices are the rounded cumulative ratios, so each split size
    is within one example of its exact target.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise BadRatios(f"need three non-negative ratios, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got sum {sum(ratios)!r}")
    n = len(examples)
    order = stream_rng(seed, "split").permutation(n)
    c1 = int(round(ratios[0] * n))
    c2 = int(round((ratios[0] + ratios[1]) * n))
    c1, c2 = min(c1, n), min(max(c1, c2), n)
    shuffled = [examples[i] for i in order]
    return DatasetSplit(shuffled[:c1], shuffled[c1:c2], shuffled[c2:], seed)


def fewshot_sample(
    split_: DatasetSplit, k: int, seed: int = 0
) -> list[MeasurementExample]:
    """Class-balanced training subset: exactly ``k`` per dimension.

    Sampling is uniform without replacement within each dimension, with an
    independent stream per class so the draw for one class never depends on
    the sizes of the others.
    """
    groups: dict[str, list[MeasurementExample]] = {}
    for ex in split_.train:
        groups.setdefault(ex.dimension.name, []).append(ex)
    sample: list[MeasurementExample] = []
    for name in sorted(groups):
        members = groups[name]
        if len(members) < k:
            raise InsufficientExamples(name, len(members), k)
        rng = stream_rng(seed, "fewshot", name)
        idx = rng.choice(len(members), size=k, replace=False)
        sample.extend(members[i] for i in sorted(idx))
    return sample


# -- corpus statistics ------------------------------------------------------------

def lower_median(values: Sequence[float]) -> float:
    """Median with the lower of the two middle values on even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


@dataclass
class CorpusStats:
    """Counts, per-class tallies, and base-10 exponent histograms."""

    n_examples: int
    dimension_counts: dict[str, int]
    unit_counts: dict[str, int]
    exponent_hist_by_dimension: dict[str, dict[int, int]]
    exponent_hist_by_unit: dict[str, dict[int, int]]
    median_characters: float
    median_tokens: float

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        for key in ("dimension_counts", "unit_counts"):
            doc[key] = dict(sorted(doc[key].items()))
        for key in ("exponent_hist_by_dimension", "exponent_hist_by_unit"):
            doc[key] = {
                name: {str(b): c for b, c in sorted(bins.items())}
                for name, bins in sorted(doc[key].items())
            }
        return doc


def stats(examples: Sequence[MeasurementExample]) -> CorpusStats:
    """Corpus statistics over a flat example list.

    Exponent bins are ``floor(log10(canonical_number))``; medians are taken
    over character counts and :func:`tokenize` lengths of the masked text.
    """
    dim_counts: Counter = Counter()
    unit_counts: Counter = Counter()
    dim_hist: dict[str, Counter] = {}
    unit_hist: dict[str, Counter] = {}
    for ex in examples:
        b = exponent_bin(ex.canonical_number)
        dim_counts[ex.dimension.name] += 1
        unit_counts[ex.unit.name] += 1
        dim_hist.setdefault(ex.dimension.name, Counter())[b] += 1
        unit_hist.setdefault(ex.unit.name, Counter())[b] += 1

    return CorpusStats(
        n_examples=len(examples),
        dimension_counts=dict(dim_counts),
        unit_counts=dict(unit_counts),
        exponent_hist_by_dimension={k: dict(v) for k, v in dim_hist.items()},
        exponent_hist_by_unit={k: dict(v) for k, v in unit_hist.items()},
        median_characters=lower_median([len(ex.masked_text) for ex in examples])
        if examples
        else 0,
        median_tokens=lower_median([len(tokenize(ex.masked_text)) for ex in examples])
        if examples
        else 0,
    )
