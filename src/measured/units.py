"""Dimensional algebra and unit conversion over the seven SI base dimensions.

A physical dimension is a named vector of signed integer exponents over the
SI basis (length, mass, time, electric current, temperature, amount of
substance, luminous intensity), in that fixed order.  Velocity, for example,
is ``(1, 0, -1, 0, 0, 0, 0)``.

Units attach an affine conversion to a dimension: ``canonical = value * scale
+ offset``.  Within every dimension exactly one unit is canonical (scale 1,
offset 0); measurements are normalized into that unit before any numeric
modelling.  The offset is zero for everything except temperature scales.

Registries are immutable once built and are loaded from a small line-oriented
text format::

    # comment
    dim velocity L1 M0 T-1 I0 Θ0 N0 J0
    unit mph velocity scale=0.44704 offset=0 aliases=miles per hour,mi/h

Alias lookup is case-insensitive and trims surrounding whitespace; nothing
beyond the declared aliases (no stemming or pluralization) is attempted, so
ambiguous surface forms are handled by declaring more aliases.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources

__all__ = [
    "BASE_DIMENSIONS",
    "Dimension",
    "Unit",
    "UnitRegistry",
    "RegistryError",
    "UnknownUnit",
    "UnknownDimension",
    "IncompatibleDimensions",
    "convert",
    "manhattan_distance",
    "load_registry",
    "parse_registry",
    "default_registry",
]

# Fixed basis order; position i of every exponent vector refers to this name.
BASE_DIMENSIONS = (
    "length",
    "mass",
    "time",
    "electric-current",
    "temperature",
    "amount-of-substance",
    "luminous-intensity",
)

_BASE_SYMBOLS = ("L", "M", "T", "I", "Θ", "N", "J")


class RegistryError(ValueError):
    """Malformed registry source or violated registry invariant."""


class UnknownUnit(KeyError):
    """No declared unit name or alias matches the given token."""

    def __init__(self, token: str):
        super().__init__(token)
        self.token = token

    def __str__(self) -> str:
        return f"unknown unit: {self.token!r}"


class UnknownDimension(KeyError):
    """Dimension is not declared in the registry."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unknown dimension: {self.name!r}"


class IncompatibleDimensions(ValueError):
    """Conversion requested between units of different dimensions."""


@dataclass(frozen=True)
class Dimension:
    """A named physical dimension: signed exponents over the 7-element basis."""

    name: str
    exponents: tuple[int, int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.exponents) != 7:
            raise RegistryError(f"dimension {self.name!r} needs 7 exponents")
        if not all(isinstance(e, int) for e in self.exponents):
            raise RegistryError(f"dimension {self.name!r} exponents must be ints")


@dataclass(frozen=True)
class Unit:
    """A named unit with an affine map into its dimension's canonical unit."""

    name: str
    dimension: Dimension
    scale: float
    offset: float = 0.0
    aliases: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not (self.scale > 0):
            raise RegistryError(f"unit {self.name!r} must have positive scale")

    @property
    def is_canonical(self) -> bool:
        return self.scale == 1.0 and self.offset == 0.0

    def to_canonical(self, value: float) -> float:
        return value * self.scale + self.offset

    def from_canonical(self, value: float) -> float:
        return (value - self.offset) / self.scale


def manhattan_distance(d1: Dimension, d2: Dimension) -> int:
    """L1 distance between two dimensions' exponent vectors."""
    return sum(abs(a - b) for a, b in zip(d1.exponents, d2.exponents))


def convert(value: float, from_unit: Unit, to_unit: Unit) -> float:
    """Convert ``value`` between two units of the same dimension."""
    if from_unit.dimension.exponents != to_unit.dimension.exponents:
        raise IncompatibleDimensions(
            f"cannot convert {from_unit.name} ({from_unit.dimension.name}) "
            f"to {to_unit.name} ({to_unit.dimension.name})"
        )
    return to_unit.from_canonical(from_unit.to_canonical(value))


def _alias_key(token: str) -> str:
    return token.strip().casefold()


class UnitRegistry:
    """Immutable collection of dimensions and units with alias resolution.

    Dimension and unit iteration order is declaration order; model code
    relies on those orders to index classifier heads, so they are part of
    the contract.  All lookups are pure and safe under concurrent readers.
    """

    def __init__(
        self,
        dimensions: list[Dimension],
        units: list[Unit],
        *,
        allow_duplicate_exponents: bool = False,
    ):
        self._dimensions: tuple[Dimension, ...] = tuple(dimensions)
        self._units: tuple[Unit, ...] = tuple(units)
        self._dim_by_name: dict[str, Dimension] = {}
        self._dim_index: dict[str, int] = {}
        self._unit_index: dict[str, int] = {}
        self._alias_index: dict[str, Unit] = {}
        self._units_of: dict[str, tuple[Unit, ...]] = {}
        self._canonical: dict[str, Unit] = {}

        seen_exponents: dict[tuple, str] = {}
        for i, dim in enumerate(self._dimensions):
            if dim.name in self._dim_by_name:
                raise RegistryError(f"duplicate dimension name {dim.name!r}")
            if dim.exponents in seen_exponents and not allow_duplicate_exponents:
                raise RegistryError(
                    f"dimension {dim.name!r} duplicates the exponents of "
                    f"{seen_exponents[dim.exponents]!r}; identity defaults to "
                    "exponent-vector equality (pass allow_duplicate_exponents "
                    "to opt in)"
                )
            seen_exponents.setdefault(dim.exponents, dim.name)
            self._dim_by_name[dim.name] = dim
            self._dim_index[dim.name] = i

        per_dim: dict[str, list[Unit]] = {d.name: [] for d in self._dimensions}
        for i, unit in enumerate(self._units):
            if unit.dimension.name not in self._dim_by_name:
                raise RegistryError(
                    f"unit {unit.name!r} refers to undeclared dimension "
                    f"{unit.dimension.name!r}"
                )
            self._unit_index[unit.name] = i
            per_dim[unit.dimension.name].append(unit)
            for token in (unit.name, *unit.aliases):
                key = _alias_key(token)
                other = self._alias_index.get(key)
                if other is not None and other is not unit:
                    raise RegistryError(
                        f"alias {token!r} maps to both {other.name!r} and "
                        f"{unit.name!r}"
                    )
                self._alias_index[key] = unit

        for dim in self._dimensions:
            members = per_dim[dim.name]
            if not members:
                raise RegistryError(f"dimension {dim.name!r} declares no units")
            canonical = [u for u in members if u.is_canonical]
            if len(canonical) != 1:
                raise RegistryError(
                    f"dimension {dim.name!r} must have exactly one canonical "
                    f"unit (scale=1, offset=0); found {len(canonical)}"
                )
            self._units_of[dim.name] = tuple(members)
            self._canonical[dim.name] = canonical[0]

    # -- lookups ------------------------------------------------------------

    @property
    def dimensions(self) -> tuple[Dimension, ...]:
        return self._dimensions

    @property
    def units(self) -> tuple[Unit, ...]:
        return self._units

    def dimension(self, name: str) -> Dimension:
        try:
            return self._dim_by_name[name]
        except KeyError:
            raise UnknownDimension(name) from None

    def dimension_index(self, d: Dimension | str) -> int:
        name = d if isinstance(d, str) else d.name
        try:
            return self._dim_index[name]
        except KeyError:
            raise UnknownDimension(name) from None

    def unit_index(self, u: Unit | str) -> int:
        name = u if isinstance(u, str) else u.name
        try:
            return self._unit_index[name]
        except KeyError:
            raise UnknownUnit(name) from None

    def resolve_unit(self, token: str) -> Unit:
        """Return the unit whose name or alias equals ``token``.

        Matching case-folds and trims surrounding whitespace; anything else
        raises :class:`UnknownUnit`.
        """
        unit = self._alias_index.get(_alias_key(token))
        if unit is None:
            raise UnknownUnit(token)
        return unit

    def units_of(self, d: Dimension | str) -> tuple[Unit, ...]:
        """All units of a dimension, in declaration order."""
        name = d if isinstance(d, str) else d.name
        try:
            return self._units_of[name]
        except KeyError:
            raise UnknownDimension(name) from None

    def canonical_unit(self, d: Dimension | str) -> Unit:
        name = d if isinstance(d, str) else d.name
        try:
            return self._canonical[name]
        except KeyError:
            raise UnknownDimension(name) from None

    # -- conversion ---------------------------------------------------------

    def canonicalize(self, value: float, unit: Unit) -> tuple[float, Unit]:
        """Express a measurement in the canonical unit of its dimension."""
        return unit.to_canonical(value), self.canonical_unit(unit.dimension)

    # -- identity -----------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the registry's canonical form, :meth:`dump`.

        Checkpoints embed this so a model is never silently reloaded against
        a registry with different class orderings.  Comments, blank lines and
        layout of the source text do not change it.
        """
        return hashlib.sha256(self.dump().encode("utf-8")).hexdigest()

    def dump(self) -> str:
        """Serialize back to the registry text format (canonical form)."""
        lines = []
        for d in self._dimensions:
            exps = " ".join(
                f"{sym}{e}" for sym, e in zip(_BASE_SYMBOLS, d.exponents)
            )
            lines.append(f"dim {d.name} {exps}")
        for u in self._units:
            line = (
                f"unit {u.name} {u.dimension.name} "
                f"scale={u.scale!r} offset={u.offset!r}"
            )
            if u.aliases:
                line += " aliases=" + ",".join(sorted(u.aliases))
            lines.append(line)
        return "\n".join(lines) + "\n"


_DIM_RE = re.compile(r"^dim\s+(\S+)\s+(.+?)\s*$")
_UNIT_RE = re.compile(
    r"^unit\s+(\S+)\s+(\S+)\s+scale=(\S+)\s+offset=(\S+)(?:\s+aliases=(.*))?\s*$"
)
_EXP_RE = re.compile(r"^([LMTIΘNJ])(-?\d+)$")


def _parse_exponents(text: str, where: str) -> tuple[int, ...]:
    tokens = text.split()
    if len(tokens) != 7:
        raise RegistryError(f"{where}: expected 7 exponent tokens, got {len(tokens)}")
    exps = []
    for sym, token in zip(_BASE_SYMBOLS, tokens):
        m = _EXP_RE.match(token)
        if m is None or m.group(1) != sym:
            raise RegistryError(f"{where}: expected {sym}<int>, got {token!r}")
        exps.append(int(m.group(2)))
    return tuple(exps)


def parse_registry(text: str, **kwargs) -> UnitRegistry:
    """Build a registry from its text format (see module docstring)."""
    dimensions: list[Dimension] = []
    dims_by_name: dict[str, Dimension] = {}
    units: list[Unit] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}"
        if line.startswith("dim "):
            m = _DIM_RE.match(line)
            if m is None:
                raise RegistryError(f"{where}: malformed dim declaration")
            name = m.group(1)
            dim = Dimension(name, _parse_exponents(m.group(2), where))
            dimensions.append(dim)
            dims_by_name[name] = dim
        elif line.startswith("unit "):
            m = _UNIT_RE.match(line)
            if m is None:
                raise RegistryError(f"{where}: malformed unit declaration")
            name, dim_name, scale_s, offset_s, alias_s = m.groups()
            if dim_name not in dims_by_name:
                raise RegistryError(
                    f"{where}: unit {name!r} refers to undeclared dimension "
                    f"{dim_name!r}"
                )
            try:
                scale = float(scale_s)
                offset = float(offset_s)
            except ValueError:
                raise RegistryError(f"{where}: bad scale/offset decimal") from None
            aliases = frozenset(
                a.strip() for a in alias_s.split(",") if a.strip()
            ) if alias_s else frozenset()
            units.append(
                Unit(name, dims_by_name[dim_name], scale, offset, aliases)
            )
        else:
            raise RegistryError(f"{where}: unrecognized directive {line.split()[0]!r}")
    return UnitRegistry(dimensions, units, **kwargs)


def load_registry(path) -> UnitRegistry:
    """Load a registry from a UTF-8 text file; an error names the file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return parse_registry(text)
    except RegistryError as err:
        raise RegistryError(f"{path}: {err}") from None


_DEFAULT_CACHE: UnitRegistry | None = None


def default_registry() -> UnitRegistry:
    """The registry shipped with the package (cached; immutable)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        text = (
            resources.files("measured")
            .joinpath("resources/default_registry.txt")
            .read_text(encoding="utf-8")
        )
        _DEFAULT_CACHE = parse_registry(text)
    return _DEFAULT_CACHE
