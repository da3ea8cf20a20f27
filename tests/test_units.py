import math

import numpy as np
import pytest

from measured.units import (
    Dimension,
    IncompatibleDimensions,
    RegistryError,
    UnknownDimension,
    UnknownUnit,
    convert,
    default_registry,
    manhattan_distance,
    parse_registry,
)


@pytest.fixture(scope="module")
def reg():
    return default_registry()


def sig6(x: float) -> float:
    return float(f"{x:.6g}")


class TestResolveUnit:
    def test_alias_handles_compact_area_form(self, reg):
        assert reg.resolve_unit("sqmi").name == "mi²"

    def test_plural_alias(self, reg):
        unit = reg.resolve_unit("meters")
        assert unit.name == "m"
        assert unit.scale == 1.0

    def test_case_folding_and_trimming(self, reg):
        assert reg.resolve_unit("KM ").name == "km"
        assert reg.resolve_unit("  Feet").name == "ft"

    def test_multiword_alias(self, reg):
        assert reg.resolve_unit("miles per hour").name == "mph"
        assert reg.resolve_unit("square miles").name == "mi²"

    def test_unknown_token(self, reg):
        with pytest.raises(UnknownUnit):
            reg.resolve_unit("furlong")


class TestCanonicalize:
    def test_kilometers(self, reg):
        value, unit = reg.canonicalize(2.0, reg.resolve_unit("km"))
        assert value == 2000.0
        assert unit.name == "m"

    def test_feet(self, reg):
        value, unit = reg.canonicalize(1000.0, reg.resolve_unit("ft"))
        assert value == pytest.approx(304.8, abs=1e-12)
        assert unit.name == "m"

    def test_celsius_affine_offset(self, reg):
        # 0 degrees Celsius is 273.15 kelvin on any published scale table
        value, unit = reg.canonicalize(0.0, reg.resolve_unit("°C"))
        assert value == pytest.approx(273.15, abs=1e-12)
        assert unit.name == "K"

    def test_fixpoint(self, reg):
        value, unit = reg.canonicalize(37.5, reg.resolve_unit("mph"))
        again_value, again_unit = reg.canonicalize(value, unit)
        assert again_value == value
        assert again_unit is unit


class TestConvert:
    def test_km_to_miles(self, reg):
        got = convert(2.0, reg.resolve_unit("km"), reg.resolve_unit("mi"))
        assert float(f"{got:.2g}") == 1.2
        assert got == pytest.approx(1.242742, abs=1e-6)

    def test_identity(self, reg):
        m = reg.resolve_unit("m")
        assert convert(123.456, m, m) == 123.456

    def test_meters_to_feet(self, reg):
        got = convert(1000.0, reg.resolve_unit("m"), reg.resolve_unit("ft"))
        # 1000 / 0.3048 by hand
        assert sig6(got) == 3280.84

    def test_incompatible(self, reg):
        with pytest.raises(IncompatibleDimensions):
            convert(1.0, reg.resolve_unit("m"), reg.resolve_unit("s"))

    def test_reference_factors_to_canonical(self, reg):
        # one unit of each length should land exactly on its scale factor
        for token, factor in [
            ("m", 1.0),
            ("km", 1000.0),
            ("ft", 0.3048),
            ("mi", 1609.34),
            ("yd", 0.9144),
            ("in", 0.0254),
        ]:
            got = convert(1.0, reg.resolve_unit(token), reg.resolve_unit("m"))
            assert sig6(got) == sig6(factor), token


class TestManhattanDistance:
    def test_velocity_vs_length(self, reg):
        assert manhattan_distance(reg.dimension("velocity"), reg.dimension("length")) == 1

    def test_self_distance(self, reg):
        for d in reg.dimensions:
            assert manhattan_distance(d, d) == 0

    def test_power_vs_length(self, reg):
        # power = M L^2 T^-3, length = L: |2-1| + |1-0| + |-3-0| = 5
        assert manhattan_distance(reg.dimension("power"), reg.dimension("length")) == 5

    def test_metric_properties_on_random_vectors(self):
        rng = np.random.default_rng(7)
        dims = [
            Dimension(f"d{i}", tuple(int(x) for x in rng.integers(-3, 4, size=7)))
            for i in range(60)
        ]
        for _ in range(1000):
            a, b, c = (dims[i] for i in rng.integers(0, len(dims), size=3))
            dab = manhattan_distance(a, b)
            assert dab == manhattan_distance(b, a)
            assert (dab == 0) == (a.exponents == b.exponents)
            assert dab <= manhattan_distance(a, c) + manhattan_distance(c, b)


class TestUnitsOf:
    def test_velocity_units(self, reg):
        names = [u.name for u in reg.units_of("velocity")]
        assert names == ["m/s", "mph", "ft/s", "mi/yr", "in/yr"]

    def test_closure(self, reg):
        for d in reg.dimensions:
            for u in reg.units_of(d):
                assert u.dimension is d

    def test_exactly_one_canonical_per_dimension(self, reg):
        for d in reg.dimensions:
            canonical = [u for u in reg.units_of(d) if u.is_canonical]
            assert len(canonical) == 1

    def test_unknown_dimension(self, reg):
        with pytest.raises(UnknownDimension):
            reg.units_of("frequency")


class TestConversionProperties:
    def test_round_trip_and_composition(self, reg):
        rng = np.random.default_rng(11)
        units = reg.units
        for _ in range(2000):
            d = reg.dimensions[rng.integers(len(reg.dimensions))]
            members = reg.units_of(d)
            a = members[rng.integers(len(members))]
            b = members[rng.integers(len(members))]
            c = members[rng.integers(len(members))]
            x = float(np.sign(rng.normal()) * 10.0 ** rng.uniform(-6, 6))
            back = convert(convert(x, a, b), b, a)
            assert abs(back - x) <= 1e-9 * max(1.0, abs(x))
            direct = convert(x, a, c)
            chained = convert(convert(x, a, b), b, c)
            assert abs(direct - chained) <= 1e-9 * max(1.0, abs(direct), abs(x))
        assert len(units) > 0


class TestRegistryFormat:
    def test_parse_minimal(self):
        reg = parse_registry(
            "# comment\n"
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "unit m length scale=1 offset=0 aliases=meter, meters\n"
            "unit km length scale=1000 offset=0\n"
        )
        assert reg.resolve_unit("METERS").name == "m"
        assert reg.resolve_unit("km").scale == 1000.0

    def test_dump_parse_round_trip(self, reg):
        again = parse_registry(reg.dump())
        assert [d.name for d in again.dimensions] == [d.name for d in reg.dimensions]
        assert [u.name for u in again.units] == [u.name for u in reg.units]
        for u1, u2 in zip(reg.units, again.units):
            assert u1.scale == u2.scale and u1.offset == u2.offset

    def test_fingerprint_tracks_source(self, reg):
        other = parse_registry(reg.dump())
        assert reg.fingerprint != other.fingerprint or reg.dump() == other.dump()
        assert parse_registry(other.dump()).fingerprint == other.fingerprint

    @pytest.mark.parametrize(
        "text",
        [
            "dim length L1 M0 T0 I0 Θ0 N0\n",  # six exponents
            "dim length X1 M0 T0 I0 Θ0 N0 J0\n",  # wrong symbol
            "unit m nowhere scale=1 offset=0\n",  # undeclared dimension
            "dim length L1 M0 T0 I0 Θ0 N0 J0\nunit m length scale=zero offset=0\n",
            "frob length L1\n",  # unknown directive
        ],
    )
    def test_malformed_lines(self, text):
        with pytest.raises(RegistryError):
            parse_registry(text)

    def test_alias_collision(self):
        text = (
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "unit m length scale=1 offset=0 aliases=meter\n"
            "unit km length scale=1000 offset=0 aliases=Meter\n"
        )
        with pytest.raises(RegistryError):
            parse_registry(text)

    def test_duplicate_exponents_rejected_by_default(self):
        text = (
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "dim height L1 M0 T0 I0 Θ0 N0 J0\n"
            "unit m length scale=1 offset=0\n"
            "unit ladder height scale=1 offset=0\n"
        )
        with pytest.raises(RegistryError):
            parse_registry(text)
        reg = parse_registry(text, allow_duplicate_exponents=True)
        assert len(reg.dimensions) == 2

    def test_missing_canonical_unit(self):
        text = (
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "unit km length scale=1000 offset=0\n"
        )
        with pytest.raises(RegistryError):
            parse_registry(text)

    @pytest.mark.parametrize(
        "scale, offset", [("inf", "0"), ("nan", "0"), ("1", "inf"), ("1", "nan")]
    )
    def test_non_finite_scale_or_offset(self, scale, offset):
        text = (
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "unit m length scale=1 offset=0\n"
            f"unit km length scale={scale} offset={offset}\n"
        )
        with pytest.raises(RegistryError) as exc:
            parse_registry(text)
        assert str(exc.value) == (
            "unit 'km' needs a finite positive scale and a finite offset, "
            f"got scale={float(scale)!r} offset={float(offset)!r}"
        )

    def test_nonpositive_scale(self):
        text = (
            "dim length L1 M0 T0 I0 Θ0 N0 J0\n"
            "unit m length scale=-1 offset=0\n"
        )
        with pytest.raises(RegistryError):
            parse_registry(text)
