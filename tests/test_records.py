"""The record contract of ghlcert's nine named-tuple classes: the three
validated ones refuse bad input however they are built, no field of any
of them can be assigned, and the source never copies a validated record
by namedtuple's _replace or _make, which skip the validation."""

import ast
from pathlib import Path

import pytest

from ghlcert.certify import Certificate
from ghlcert.criteria import ExclusionRecord
from ghlcert.newton import Edge, NewtonPolygon, polygon_from_params
from ghlcert.polynomials import (GhlParams, IntegerPolynomial,
                                 InvalidParameters, SeedCoefficients,
                                 build_ghl)
from ghlcert.sieve import RangeFilter, SieveReport, ap_prime_gaps

from oracles import certify_instance

_SRC = Path(__file__).resolve().parents[1] / "src" / "ghlcert"

BAD_INPUT = [
    (GhlParams, dict(d=1, u=0, alpha=0, n=5)),
    (GhlParams, dict(d=4, u=0, alpha=2, n=5)),    # gcd(alpha, d) != 1
    (GhlParams, dict(d=4, u=0, alpha=4, n=5)),    # alpha out of range
    (GhlParams, dict(d=4, u=0, alpha=0, n=5)),
    (GhlParams, dict(d=3, u=0, alpha=1, n=0)),
    (GhlParams, dict(d=3, u=0, alpha=1, n=5, delta=2)),
    (SeedCoefficients, dict(values=(0, 1, 1))),
    (SeedCoefficients, dict(values=(1, 1, 0))),
    (SeedCoefficients, dict(values=(5,))),
    (SeedCoefficients, dict(values=())),
    (IntegerPolynomial, dict(coeffs=(0, 0))),
    (IntegerPolynomial, dict(coeffs=(0,))),
    (IntegerPolynomial, dict(coeffs=())),
]


@pytest.mark.parametrize("cls, kwargs", BAD_INPUT)
def test_validated_records_refuse_bad_input(cls, kwargs):
    with pytest.raises(InvalidParameters):
        cls(**kwargs)
    with pytest.raises(InvalidParameters):
        cls(*kwargs.values())


def _one_of_each():
    params = GhlParams(3, 0, 1, 5, delta=3)
    seed = SeedCoefficients.laguerre(5)
    polygon = polygon_from_params(2, params, seed)
    cert = certify_instance(3, 0, 1, 5, 3)
    return [params, seed, build_ghl(params, seed), polygon.edges[0], polygon,
            cert.records[0], cert,
            RangeFilter(min_exclusive=8, odd_only=True),
            ap_prime_gaps(4, (1, 3), 1000, 20)]


def test_records_are_immutable_named_tuples():
    records = _one_of_each()
    assert [type(r) for r in records] == [
        GhlParams, SeedCoefficients, IntegerPolynomial, Edge, NewtonPolygon,
        ExclusionRecord, Certificate, RangeFilter, SieveReport]
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):   # __slots__ = (): no __dict__
            rec.extra = 1
        assert type(rec)._make(rec) == rec and rec._replace() == rec


def test_source_never_replaces_or_makes_records():
    # _replace and _make build a named tuple without calling its __new__,
    # so on GhlParams, SeedCoefficients or IntegerPolynomial they would skip
    # the checks; no call of either appears in the package
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(_SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("_replace", "_make")]
    assert calls == []
