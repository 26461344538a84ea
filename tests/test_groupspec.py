"""Spec-string grammar and the catalog builder behind it."""

import pytest

from qrg.engine import direct_product
from qrg.errors import CapExceeded, ParseError
from qrg.groupspec import (
    FamilySpec,
    PermGroupSpec,
    ProdSpec,
    build_group,
    parse_spec,
    render_spec,
)

CANONICAL = [
    "A5",
    "S4",
    "C6",
    "D4",
    "SL2:5",
    "Sp4:2",
    "PSL2:7",
    "perm:(1 2 3);degree=3",
    "perm:(1 2);degree=4;gens=(1 2 3 4)",
    "perm:(1 2);degree=5;gens=(1 2 3)|(3 4 5)",
    "prod(A4,C2)",
    "prod(prod(C2,C3),S3)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_render_parse_round_trip(text):
    spec = parse_spec(text)
    assert render_spec(spec) == text
    assert parse_spec(render_spec(spec)) == spec


def test_parse_normalizes_spacing():
    spec = parse_spec("  perm:( 1 2 3 );degree=3  ")
    assert render_spec(spec) == "perm:(1 2 3);degree=3"


def test_parse_ast_shapes():
    assert parse_spec("A5") == FamilySpec("A", 5)
    assert parse_spec("SL2:5") == FamilySpec("SL", 2, 5)
    assert parse_spec("PSL2:7") == FamilySpec("PSL2", 2, 7)
    spec = parse_spec("prod(A4,C2)")
    assert isinstance(spec, ProdSpec)
    assert spec.left == FamilySpec("A", 4) and spec.right == FamilySpec("C", 2)
    perm = parse_spec("perm:(1 2);degree=4;gens=(1 2 3 4)")
    assert isinstance(perm, PermGroupSpec)
    assert perm.degree == 4 and len(perm.gens) == 2


@pytest.mark.parametrize(
    "text,offset",
    [
        ("X5", 0),
        ("A", 1),
        ("SL2", 3),
        ("SL2:4", 4),
        ("PSL2:9", 5),
        ("perm:(1 2 3)", 12),
        ("perm:(1 2 3);degree=3;gens=", 27),
        ("prod(A4;C2)", 7),
        ("A5x", 2),
        ("", 0),
        ("C0", 1),
        ("D0", 1),
        ("perm:(1 2)(1 3);degree=3", 11),
        ("perm:(1 5);degree=4", 8),
        ("  X9", 2),
    ],
)
def test_parse_errors_carry_position(text, offset):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.pos == offset
    assert f"(at offset {offset})" in str(err.value)


def test_parse_error_lists_expectations():
    with pytest.raises(ParseError) as err:
        parse_spec("Q8")
    assert "A<n>" in str(err.value)


@pytest.mark.parametrize(
    "text,order",
    [
        ("C1", 1),
        ("A2", 1),
        ("S2", 2),
        ("D1", 2),
        ("D2", 4),
        ("C6", 6),
        ("D4", 8),
        ("S4", 24),
        ("A5", 60),
        ("SL2:3", 24),
        ("Sp2:3", 24),
        ("PSL2:2", 6),
        ("PSL2:5", 60),
        ("prod(A4,C2)", 24),
        ("perm:(1 2);degree=4;gens=(1 2 3 4)", 24),
        ("perm:(1 2 3);degree=3", 3),
    ],
)
def test_build_orders(text, order):
    g = build_group(parse_spec(text))
    assert g.order == order
    assert g.label == render_spec(parse_spec(text))


def test_psl2_5_looks_like_a5():
    g = build_group(parse_spec("PSL2:5"))
    sizes = sorted(c.size for c in g.classes)
    a5 = build_group(parse_spec("A5"))
    assert sizes == sorted(c.size for c in a5.classes) == [1, 12, 12, 15, 20]


def test_prod_matches_direct_product():
    g = build_group(parse_spec("prod(A4,C2)"))
    h = direct_product(build_group(parse_spec("A4")), build_group(parse_spec("C2")))
    assert g.order == h.order
    assert sorted(c.size for c in g.classes) == sorted(c.size for c in h.classes)


def test_build_cap_paths():
    with pytest.raises(CapExceeded):
        build_group(parse_spec("A5"), cap=59)
    # factors fit but the product is pre-checked before multiplying out
    with pytest.raises(CapExceeded):
        build_group(parse_spec("prod(A5,A5)"), cap=3599)
    build_group(parse_spec("prod(A5,A5)"), cap=3600)
