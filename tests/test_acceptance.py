"""Acceptance gate: the package's headline guarantees, one test each.

Each test ends with a PASS line so a verbose run reads as a checklist.
Numbers follow the shipped guarantees; see README for the scope note on
what is (and is not) checkable at desk scale.
"""

import json
import time
from pathlib import Path

import oracles
from qrg import chars, constructions, covering, engine, gf
from qrg.cli import main as cli_main
from qrg.groupspec import build_group, parse_spec
from qrg.permutations import is_exceptional, parse_cycles


def build(text):
    return build_group(parse_spec(text))


def carrier_gens(g):
    if g.kind == "perm":
        return [g.element(i).images for i in g.gens], oracles.compose, oracles.invert
    p = g.field.p
    gens = [tuple(int(x) for x in g.element(i).entries.ravel()) for i in g.gens]
    return gens, oracles.sl2_mul(p), oracles.sl2_inv(p)


def run_suite(capsys, *argv):
    code = cli_main(["verify", *argv])
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.strip().splitlines()]


def test_criterion_01_four_step_covering():
    t0 = time.perf_counter()
    witnesses = {
        "A6": ("(1 2 3)(4 5 6)", [(1, 40), (2, 270), (3, 360)]),
        "A7": ("(1 2 3)(4 5)(6 7)", [(1, 210), (2, 2520)]),
        "A8": ("(1 2 3 4)(5 6 7 8)", [(1, 1260), (2, 20160)]),
    }
    for spec_text, (cyc, trace) in witnesses.items():
        g = build(spec_text)
        sigma = parse_cycles(cyc, degree=g.degree)
        assert sigma.cycle_type().is_even
        assert sigma.is_fixed_point_free()
        assert not is_exceptional(sigma)
        x = g.index_of(sigma)
        rep = covering.covering_number(g, x)
        assert rep.K is not None and rep.K <= 4
        assert rep.growth_trace == trace
        assert covering.kfold_product(covering.class_of_element(g, x), 4).is_full()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"PASS criterion 1: A6/A7/A8 witnesses cover in <= 4 steps "
          f"({elapsed:.1f}s)")


def test_criterion_02_two_prime_hypotheses_and_power_covering():
    for n in (17, 31):
        sigma = constructions.brenner_sigma(n, 5, 7)
        assert sigma.cycle_type().is_even
        assert sigma.is_fixed_point_free()
        assert not is_exceptional(sigma)
    g = build("A6")
    x = g.index_of(parse_cycles("(1 2 3)(4 5 6)", degree=6))
    # power range 4 skipping the identity power: exponents coprime to 3
    for i in (1, 2, 4):
        cls = covering.class_of_element(g, g.power(x, i))
        assert covering.kfold_product(cls, 4).is_full()
    print("PASS criterion 2: degree-17 and degree-31 witnesses satisfy all "
          "hypotheses; (3,3) powers cover A6 at K=4")


CATALOG = [
    "C1", "C2", "C5", "C6", "S3", "S4", "D4", "A4",
    "A5", "A6", "A7", "SL2:5", "SL2:7", "SL2:11", "SL2:13",
]


def test_criterion_03_quasirandom_degrees():
    t0 = time.perf_counter()
    want = {"A6": 5, "A7": 6, "SL2:5": 2, "SL2:7": 3, "SL2:11": 5, "SL2:13": 6}
    for spec_text, d in want.items():
        assert chars.quasirandom_degree(build(spec_text)) == d
    for spec_text in CATALOG:
        g = build(spec_text)
        degrees = chars.character_degrees(g).degrees
        assert sum(x * x for x in degrees) == g.order
        if g.order > 1:
            gens, mul, inv = carrier_gens(g)
            assert degrees == oracles.degrees_class_algebra(gens, mul, inv)
    a8 = build("A8")
    degrees = chars.character_degrees(a8, cap=25000).degrees
    assert sum(x * x for x in degrees) == a8.order
    gens, mul, inv = carrier_gens(a8)
    assert degrees == oracles.degrees_class_algebra(gens, mul, inv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"PASS criterion 3: minimal degrees match (p-1)/2 and the "
          f"class-algebra oracle on {len(CATALOG) + 1} groups ({elapsed:.1f}s)")


def test_criterion_04_cosocles():
    for n in (3, 4, 5, 6):
        g = build(f"S{n}")
        cos = engine.cosocle(g)
        even = {i for i in range(g.order) if g.element(i).is_even()}
        assert set(cos.members.tolist()) == even
    for p in (5, 7):
        g = build(f"SL2:{p}")
        cos = engine.cosocle(g)
        pm = {
            g.index_of(gf.parse_matrix(f"mat:p={p}:[[1,0],[0,1]]")),
            g.index_of(gf.parse_matrix(f"mat:p={p}:[[{p - 1},0],[0,{p - 1}]]")),
        }
        assert set(cos.members.tolist()) == pm
    cos = engine.cosocle(build("prod(A5,A6)"))
    assert cos.order == 1 and set(cos.members.tolist()) == {0}
    print("PASS criterion 4: cosocles are A_n in S_n, {+I,-I} in SL2, and "
          "trivial in A5 x A6, by exact set equality")


def test_criterion_05_inflation_lifts_every_witness():
    ks = ms = (1, 2, 3)
    for spec_text in ("SL2:5", "SL2:7"):
        g = build(spec_text)
        reps = [c.rep for c in g.classes]
        factor, mod, minimal = covering.cosocle_inflation(g, reps, ms, ks, reps, ms, ks)
        assert factor == 4
        assert mod.any()
        assert (minimal[mod] > 0).all()
    print("PASS criterion 5: every mod-center witness on SL2(F5) and SL2(F7) "
          "lifts absolutely at factor 4")


def test_criterion_06_parameters_transfer_to_products_and_back():
    a5 = build("A5")
    x = a5.index_of(parse_cycles("(1 2 3 4 5)", degree=5))
    params = (2, 4, 2, 4)
    assert covering.double_covering_feasible(a5, x, x, *params)
    assert covering.verify_product_preservation([(a5, x, x), (a5, x, x)], *params)
    prod = engine.direct_product(a5, a5)
    sub = engine.normal_subgroup_from_elements(prod, list(range(a5.order)))
    q = engine.quotient(prod, sub)
    xt = covering.product_witness_index([a5, a5], [x, x])
    assert covering.double_covering_feasible(q, int(q.proj[xt]), int(q.proj[xt]),
                                             *params)
    print("PASS criterion 6: [(2,4),(2,4)] on A5 transfers to A5 x A5 and "
          "survives the quotient back")


def test_criterion_07_jordan_length_exact(capsys):
    code, lines = run_suite(capsys, "jordan")
    assert code == 0
    assert lines[-1]["assertions"] == 3 and lines[-1]["failed"] == 0
    assert lines[0]["seed"] == 20260821
    assert lines[2]["checked"] == 138696  # every permutation of degree 2..8 x 3 fields
    print("PASS criterion 7: pseudo-length axioms, direct-sum bound, and the "
          "(n-k)/n permutation bound hold with exact rational arithmetic")


def test_criterion_08_unitary_geometry(capsys):
    code, lines = run_suite(capsys, "axioms")
    assert code == 0
    assert len(lines) == 5  # D = 1..4 plus summary
    assert all(line["max_violation"] < 1e-9 for line in lines[:-1])

    code, lines = run_suite(capsys, "mustexp")
    assert code == 0
    assert lines[0]["found"] == 1000 and lines[0]["samples"] == 1000
    assert lines[0]["seed"] == 20260817

    code, lines = run_suite(capsys, "packing")
    assert code == 0
    assert lines[-1]["assertions"] == 19 and lines[-1]["failed"] == 0
    print("PASS criterion 8: length axioms below 1e-9, all 1000 samples pass "
          "sqrt(2) within 1e6 powers, packing grid matches the closed form")


def test_criterion_09_mixing_statistics(capsys):
    code, lines = run_suite(capsys, "mixing")
    assert code == 0
    head = lines[0]
    assert head["seed"] == 20260819 and head["trials"] == 100
    assert head["passed"] >= 95
    mono = lines[1]
    assert mono["SL2:11"] >= mono["SL2:5"]
    print(f"PASS criterion 9: SL2(F11) mixing passed {head['passed']}/100 "
          f"seeded trials, non-decreasing from SL2(F5) ({mono['SL2:5']})")


def test_criterion_10_readme_documents_scope():
    raw = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    readme = " ".join(raw.split())
    assert "ultraproduct" in readme.lower()
    assert "not reproducible at desk scale" in readme
    assert "finite ingredients" in readme
    print("PASS criterion 10: README states the desk-scale scope substitution")
