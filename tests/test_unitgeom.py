"""Hilbert-Schmidt length geometry on U(D), against 50-digit references."""

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import oracles
from qrg import cli, unitgeom
from qrg.groupspec import build_group, parse_spec
from qrg.permutations import parse_cycles
from qrg.unitgeom import (
    CoveringPreconditionFailed,
    IdentityInput,
    NotHomomorphism,
    NotUnitary,
    UnitaryPoint,
)


def diag_unitary(*angles):
    return UnitaryPoint(np.diag(np.exp(1j * np.array(angles, dtype=float))))


def test_unitary_point_validation():
    UnitaryPoint(np.eye(3))
    with pytest.raises(NotUnitary):
        UnitaryPoint(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(NotUnitary):
        UnitaryPoint(np.ones((2, 3)))


def test_unitary_point_immutable():
    u = UnitaryPoint(np.eye(2))
    with pytest.raises(AttributeError):
        u.D = 3


def test_haar_unitary_is_unitary_and_varies():
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(25):
        u = unitgeom.haar_unitary(4, rng)
        assert np.allclose(u.entries @ u.entries.conj().T, np.eye(4), atol=1e-9)
        seen.add(round(float(np.angle(np.linalg.det(u.entries))), 6))
    assert len(seen) > 20  # determinant phase actually moves


def test_hs_length_examples():
    assert unitgeom.hs_length(UnitaryPoint(np.eye(3))) == 0
    assert unitgeom.hs_length(diag_unitary(math.pi)) == pytest.approx(2.0)
    third = diag_unitary(2 * math.pi / 3)
    assert unitgeom.hs_length(third) == pytest.approx(math.sqrt(3))
    assert unitgeom.hs_length(third) == pytest.approx(oracles.chord_highprec(1, 3))


def test_hs_length_trace_identity():
    rng = np.random.default_rng(22)
    for d in (1, 2, 5):
        u = unitgeom.haar_unitary(d, rng)
        want = 2 * d - 2 * np.trace(u.entries).real
        assert unitgeom.hs_length(u) ** 2 == pytest.approx(want)


def test_power_length_witness_eighth_root():
    a = diag_unitary(math.pi / 4)
    got = unitgeom.power_length_witness(a)
    assert got is not None
    k, length = got
    # k = 2 hits sqrt(2) exactly and must not count; k = 3 crosses
    assert (k, round(length, 13)) == (3, round(1.8477590650225735, 13))
    want = oracles.power_witness_highprec([math.pi / 4], 1)
    assert (k, length) == (want[0], pytest.approx(want[1]))


def test_power_length_witness_small_angle():
    theta = 1e-3
    got = unitgeom.power_length_witness(diag_unitary(theta))
    want = oracles.power_witness_highprec([theta], 1)
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1])


def test_power_length_witness_multidim():
    angles = [0.3, -0.9]
    got = unitgeom.power_length_witness(diag_unitary(*angles))
    want = oracles.power_witness_highprec(angles, 2)
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1])


def _fixed_block_witness(a, max_power=10**6):
    """The scan in fixed blocks of 2^15 powers, as a reference for the
    growing blocks: the same candidates, confirmed in the same order."""
    angles = np.angle(np.linalg.eigvals(a.entries))
    for start in range(1, max_power + 1, 1 << 15):
        ks = np.arange(start, min(start + (1 << 15), max_power + 1), dtype=np.float64)
        sq = 2 * a.D - 2 * np.cos(np.outer(ks, angles)).sum(axis=1)
        for k in ks[sq > 2.0 - unitgeom.AXIOM_TOL]:
            length = unitgeom.hs_length(a.power(int(k)))
            if length > math.sqrt(2):
                return int(k), length
    return None


# First witness k of diag(theta): the least k with k * theta > pi/2.  64, 66
# and 193 sit on and just past the edges of the blocks 1-64, 65-192,
# 193-448; 39270 and 78540 lie past the first 2^15 powers.
@pytest.mark.parametrize("k,theta", [
    (64, math.pi / 127), (66, math.pi / 131), (193, math.pi / 385),
    (39270, 4e-5), (78540, 2e-5),
])
def test_power_length_witness_across_block_edges(k, theta):
    a = diag_unitary(theta)
    got = unitgeom.power_length_witness(a)
    assert got == _fixed_block_witness(a)
    assert got[0] == k
    if k <= 2000:
        want = oracles.power_witness_highprec([theta], 1)
        assert (got[0], got[1]) == (want[0], pytest.approx(want[1]))
    for max_power in (1, 63, 64, 65, 192, 193):
        assert unitgeom.power_length_witness(a, max_power) == _fixed_block_witness(a, max_power)


def test_power_length_witness_matches_fixed_blocks_on_haar_draws():
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 4, 5):
        for _ in range(20):
            a = unitgeom.haar_unitary(d, rng)
            assert unitgeom.power_length_witness(a) == _fixed_block_witness(a)


def test_power_length_witness_identity_and_budget():
    with pytest.raises(IdentityInput):
        unitgeom.power_length_witness(UnitaryPoint(np.eye(2)))
    assert unitgeom.power_length_witness(diag_unitary(1e-3), max_power=10) is None


@pytest.mark.parametrize("tenths", range(1, 20))
def test_packing_threshold_matches_highprec(tenths):
    eps = Fraction(tenths, 10)
    assert unitgeom.packing_threshold(1, eps).m == oracles.packing_m_highprec(eps)


@pytest.mark.parametrize(
    "eps", [Fraction(1, 10**10), Fraction(3, 10**31), Fraction(1, 10**60), Fraction(1, 10**100)]
)
def test_packing_threshold_matches_highprec_for_small_eps(eps):
    unitgeom._pi.cache_clear()
    m = unitgeom.packing_threshold(1, eps).m
    assert m == oracles.packing_m_highprec(eps)
    # pi is summed once per precision, and the precision grows with the
    # digits of m, while there are about 2 log2(m) comparisons
    info = unitgeom._pi.cache_info()
    assert info.misses <= len(str(m)) and info.hits >= 3 * info.misses


def test_packing_threshold_ties():
    # the two rational-chord ties: eps = 2 at m = 2, eps = 1 at m = 6
    assert unitgeom.packing_threshold(1, 2).m == 3
    assert unitgeom.packing_threshold(1, 1).m == 7
    assert unitgeom.packing_threshold(1, Fraction(1, 2)).m == 13


def _chord_brackets_eps(m, eps, dps=50):
    """2 sin(pi/m) < eps <= 2 sin(pi/(m-1)) at dps digits."""
    with mp.workdps(dps):
        target = mp.mpf(eps.numerator) / eps.denominator
        return 2 * mp.sin(mp.pi / m) < target <= 2 * mp.sin(mp.pi / (m - 1))


@pytest.mark.parametrize(
    "eps", [Fraction(1, 10**6), Fraction(1, 10**7), Fraction(7, 10**8), Fraction(3, 2)]
)
def test_packing_threshold_for_small_eps(eps):
    assert _chord_brackets_eps(unitgeom.packing_threshold(1, eps).m, eps)


@pytest.mark.parametrize("m", [3, 7, 1000, 6283186, 10**9])
def test_packing_threshold_at_float_ties(m):
    # eps is the float nearest the chord at m, so only the digits past
    # the sixteenth tell them apart
    eps = Fraction(2 * math.sin(math.pi / m))
    got = unitgeom.packing_threshold(1, eps).m
    assert got in (m, m + 1)
    assert _chord_brackets_eps(got, eps)


def test_packing_threshold_below_the_float_range():
    # m has 101 digits, and neighbouring chords differ in about the 101st
    eps = Fraction(1, 10**100)
    m = unitgeom.packing_threshold(1, eps).m
    assert len(str(m)) == 101 and _chord_brackets_eps(m, eps, dps=150)


def test_verify_packing_small_eps_matches_closed_form(capsys):
    assert cli.main(["verify", "packing", "--eps", "0.000001"]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[0])
    assert line["m"] == line["closed_form"] == 6283186


def test_packing_threshold_accepts_float_decimals():
    assert unitgeom.packing_threshold(1, 0.5).m == 13
    assert unitgeom.packing_threshold(1, 0.1).m == 63


def test_packing_threshold_domain():
    for bad in (0, -1, 2.1):
        with pytest.raises(ValueError):
            unitgeom.packing_threshold(1, bad)
    with pytest.raises(ValueError):
        unitgeom.packing_threshold(2, 1)  # exact route is D = 1 only


def test_length_axioms_all_small_dims():
    for d in (1, 2, 3, 4):
        rep = unitgeom.length_axioms_check(200, d, seed=100 + d)
        assert rep.passed
        assert rep.max_violation < 1e-9
        assert set(rep.violations) == {
            "identity_length",
            "symmetry",
            "conjugation",
            "triangle",
            "bi_invariance",
            "trace_identity",
        }


def test_length_axioms_reproducible_and_capped():
    a = unitgeom.length_axioms_check(50, 3, seed=9)
    b = unitgeom.length_axioms_check(50, 3, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        unitgeom.length_axioms_check(10, 9, seed=0)


@pytest.mark.parametrize("d", range(1, 9))
def test_length_axioms_match_the_per_sample_oracle(d):
    # bitwise: every violation, not only the printed maximum, is the one
    # the sample-by-sample loop finds from the same stream
    for samples in (1, 7, 60):
        for seed in range(5):
            got = unitgeom.length_axioms_check(samples, d, seed=seed).violations
            assert got == oracles.length_axioms_loop(samples, d, seed)


def test_length_axioms_report_does_not_depend_on_the_block_size(monkeypatch):
    want = [unitgeom.length_axioms_check(20, d, seed=40 + d) for d in (1, 3, 8)]
    assert unitgeom._AXIOM_BLOCK >= 20
    for block in (1, 7):
        monkeypatch.setattr(unitgeom, "_AXIOM_BLOCK", block)
        assert [unitgeom.length_axioms_check(20, d, seed=40 + d) for d in (1, 3, 8)] == want


def test_haar_unitary_is_row_zero_of_the_stacked_draw():
    for d in range(1, 9):
        stack = unitgeom._haar_stack(5, d, np.random.default_rng(50 + d))
        one = np.random.default_rng(50 + d)
        assert np.array_equal(unitgeom.haar_unitary(d, one).entries, stack[0])
        # and the rows after it are the draws after it, as the oracle makes them
        loop = np.random.default_rng(50 + d)
        assert all(np.array_equal(oracles.haar_unitary_loop(d, loop), row) for row in stack)


def test_length_axioms_reject_a_non_unitary_sample(monkeypatch):
    qr = np.linalg.qr

    def skewed_qr(z):
        q, r = qr(z)
        q = q.copy()
        q[-1] *= 1 + 1e-6  # the last matrix of the draw only
        return q, r

    monkeypatch.setattr(np.linalg, "qr", skewed_qr)
    with pytest.raises(NotUnitary):
        unitgeom.length_axioms_check(7, 3, seed=0)
    with pytest.raises(NotUnitary):
        unitgeom.haar_unitary(3, np.random.default_rng(0))


def perm_rep(g):
    return {
        i: unitgeom.permutation_unitary(g.element(i).images) for i in range(g.order)
    }


def test_coverlength_bound_holds_on_a5():
    g = build_group(parse_spec("A5"))
    x = g.index_of(parse_cycles("(1 2 3 4 5)", degree=5))
    assert unitgeom.coverlength_bound_check(g, perm_rep(g), x, x, 2, 2)


def test_coverlength_precondition_failure():
    g = build_group(parse_spec("S3"))
    # sign representation: unitary, a homomorphism, but no class pair can
    # double-cover under the exact product reading
    sign = {
        i: UnitaryPoint(np.array([[1.0 if g.element(i).is_even() else -1.0]]))
        for i in range(g.order)
    }
    x = g.index_of(parse_cycles("(1 2)", degree=3))
    with pytest.raises(CoveringPreconditionFailed):
        unitgeom.coverlength_bound_check(g, sign, x, x, 2, 2)


def test_coverlength_rejects_non_homomorphism():
    g = build_group(parse_spec("A5"))
    rng = np.random.default_rng(30)
    rep = perm_rep(g)
    rep[g.gens[0]] = unitgeom.haar_unitary(5, rng)  # break one generator
    x = g.index_of(parse_cycles("(1 2 3 4 5)", degree=5))
    with pytest.raises(NotHomomorphism):
        unitgeom.coverlength_bound_check(g, rep, x, x, 2, 2)


def test_permutation_unitary_action():
    u = unitgeom.permutation_unitary((1, 2, 0))
    e0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(u.entries @ e0, [0.0, 1.0, 0.0])
    # representation property on a sample pair
    a, b = (1, 2, 0), (0, 2, 1)
    ua, ub = unitgeom.permutation_unitary(a), unitgeom.permutation_unitary(b)
    uab = unitgeom.permutation_unitary(oracles.compose(a, b))
    assert np.allclose((ua @ ub).entries, uab.entries)
