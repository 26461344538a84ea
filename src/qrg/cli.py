"""Command line entry point.

Exit codes: 0 all checks passed (or query answered), 1 assertion or
domain failure, 2 usage or parse error.  Every emitted object carries
"schema": "qrg/1"; field order is deterministic.  Randomized commands
take --seed; verification suites fall back to pinned seeds so repeated
runs are bit-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import chars, constructions, covering, engine, gf, unitgeom
from .errors import CapExceeded, Cursor, ParseError
from .groupspec import build_group, parse_spec
from .permutations import cycle_string, parse_cycles

SCHEMA = "qrg/1"
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Pinned seeds for suite reproducibility.
SUITE_SEEDS = {
    "mustexp": 20260817,
    "axioms": 20260818,
    "mixing": 20260819,
    "jordan": 20260821,
}

EPS_GRID = [Fraction(k, 10) for k in range(1, 20)]


def _emit(obj: dict, fmt: str):
    if fmt == "tsv":
        for key, value in obj.items():
            if not isinstance(value, str):
                value = json.dumps(value)
            print(f"{key}\t{value}")
    else:
        print(json.dumps(obj))


def _report(command: str, **fields) -> dict:
    out = {"schema": SCHEMA, "command": command}
    out.update(fields)
    return out


def _cap_order(args) -> int:
    if args.cap_order is not None:
        return args.cap_order
    env = os.environ.get("QRG_CAP_ORDER")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ParseError(f"QRG_CAP_ORDER must be an integer, not {env!r}") from None
        if cap < 1:
            raise ParseError(f"QRG_CAP_ORDER must be at least 1, not {env!r}")
        return cap
    return engine.DEFAULT_ORDER_CAP


def _build(args, text: str) -> engine.GroupTable:
    return build_group(parse_spec(text), cap=_cap_order(args))


def _parse_element(g: engine.GroupTable, text: str) -> int:
    cur = Cursor(text)
    cur.skip_space()
    if cur.accept("idx:"):
        rest = text[cur.pos:]
        try:
            idx = int(rest)
        except ValueError:
            raise ParseError(f"element index {rest!r} is not an integer", pos=cur.pos) from None
        if not 0 <= idx < g.order:
            raise ValueError(f"element index {idx} out of range for order {g.order}")
        return idx
    if cur.accept("mat:"):
        return g.index_of(gf.parse_matrix(text))
    root = g
    while root.kind == "quot":
        root = root.parent
    if root.kind != "perm":
        forms = "idx:<k> or mat:..." if root.kind == "mat" else "idx:<k>"
        raise ValueError(f"cycle notation addresses permutation groups; use {forms}")
    return g.index_of(parse_cycles(text, degree=root.degree))


def _parse_m(text: str):
    if text == "inf":
        return math.inf
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"power range must be an integer or 'inf', not {text!r}"
        ) from None
    if m < 1:
        raise argparse.ArgumentTypeError(f"power range must be at least 1, not {text!r}")
    return m


def _parse_alpha(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"subset density must be a rational such as 1/2 or 0.5, not {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return k


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, not {text!r}")
    return x


def _prime_field(text: str) -> gf.PrimeField:
    try:
        return gf.PrimeField(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a prime p with 2 <= p < {gf.MAX_PRIME}, not {text!r}"
        ) from None


def _add_common(sub):
    sub.add_argument("--json", dest="fmt", action="store_const", const="json")
    sub.add_argument("--tsv", dest="fmt", action="store_const", const="tsv")
    sub.add_argument("--cap-order", type=_positive_int, default=None,
                     help="group enumeration cap (env QRG_CAP_ORDER)")
    sub.set_defaults(fmt="json")


def cmd_analyze(args) -> int:
    g = _build(args, args.groupspec)
    classes = g.classes
    cos = engine.cosocle(g)
    if g.order == 1:
        degree = None
        index = None
    else:
        try:
            degree = chars.quasirandom_degree(g, cap=args.cap_degree)
        except CapExceeded:
            degree = None
        index = chars.min_normal_index(g)
    _emit(_report(
        "analyze",
        spec=g.label,
        order=g.order,
        num_classes=len(classes),
        class_sizes=[c.size for c in classes],
        is_perfect=engine.is_perfect(g),
        cosocle_order=cos.order,
        cosocle_num_classes=cos.num_classes,
        quasirandom_degree=degree,
        min_normal_index=index,
    ), args.fmt)
    return EXIT_PASS


def cmd_covering(args) -> int:
    g = _build(args, args.groupspec)
    x = _parse_element(g, args.element)
    if args.mod_cosocle:
        q = engine.quotient(g, engine.cosocle(g))
        target, xt = q, int(q.proj[x])
    else:
        target, xt = g, x
    if args.K is None:
        rep = covering.covering_number(
            target, xt, symmetric=args.symmetric, max_k=args.max_k
        )
        _emit(_report(
            "covering",
            spec=g.label,
            element=args.element,
            mod_cosocle=args.mod_cosocle,
            symmetric=rep.symmetric,
            K=rep.K,
            property_holds=rep.property_holds,
            reason=rep.reason,
            growth_trace=[[k, c] for k, c in rep.growth_trace],
        ), args.fmt)
        return EXIT_PASS
    holds = covering.covering_property(target, xt, args.K, args.m, symmetric=args.symmetric)
    _emit(_report(
        "covering",
        spec=g.label,
        element=args.element,
        mod_cosocle=args.mod_cosocle,
        symmetric=args.symmetric,
        K=args.K,
        m="inf" if args.m == math.inf else args.m,
        holds=holds,
    ), args.fmt)
    return EXIT_PASS if holds else EXIT_FAIL


def cmd_degree(args) -> int:
    g = _build(args, args.groupspec)
    report = chars.character_degrees(g, cap=args.cap_degree)
    _emit(_report(
        "degree",
        spec=g.label,
        order=g.order,
        degrees=list(report.degrees),
        quasirandom_degree=report.degrees[1] if len(report.degrees) > 1 else None,
        sum_of_squares=sum(x * x for x in report.degrees),
    ), args.fmt)
    return EXIT_PASS


def cmd_jordan(args) -> int:
    given = [x is not None for x in (args.n, args.p, args.q, args.field)]
    if args.matrix is not None and not any(given):
        m = gf.parse_matrix(args.matrix)
        value = gf.jordan_length(m)
        _emit(_report(
            "jordan",
            matrix=gf.matrix_literal(m),
            n=m.n,
            p=m.field.p,
            jordan_length=gf.format_rational(value),
        ), args.fmt)
        return EXIT_PASS
    if args.matrix is not None or not all(given):
        raise ParseError("jordan needs either --matrix or all of --n --p --q --field")
    value = constructions.jordan_of_sigma(args.n, args.p, args.q)
    a, b = constructions.solve_two_prime(args.n, args.p, args.q)
    _emit(_report(
        "jordan",
        n=args.n,
        p=args.p,
        q=args.q,
        field=args.field.p,
        a=a,
        b=b,
        jordan_length=gf.format_rational(value),
        cycle_bound=gf.format_rational(Fraction(args.n - (a + b), args.n)),
    ), args.fmt)
    return EXIT_PASS


def cmd_construct(args) -> int:
    if args.what == "sigma":
        sigma = constructions.brenner_sigma(args.n, args.p, args.q)
        a, b = constructions.solve_two_prime(args.n, args.p, args.q)
        ct = sigma.cycle_type()
        fields = {
            "n": args.n, "p": args.p, "q": args.q, "a": a, "b": b,
            "sigma": cycle_string(sigma),
            "cycle_type": list(ct.lengths),
            "even": ct.is_even,
            "fixed_point_free": sigma.is_fixed_point_free(),
        }
        if args.field is not None:
            value = constructions.jordan_of_sigma(args.n, args.p, args.q)
            fields["field"] = args.field.p
            fields["jordan_length"] = gf.format_rational(value)
        _emit(_report("construct", **fields), args.fmt)
        return EXIT_PASS
    perm = parse_cycles(args.perm)
    m = constructions.double_embed(perm, args.pad, args.field)
    fields = {
        "perm": cycle_string(perm),
        "pad": args.pad,
        "field": args.field.p,
        "size": m.n,
        "matrix": gf.matrix_literal(m),
    }
    if args.pad == 0:
        fields["preserves_symplectic_form"] = constructions.symplectic_check(m)
    _emit(_report("construct", **fields), args.fmt)
    return EXIT_PASS


def cmd_mixing(args) -> int:
    g = _build(args, args.groupspec)
    size_frac = args.alpha * g.order
    if size_frac.denominator != 1 or not 0 < size_frac.numerator <= g.order:
        raise ValueError(f"alpha {args.alpha} does not give an integer subset size")
    size = size_frac.numerator
    rng = np.random.default_rng(args.seed)
    subsets = [rng.choice(g.order, size=size, replace=False) for _ in range(args.trials)]
    passed = 0
    for trial, rep in enumerate(chars.gowers_mixing(g, subsets, args.eps1, args.eps2)):
        passed += rep.passes
        _emit(_report(
            "mixing",
            spec=g.label,
            trial=trial,
            good_x_count=rep.good_x_count,
            threshold_pairs=rep.threshold_pairs,
            passes=rep.passes,
        ), args.fmt)
    _emit(_report(
        "mixing-summary",
        spec=g.label,
        alpha=str(args.alpha),
        eps1=args.eps1,
        eps2=args.eps2,
        seed=args.seed,
        trials=args.trials,
        passed_trials=passed,
    ), args.fmt)
    return EXIT_PASS


def _closed_form_m(eps: Fraction) -> int:
    """Least m with 2 sin(pi/m) < eps via m > pi/asin(eps/2).

    Integer crossings happen only at eps = 2 (m = 2) and eps = 1 (m = 6),
    where the strict inequality pushes one step further.
    """
    if eps == 2:
        return 3
    if eps == 1:
        return 7
    return math.floor(math.pi / math.asin(float(eps) / 2.0)) + 1


def _suite_brenner(args):
    for spec_text, cyc in (
        ("A6", "(1 2 3)(4 5 6)"),
        ("A7", "(1 2 3)(4 5)(6 7)"),
        ("A8", "(1 2 3 4)(5 6 7 8)"),
    ):
        g = _build(args, spec_text)
        x = _parse_element(g, cyc)
        rep = covering.covering_number(g, x)
        yield (
            f"{spec_text} sigma covering number at most 4",
            rep.K is not None and rep.K <= 4,
            {"K": rep.K},
        )
        full = g.class_set_power(1 << int(g.class_of[x]), 4) == g.full_class_bits()
        yield (f"{spec_text} 4-fold class product is the whole group", full, {})


def _suite_bcc(args):
    ks = ms = (1, 2, 3)
    for spec_text in ("SL2:5", "SL2:7"):
        g = _build(args, spec_text)
        reps = [c.rep for c in g.classes]
        factor, mod, minimal = covering.cosocle_inflation(g, reps, ms, ks, reps, ms, ks)
        witnesses, violations = int(mod.sum()), int((mod & (minimal == 0)).sum())
        yield (
            f"{spec_text} inflation x{factor} lifts every mod-cosocle witness",
            violations == 0 and witnesses > 0,
            {"checked": mod.size, "witnesses": witnesses, "violations": violations},
        )


def _suite_packing(args):
    grid = [Fraction(str(args.eps))] if args.eps is not None else EPS_GRID
    for eps in grid:
        got = unitgeom.packing_threshold(eps)
        want = _closed_form_m(eps)
        yield (f"packing D=1 eps={eps}", got == want, {"m": got, "closed_form": want})


def _suite_mustexp(args):
    d = args.D or 3
    seed = args.seed if args.seed is not None else SUITE_SEEDS["mustexp"]
    rng = np.random.default_rng(seed)
    found = 0
    floored = 0
    for _ in range(args.samples):
        while True:
            u = unitgeom.haar_unitary(d, rng)
            angles = np.abs(np.angle(np.linalg.eigvals(u.entries)))
            if angles.max() >= 1e-4:
                break
            floored += 1
        if unitgeom.power_length_witness(u) is not None:
            found += 1
    yield (
        f"mustexp D={d}: all {args.samples} samples exceed sqrt(2) within 1e6 powers",
        found == args.samples,
        {"found": found, "samples": args.samples, "angle_floor_rejections": floored,
         "seed": seed},
    )


def _suite_axioms(args):
    dims = [args.D] if args.D is not None else [1, 2, 3, 4]
    base = args.seed if args.seed is not None else SUITE_SEEDS["axioms"]
    for d in dims:
        rep = unitgeom.length_axioms_check(args.samples, d, seed=base + d)
        yield (
            f"length axioms D={d} max violation below 1e-9",
            rep.passed,
            {"max_violation": rep.max_violation},
        )


def _suite_mixing(args):
    seed = args.seed if args.seed is not None else SUITE_SEEDS["mixing"]
    rng = np.random.default_rng(seed)
    rates = {}
    for spec_text in ("SL2:5", "SL2:11"):
        g = _build(args, spec_text)
        subsets = [rng.choice(g.order, size=g.order // 2, replace=False)
                   for _ in range(args.trials)]
        reps = chars.gowers_mixing(g, subsets, Fraction(1, 10), Fraction(1, 10))
        rates[spec_text] = sum(rep.passes for rep in reps)
    yield (
        f"SL2:11 mixing passes at least 95% of {args.trials} trials",
        rates["SL2:11"] * 100 >= 95 * args.trials,
        {"passed": rates["SL2:11"], "trials": args.trials, "seed": seed},
    )
    yield (
        "pass rate non-decreasing from SL2:5 to SL2:11",
        rates["SL2:11"] >= rates["SL2:5"],
        {"SL2:5": rates["SL2:5"], "SL2:11": rates["SL2:11"]},
    )


def _random_invertible(rng, n: int, p: int) -> np.ndarray:
    while True:
        entries = rng.integers(0, p, size=(n, n))
        if gf.ff_rank(entries, p) == n:
            return entries


def _cycle_counts(images: np.ndarray) -> np.ndarray:
    """Cycles, fixed points included, of each row of an (m, n) array of
    permutation images: the points least in their own cycle."""
    n = images.shape[1]
    least = np.broadcast_to(np.arange(n), images.shape)
    point = images
    for _ in range(n - 1):
        least = np.minimum(least, point)
        point = np.take_along_axis(images, point, axis=1)
    return np.count_nonzero(least == np.arange(n), axis=1)


def _suite_jordan(args):
    seed = args.seed if args.seed is not None else SUITE_SEEDS["jordan"]
    rng = np.random.default_rng(seed)
    primes = (2, 3, 5, 7)

    # every matrix is drawn first, in the order the samples consume the
    # generator, and kept by (n, p), whose lengths share the denominator n
    cells = {}
    for _ in range(args.samples):
        p = primes[rng.integers(4)]
        n = int(rng.integers(1, 7))
        cells.setdefault((n, p), []).append((_random_invertible(rng, n, p),
                                             _random_invertible(rng, n, p)))
    axiom_failures = 0
    for (n, p), pairs in cells.items():
        a, b = map(np.array, zip(*pairs))
        inv = gf.ff_inv(np.concatenate([a, b]), p)
        conj = b @ a % p @ inv[len(a):] % p
        la, l_inv, l_conj, l_prod, lb = gf.jordan_numerators(
            np.concatenate([a, inv[: len(a)], conj, a @ b % p, b]), p
        ).reshape(5, -1)
        bad = (l_inv != la) | (l_conj != la) | (l_prod > la + lb)
        axiom_failures += int(np.count_nonzero(bad))
    yield (
        f"jordan pseudo-length axioms exact on {args.samples} samples",
        axiom_failures == 0,
        {"failures": axiom_failures, "seed": seed},
    )

    # for the block sum s of a and b, l(s) >= (n1 l(a) + n2 l(b)) / (n1 + n2)
    # over the one denominator n1 + n2 is num(s) >= num(a) + num(b)
    cells = {}
    for _ in range(args.samples):
        p = primes[rng.integers(4)]
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        cells.setdefault((n1, n2, p), []).append((_random_invertible(rng, n1, p),
                                                  _random_invertible(rng, n2, p)))
    sum_failures = 0
    for (n1, n2, p), pairs in cells.items():
        a, b = map(np.array, zip(*pairs))
        zero = np.zeros((len(a), n1, n2), dtype=np.int64)
        both = np.block([[a, zero], [zero.swapaxes(1, 2), b]])
        bound = gf.jordan_numerators(a, p) + gf.jordan_numerators(b, p)
        sum_failures += int(np.count_nonzero(gf.jordan_numerators(both, p) < bound))
    yield (
        f"jordan direct-sum lower bound exact on {args.samples} pairs",
        sum_failures == 0,
        {"failures": sum_failures},
    )

    perm_failures = 0
    checked = 0
    for n in range(2, 9):
        images = np.array(list(itertools.permutations(range(n))))
        # the bound (n - cycles)/n and the lengths share the denominator n
        bounds = n - _cycle_counts(images)
        # 0/1 entries, the same over every field: row images[k, j] of column j
        mats = np.zeros((len(images), n, n), dtype=np.int64)
        mats[np.arange(len(images))[:, None], images, np.arange(n)] = 1
        for p in (2, 3, 5):
            numerators = gf.jordan_numerators(mats, p)
            perm_failures += int(np.count_nonzero(numerators < bounds))
            checked += len(images)
    yield (
        "permutation matrices meet the (n-k)/n bound for degree <= 8",
        perm_failures == 0,
        {"checked": checked, "failures": perm_failures},
    )


def _suite_preservation(args):
    a5 = _build(args, "A5")
    x = _parse_element(a5, "(1 2 3 4 5)")
    params = (2, 4, 2, 4)
    base = covering.double_covering_feasible(a5, x, x, *params)
    yield ("A5 witness pair has [(2,4),(2,4)]", base, {})

    prod = engine.direct_product(a5, a5, cap=_cap_order(args))
    xt = covering.product_witness_index([a5, a5], [x, x])
    ok = base and covering.double_covering_feasible(prod, xt, xt, *params)
    yield ("parameters transfer to A5 x A5", ok, {})

    sub = engine.normal_subgroup_from_elements(prod, list(range(a5.order)))
    q = engine.quotient(prod, sub)
    back = covering.double_covering_feasible(
        q, int(q.proj[xt]), int(q.proj[xt]), *params
    )
    yield ("parameters survive the quotient back to A5", back, {"quotient_order": q.order})


_SUITES = {
    "brenner": _suite_brenner,
    "bcc": _suite_bcc,
    "packing": _suite_packing,
    "mustexp": _suite_mustexp,
    "axioms": _suite_axioms,
    "mixing": _suite_mixing,
    "jordan": _suite_jordan,
    "preservation": _suite_preservation,
}


def cmd_verify(args) -> int:
    failed = 0
    total = 0
    for name, ok, detail in _SUITES[args.suite](args):
        total += 1
        failed += not ok
        line = {"schema": SCHEMA, "suite": args.suite, "assertion": name, "pass": bool(ok)}
        line.update(detail)
        _emit(line, args.fmt)
    _emit({
        "schema": SCHEMA,
        "suite": args.suite,
        "assertions": total,
        "failed": failed,
    }, args.fmt)
    return EXIT_PASS if failed == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrg",
        description="Covering numbers, character degrees, and length functions "
        "for small finite groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="order, classes, cosocle, D(G)")
    p.add_argument("groupspec")
    p.add_argument("--cap-degree", type=_positive_int, default=chars.DEGREE_ORDER_CAP)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("covering", help="covering numbers and properties")
    p.add_argument("groupspec")
    p.add_argument("--element", required=True,
                   help="cycles, mat:p=..:[..], or idx:<k>")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--K", type=_positive_int, default=None)
    p.add_argument("--m", type=_parse_m, default="1", help="power range, integer or 'inf'")
    p.add_argument("--mod-cosocle", action="store_true")
    p.add_argument("--max-k", type=_positive_int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_covering)

    p = subs.add_parser("degree", help="irreducible character degrees")
    p.add_argument("groupspec")
    p.add_argument("--cap-degree", type=_positive_int, default=chars.DEGREE_ORDER_CAP)
    _add_common(p)
    p.set_defaults(func=cmd_degree)

    p = subs.add_parser("jordan", help="Jordan length of a matrix or witness")
    p.add_argument("--matrix", default=None, help="mat:p=<prime>:[[..],..]")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--field", type=_prime_field, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_jordan)

    p = subs.add_parser("construct", help="explicit witnesses and embeddings")
    what = p.add_subparsers(dest="what", required=True)
    ps = what.add_parser("sigma")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--field", type=_prime_field, default=None)
    _add_common(ps)
    ps.set_defaults(func=cmd_construct, what="sigma")
    pe = what.add_parser("embed")
    pe.add_argument("--perm", required=True, help='cycles with degree, e.g. "(1 2 3) degree=3"')
    pe.add_argument("--pad", type=int, choices=(0, 1, 2), required=True)
    pe.add_argument("--field", type=_prime_field, required=True)
    _add_common(pe)
    pe.set_defaults(func=cmd_construct, what="embed")

    p = subs.add_parser("mixing", help="Gowers mixing trials")
    p.add_argument("groupspec")
    p.add_argument("--alpha", type=_parse_alpha, required=True,
                   help="subset density, e.g. 1/2")
    p.add_argument("--eps1", type=_finite_float, required=True)
    p.add_argument("--eps2", type=_finite_float, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_mixing)

    p = subs.add_parser("verify", help="named verification suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--D", type=_positive_int, default=None)
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# Built once per process: building takes milliseconds, longer than many
# queries take to answer.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit({"schema": SCHEMA, "error": "parse", "message": str(exc)}, "json")
        return EXIT_USAGE
    except (
        CapExceeded,
        chars.NoSuitablePrime,
        engine.MixedCarriers,
        ValueError,
        ArithmeticError,
        KeyError,
    ) as exc:
        # str() of a KeyError with one argument is that argument's repr
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else str(exc)
        _emit({
            "schema": SCHEMA,
            "error": type(exc).__name__,
            "message": str(message),
        }, "json")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
