"""Output checks for benchmark queries, written without qrg.

Each check reads one query's exit code and stdout and compares them with
facts the generator derived independently: closed-form orders, degree sums,
growth-trace shape, the reference elimination in tests/oracles.py, and the
two-prime split of the Brenner witnesses.  A check returns None when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

SCHEMA = "qrg/1"


def stream_digest(records) -> str:
    """sha256 over (argv, exit code, stdout) of every query, in order."""
    h = hashlib.sha256()
    for argv, code, out in records:
        h.update("\x00".join(argv).encode())
        h.update(f"\nexit={code}\n".encode())
        h.update(out.encode())
    return h.hexdigest()


def load_oracles(root: Path):
    """tests/oracles.py of the checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parse_literal(text: str):
    head, _, body = text.partition(":[")
    return int(head.split("=")[1]), json.loads("[" + body)


class Checker:
    def __init__(self, root: Path):
        self.root = root
        self._oracles = None

    def check(self, query, code: int, out: str) -> str | None:
        try:
            lines = [json.loads(line) for line in out.splitlines()]
        except json.JSONDecodeError as exc:
            return f"output is not JSON lines: {exc}"
        if not lines:
            return "no output"
        for obj in lines:
            if obj.get("schema") != SCHEMA:
                return "line without schema qrg/1"
            if "error" in obj:
                return f"error object: {obj['error']}: {obj.get('message')}"
        want_code = 1 if query.kind == "covering-assert" else 0
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        kind = query.kind.replace("-", "_")
        return getattr(self, f"_{kind}")(query, lines)

    def _order(self, query, obj):
        if obj.get("order") != query.expect["order"]:
            return f"order {obj.get('order')} != closed form {query.expect['order']}"
        return None

    def _analyze(self, query, lines):
        (obj,) = lines
        order = query.expect["order"]
        if sum(obj["class_sizes"]) != order:
            return "class sizes do not sum to the order"
        if obj["class_sizes"][0] != 1 or obj["num_classes"] != len(obj["class_sizes"]):
            return "class list malformed"
        if obj["cosocle_order"] != query.expect["cosocle_order"]:
            return f"cosocle order {obj['cosocle_order']} != closed form {query.expect['cosocle_order']}"
        return self._order(query, obj)

    def _degree(self, query, lines):
        (obj,) = lines
        degrees = obj["degrees"]
        order = query.expect["order"]
        if degrees[0] != 1:
            return "first degree is not 1"
        if sum(d * d for d in degrees) != order or obj["sum_of_squares"] != order:
            return "degree squares do not sum to the order"
        if len(degrees) > 1 and obj["quasirandom_degree"] != degrees[1]:
            return "quasirandom degree is not the least nontrivial degree"
        return self._order(query, obj)

    def _covering(self, query, lines):
        (obj,) = lines
        order = query.expect["order"]
        if obj["mod_cosocle"]:
            order //= query.expect["cosocle_order"]
        trace = obj["growth_trace"]
        counts = [c for _, c in trace]
        if [k for k, _ in trace] != list(range(1, len(trace) + 1)):
            return "growth trace steps are not 1..k"
        if any(b < a for a, b in zip(counts, counts[1:])) or any(c > order for c in counts):
            return "growth trace decreases or passes the (quotient) order"
        if obj["K"] is not None:
            if not trace or trace[-1] != [obj["K"], order] or not obj["property_holds"]:
                return "K set but the growth trace does not end at the (quotient) order"
        elif obj["property_holds"] or obj["reason"] is None:
            return "no K but no reason"
        if obj["element"] != query.argv[3]:
            return "element not echoed"
        return None

    def _covering_assert(self, query, lines):
        (obj,) = lines
        # With m = inf the last power checked is the identity, whose class
        # never covers a nontrivial group.
        if obj["holds"] is not False or obj["K"] != int(query.argv[5]):
            return "assertion form with m = inf reported holds"
        return None

    def _mixing(self, query, lines):
        *trials, summary = lines
        if len(trials) != query.expect["trials"] or summary["trials"] != len(trials):
            return "trial count mismatch"
        if summary["passed_trials"] != sum(bool(t["passes"]) for t in trials):
            return "passed_trials is not the number of passing trials"
        if summary["command"] != "mixing-summary":
            return "missing mixing summary"
        return None

    def _verify(self, query, lines):
        summary = lines[-1]
        if summary.get("failed") != 0 or summary.get("assertions", 0) < 1:
            return f"verify suite reported failed={summary.get('failed')}"
        return None

    def _jordan_matrix(self, query, lines):
        (obj,) = lines
        rows, p = query.expect["rows"], query.expect["p"]
        if _parse_literal(obj["matrix"]) != (p, [[x % p for x in r] for r in rows]):
            return "matrix not echoed"
        if self._oracles is None:
            self._oracles = load_oracles(self.root)
        want = self._oracles.jordan_length_reference(rows, p)
        if Fraction(obj["jordan_length"]) != want:
            return f"jordan length {obj['jordan_length']} != reference {want}"
        return None

    def _jordan_witness(self, query, lines):
        (obj,) = lines
        n, a, b = (query.expect[k] for k in ("n", "a", "b"))
        if (obj["a"], obj["b"]) != (a, b):
            return f"split ({obj['a']}, {obj['b']}) != ({a}, {b})"
        # A permutation matrix is cyclic on each cycle, so every eigenvalue has
        # one eigenvector per cycle it occurs on; 1 occurs on all a + b cycles.
        want = Fraction(n - a - b, n)
        if Fraction(obj["jordan_length"]) != want or Fraction(obj["cycle_bound"]) != want:
            return "witness length is not (n - a - b)/n"
        return None

    def _construct_embed(self, query, lines):
        (obj,) = lines
        images, pad, p = (query.expect[k] for k in ("images", "pad", "p"))
        n = len(images)
        size = 2 * n + pad
        want = [[0] * size for _ in range(size)]
        for j, i in enumerate(images):
            want[i][j] = 1
            want[n + i][n + j] = 1
        for j in range(2 * n, size):
            want[j][j] = 1
        if obj["size"] != size or _parse_literal(obj["matrix"]) != (p, want):
            return "embedding matrix differs from P + P (+ I)"
        if pad == 0 and obj.get("preserves_symplectic_form") is not True:
            return "pad 0 embedding does not preserve the symplectic form"
        return None
