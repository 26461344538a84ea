"""End-to-end CLI behavior: output schema, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrg import cli, gf


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return code, lines


def test_analyze_s4(capsys):
    code, lines = run(["analyze", "S4"], capsys)
    assert code == 0
    (obj,) = lines
    assert list(obj)[0] == "schema" and obj["schema"] == "qrg/1"
    assert obj["command"] == "analyze"
    assert obj["spec"] == "S4"
    assert obj["order"] == 24
    assert obj["num_classes"] == 5
    assert sorted(obj["class_sizes"]) == [1, 3, 6, 6, 8]
    assert obj["is_perfect"] is False
    assert obj["cosocle_order"] == 12
    assert obj["quasirandom_degree"] == 1  # the sign character
    assert obj["min_normal_index"] == 2


def test_analyze_trivial_group_has_null_invariants(capsys):
    code, lines = run(["analyze", "C1"], capsys)
    assert code == 0
    (obj,) = lines
    assert obj["order"] == 1
    assert obj["quasirandom_degree"] is None
    assert obj["min_normal_index"] is None


def test_analyze_tsv_layout(capsys):
    code = cli.main(["analyze", "C6", "--tsv"])
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert code == 0
    assert rows[0] == ["schema", "qrg/1"]
    table = {k: v for k, v in rows}
    assert table["order"] == "6"
    assert json.loads(table["class_sizes"]) == [1, 1, 1, 1, 1, 1]


def test_covering_query_reports_growth(capsys):
    code, lines = run(
        ["covering", "A6", "--element", "(1 2 3)(4 5 6)"], capsys
    )
    assert code == 0
    (obj,) = lines
    assert obj["K"] == 3
    assert obj["growth_trace"] == [[1, 40], [2, 270], [3, 360]]
    assert obj["reason"] is None


def test_covering_assertion_exit_codes(capsys):
    code, lines = run(
        ["covering", "A6", "--element", "(1 2 3)(4 5 6)", "--K", "3"], capsys
    )
    assert code == 0 and lines[0]["holds"] is True
    code, lines = run(
        ["covering", "A6", "--element", "(1 2 3)(4 5 6)", "--K", "2"], capsys
    )
    assert code == 1 and lines[0]["holds"] is False


def test_covering_power_range_and_inf(capsys):
    base = ["covering", "A5", "--element", "(1 2 3 4 5)", "--K", "3"]
    code, lines = run(base + ["--m", "4"], capsys)
    assert code == 0 and lines[0]["m"] == 4
    # m = inf walks up to the element order, so the identity power breaks it
    code, lines = run(base + ["--m", "inf"], capsys)
    assert code == 1 and lines[0]["m"] == "inf"


@pytest.mark.parametrize(
    "argv",
    [
        ["covering", "C4", "--element", "(1 2 3 4)", "--K", "1000000000"],
        ["covering", "A5", "--element", "idx:1", "--symmetric", "--K", "2000", "--m", "inf"],
    ],
)
def test_covering_at_large_depth_answers_from_the_power_cycle(capsys, argv):
    code, lines = run(argv, capsys)
    assert code == 1 and lines[0]["holds"] is False


def test_covering_mod_cosocle_differs_from_absolute(capsys):
    base = ["covering", "SL2:5", "--element", "mat:p=5:[[1,1],[0,1]]", "--K", "3"]
    code, lines = run(base + ["--mod-cosocle"], capsys)
    assert code == 0 and lines[0]["mod_cosocle"] is True
    code, lines = run(base, capsys)
    assert code == 1


def test_analyze_past_the_class_cap_exits_one(capsys):
    # D200 has 103 classes; the cosocle needs the lattice, which stops at 64
    code, lines = run(["analyze", "D200"], capsys)
    assert code == 1
    assert lines == [{
        "schema": "qrg/1",
        "error": "ClassCapExceeded",
        "message": "103 conjugacy classes exceed the lattice cap 64",
    }]


def test_degree_a5(capsys):
    code, lines = run(["degree", "A5"], capsys)
    assert code == 0
    (obj,) = lines
    assert obj["degrees"] == [1, 3, 3, 4, 5]
    assert obj["quasirandom_degree"] == 3
    assert obj["sum_of_squares"] == 60


def test_jordan_witness_mode(capsys):
    code, lines = run(
        ["jordan", "--n", "14", "--p", "3", "--q", "5", "--field", "7"], capsys
    )
    assert code == 0
    (obj,) = lines
    assert (obj["a"], obj["b"]) == (3, 1)
    assert obj["jordan_length"] == "5/7"
    assert obj["cycle_bound"] == "5/7"


def test_jordan_matrix_mode(capsys):
    code, lines = run(
        ["jordan", "--matrix", "mat:p=5:[[2,0,0],[0,1,0],[0,0,1]]"], capsys
    )
    assert code == 0
    (obj,) = lines
    assert obj["n"] == 3 and obj["p"] == 5
    assert obj["jordan_length"] == "1/3"


def test_jordan_requires_one_mode(capsys):
    code, lines = run(["jordan"], capsys)
    assert code == 2
    assert lines[0]["error"] == "parse"


def test_construct_sigma(capsys):
    code, lines = run(
        ["construct", "sigma", "--n", "17", "--p", "5", "--q", "7", "--field", "5"],
        capsys,
    )
    assert code == 0
    (obj,) = lines
    assert (obj["a"], obj["b"]) == (2, 1)
    assert obj["sigma"].startswith("(1 2 3 4 5)(6 7 8 9 10)(11 12 13 14 15 16 17)")
    assert obj["cycle_type"] == [7, 5, 5]
    assert obj["even"] is True and obj["fixed_point_free"] is True
    assert obj["jordan_length"] == "14/17"


def test_construct_embed(capsys):
    code, lines = run(
        ["construct", "embed", "--perm", "(1 2 3) degree=3", "--pad", "0",
         "--field", "5"],
        capsys,
    )
    assert code == 0
    (obj,) = lines
    assert obj["size"] == 6
    assert obj["preserves_symplectic_form"] is True
    assert obj["matrix"].startswith("mat:p=5:")


def test_mixing_is_deterministic(capsys):
    argv = ["mixing", "SL2:5", "--alpha", "1/2", "--eps1", "0.1", "--eps2", "0.1",
            "--trials", "2", "--seed", "11"]
    code1, first = run(argv, capsys)
    code2, second = run(argv, capsys)
    assert code1 == code2 == 0
    assert first == second
    assert len(first) == 3  # two trial lines plus the summary
    assert first[-1]["command"] == "mixing-summary"
    assert first[-1]["passed_trials"] <= 2
    assert all(list(line)[0] == "schema" for line in first)


def test_mixing_rejects_fractional_subset(capsys):
    code, lines = run(
        ["mixing", "C5", "--alpha", "1/2", "--eps1", "0.1", "--eps2", "0.1",
         "--trials", "1", "--seed", "3"],
        capsys,
    )
    assert code == 1
    assert lines[0]["error"] == "ValueError"


@pytest.mark.parametrize("alpha", ["abc", "0.5x", "1/0"])
def test_malformed_alpha_is_usage_error(capsys, alpha):
    with pytest.raises(SystemExit) as err:
        cli.main(["mixing", "C4", "--alpha", alpha, "--eps1", "0.1", "--eps2", "0.1",
                  "--seed", "1"])
    assert err.value.code == 2
    message = f"subset density must be a rational such as 1/2 or 0.5, not {alpha!r}"
    assert f"argument --alpha: {message}" in capsys.readouterr().err


def test_bad_groupspec_is_usage_error(capsys):
    code, lines = run(["analyze", "X9"], capsys)
    assert code == 2
    assert lines[0]["error"] == "parse"
    assert "offset" in lines[0]["message"]


def test_malformed_element_index_is_usage_error(capsys):
    for element, offset in (("idx:abc", 4), (" idx:abc", 5)):
        code, lines = run(["covering", "S4", "--element", element], capsys)
        assert code == 2
        assert lines[0]["error"] == "parse"
        assert f"offset {offset}" in lines[0]["message"]


def test_repeated_point_in_element_is_usage_error_at_its_offset(capsys):
    # the second 2 of the text the user typed
    code, lines = run(["covering", "A5", "--element", "(1 2)(2 3)"], capsys)
    assert code == 2
    assert lines == [{
        "schema": "qrg/1",
        "error": "parse",
        "message": "point 2 appears in two cycles (at offset 6)",
    }]


@pytest.mark.parametrize("k_args", [[], ["--K", "2"]])
def test_malformed_power_range_is_usage_error(capsys, k_args):
    with pytest.raises(SystemExit) as err:
        cli.main(["covering", "S4", "--element", "idx:1", "--m", "abc"] + k_args)
    assert err.value.code == 2
    assert "power range must be an integer or 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--K", "0"], "expected a positive integer, not '0'"),
        (["--K", "-1"], "expected a positive integer, not '-1'"),
        (["--K", "x"], "expected a positive integer, not 'x'"),
        (["--K", "2", "--m", "0"], "power range must be at least 1, not '0'"),
        (["--m", "-3"], "power range must be at least 1, not '-3'"),
    ],
)
def test_nonpositive_depth_or_power_range_is_usage_error(capsys, extra, message):
    with pytest.raises(SystemExit) as err:
        cli.main(["covering", "A5", "--element", "(1 2 3 4 5)"] + extra)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: ")
    assert message in err_text


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["covering", "A5", "--element", "(1 2 3 4 5)"], "--max-k"),
        (["mixing", "SL2:5", "--alpha", "1/2", "--eps1", "0.1", "--eps2", "0.1",
          "--seed", "1"], "--trials"),
        (["verify", "mixing"], "--trials"),
        (["verify", "mustexp"], "--samples"),
        (["verify", "axioms"], "--samples"),
        (["verify", "jordan"], "--samples"),
        (["verify", "mustexp"], "--D"),
        (["verify", "axioms"], "--D"),
        (["analyze", "A5"], "--cap-order"),
        (["analyze", "A5"], "--cap-degree"),
        (["degree", "A5"], "--cap-degree"),
        (["verify", "brenner"], "--cap-order"),
    ],
)
def test_nonpositive_counts_are_usage_errors(capsys, argv, option, value):
    with pytest.raises(SystemExit) as err:
        cli.main(argv + [option, value])
    assert err.value.code == 2
    assert f"expected a positive integer, not '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "x"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["mixing", "A5", "--alpha", "1/2", "--eps2", "0.1", "--seed", "1"], "--eps1"),
        (["mixing", "A5", "--alpha", "1/2", "--eps1", "0.1", "--seed", "1"], "--eps2"),
        (["verify", "packing"], "--eps"),
    ],
)
def test_non_finite_eps_is_usage_error(capsys, argv, option, value):
    # refused by the parser, before any group is built; "--eps1=-inf", as
    # argparse reads a separate "-inf" as an option
    with pytest.raises(SystemExit) as err:
        cli.main(argv + [f"{option}={value}"])
    assert err.value.code == 2
    message = f"expected a finite number, not {value!r}"
    assert f"argument {option}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["4", "1", "65537", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["jordan", "--n", "17", "--p", "5", "--q", "7"],
        ["construct", "sigma", "--n", "31", "--p", "5", "--q", "7"],
        ["construct", "embed", "--perm", "(1 2 3) degree=3", "--pad", "0"],
    ],
)
def test_non_prime_field_is_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--field", value])
    assert err.value.code == 2
    message = f"expected a prime p with 2 <= p < 65536, not '{value}'"
    assert f"argument --field: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["jordan", "--matrix", "mat:p=5:[[1.5,0],[0,1]]"],
        ["covering", "SL2:5", "--element", "mat:p=5:[[1,true],[0,1]]", "--K", "3"],
    ],
)
def test_non_integer_matrix_entries_are_usage_errors(capsys, argv):
    code, lines = run(argv, capsys)
    assert code == 2
    assert lines == [{
        "schema": "qrg/1",
        "error": "parse",
        "message": "matrix entries must be integers (at offset 8)",
    }]


# Each parser's text as typed: the rendered form where it is accepted, the
# offset of the offending character where it is a usage error.
_PARSED = [
    ("spec", "A5", "A5"),
    ("spec", "  prod(A4,C2) ", "prod(A4,C2)"),
    ("spec", "PSL2:7", "PSL2:7"),
    ("spec", "perm:( 1 2 3 );degree=3", "perm:(1 2 3);degree=3"),
    ("spec", "perm:(1 2) (3 4);degree=4", "perm:(1 2)(3 4);degree=4"),
    ("spec", "perm:(1 2);degree=5;gens=(1 2 3)|(3 4 5)", "perm:(1 2);degree=5;gens=(1 2 3)|(3 4 5)"),
    ("cycles", "(1 2 3)(4 5)(6 7) degree=7", "(1 2 3)(4 5)(6 7) degree=7"),
    ("cycles", "  ( 3 1 ) (2 4); degree=4 ", "(1 3)(2 4) degree=4"),
    ("cycles", "() degree=3", "() degree=3"),
    ("cycles", "(1 2)(3 +4),degree=4", "(1 2)(3 4) degree=4"),
    ("matrix", "mat:p=5:[[1,1],[0,1]]", "mat:p=5:[[1,1],[0,1]]"),
    ("matrix", " mat:p=7:[[1, 8], [0, 1]] ", "mat:p=7:[[1,1],[0,1]]"),
    ("spec", "perm: (1 2);degree=3", 5),
    ("spec", "A5x", 2),
    ("spec", "  X9", 2),
    ("spec", "perm:(1 5);degree=4", 8),
    ("cycles", "(1 2", 4),
    ("cycles", "(1 2) x degree=4", 6),
    ("cycles", "(1 2)(3 x) degree=4", 8),
    ("matrix", "mat:p=5:[[1]] x", 14),
    ("matrix", " mat:p=4:[[1]]", 7),
]
_PARSE_COMMANDS = {
    "spec": (lambda text: ["analyze", text], "spec"),
    "cycles": (lambda text: ["construct", "embed", "--perm", text, "--pad", "1",
                             "--field", "5"], "perm"),
    "matrix": (lambda text: ["jordan", "--matrix", text], "matrix"),
}


@pytest.mark.parametrize("kind,text,want", _PARSED)
def test_parsed_text_keeps_its_status(capsys, kind, text, want):
    argv, field = _PARSE_COMMANDS[kind]
    code, lines = run(argv(text), capsys)
    if isinstance(want, str):
        assert code == 0 and lines[0][field] == want
    else:
        assert code == 2 and lines[0]["error"] == "parse"
        assert lines[0]["message"].count(f"(at offset {want})") == 1


def test_psl2_takes_the_matrices_of_sl2(capsys):
    # a matrix names its coset: -x is the same element of PSL2, and the
    # answer is that of the coset's index
    for element in (
        "mat:p=7:[[1,1],[0,1]]", " mat:p=7:[[1,1],[0,1]]", "mat:p=7:[[6,6],[0,6]]", "idx:1"
    ):
        code, lines = run(["covering", "PSL2:7", "--element", element], capsys)
        assert code == 0 and lines[0]["K"] == 3
        assert lines[0]["growth_trace"] == [[1, 24], [2, 125], [3, 168]]
    code, lines = run(["covering", "PSL2:7", "--element", "mat:p=7:[[2,0],[0,4]]"], capsys)
    assert code == 0 and lines[0]["K"] == 2
    code, lines = run(["covering", "PSL2:7", "--element", "mat:p=5:[[1,1],[0,1]]"], capsys)
    assert code == 1
    assert lines == [{
        "schema": "qrg/1",
        "error": "KeyError",
        "message": "element does not belong to this group",
    }]


def test_domain_failures_exit_one(capsys):
    code, lines = run(["covering", "S4", "--element", "idx:99"], capsys)
    assert code == 1 and "out of range" in lines[0]["message"]
    code, lines = run(["covering", "SL2:5", "--element", "(1 2)"], capsys)
    assert code == 1 and lines[0]["error"] == "ValueError"
    assert lines[0]["message"].endswith("use idx:<k> or mat:...")
    # a quotient of a matrix group takes its parent's matrices; a product
    # takes only idx:<k>
    for spec, forms in (("PSL2:7", "idx:<k> or mat:..."), ("prod(A5,C3)", "idx:<k>")):
        code, lines = run(["covering", spec, "--element", "(1 2 3)"], capsys)
        assert code == 1 and lines[0]["error"] == "ValueError"
        assert lines[0]["message"].endswith(f"use {forms}")
    code, lines = run(["analyze", "A5", "--cap-order", "59"], capsys)
    assert code == 1 and lines[0]["error"] == "CapExceeded"
    # a KeyError's message prints as its text, not its repr
    code, lines = run(
        ["covering", "SL2:5", "--element", "mat:p=7:[[1,1],[0,1]]", "--K", "3"], capsys
    )
    assert code == 1
    assert lines == [{
        "schema": "qrg/1",
        "error": "KeyError",
        "message": "element does not belong to this group",
    }]


def test_cap_order_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("QRG_CAP_ORDER", "59")
    code, _ = run(["analyze", "A5"], capsys)
    assert code == 1
    code, _ = run(["analyze", "A5", "--cap-order", "60"], capsys)
    assert code == 0


def test_malformed_cap_order_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QRG_CAP_ORDER", "abc")
    code, lines = run(["analyze", "A5"], capsys)
    assert code == 2
    assert lines[0]["error"] == "parse"
    assert lines[0]["message"] == "QRG_CAP_ORDER must be an integer, not 'abc'"
    # the flag still wins over the variable
    code, _ = run(["analyze", "A5", "--cap-order", "60"], capsys)
    assert code == 0


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_cap_order_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("QRG_CAP_ORDER", value)
    code, lines = run(["analyze", "A5"], capsys)
    assert code == 2
    assert lines[0]["error"] == "parse"
    assert lines[0]["message"] == f"QRG_CAP_ORDER must be at least 1, not {value!r}"


def test_missing_required_argument_is_systemexit(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["covering", "S4"])
    assert err.value.code == 2
    capsys.readouterr()


def test_verify_packing_suite(capsys):
    code, lines = run(["verify", "packing"], capsys)
    assert code == 0
    assert lines[-1]["assertions"] == 19 and lines[-1]["failed"] == 0
    assert all(line["pass"] for line in lines[:-1])
    code, lines = run(["verify", "packing", "--eps", "0.5"], capsys)
    assert code == 0
    assert lines[0]["m"] == 13


def test_verify_preservation_suite(capsys):
    code, lines = run(["verify", "preservation"], capsys)
    assert code == 0
    assert lines[-1] == {
        "schema": "qrg/1", "suite": "preservation", "assertions": 3, "failed": 0,
    }


@pytest.mark.parametrize("suite", ["brenner", "bcc", "mixing", "preservation"])
def test_verify_suites_build_groups_under_the_cap(capsys, monkeypatch, suite):
    code, lines = run(["verify", suite, "--cap-order", "10"], capsys)
    assert code == 1 and lines[-1]["error"] == "CapExceeded"
    monkeypatch.setenv("QRG_CAP_ORDER", "10")
    code, lines = run(["verify", suite], capsys)
    assert code == 1 and lines[-1]["error"] == "CapExceeded"


def test_verify_preservation_builds_the_product_under_the_cap(capsys):
    # A5 (order 60) fits, A5 x A5 (order 3600) does not; the product is
    # built once, under the cap, so no assertion is made about it
    for cap in ("100", "1000"):
        code, lines = run(["verify", "preservation", "--cap-order", cap], capsys)
        assert code == 1
        assert lines == [
            {"schema": "qrg/1", "suite": "preservation",
             "assertion": "A5 witness pair has [(2,4),(2,4)]", "pass": True},
            {"schema": "qrg/1", "error": "CapExceeded",
             "message": f"product order 3600 exceeds cap {cap}"},
        ]


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "qrg.cli", "analyze", "C1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["schema"] == "qrg/1" and obj["order"] == 1


def _fresh_process(argv):
    """Exit code and stdout of `python -m qrg argv` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qrg", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout


def test_python_dash_m_qrg():
    code, out = _fresh_process(["analyze", "C6"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "qrg/1" and obj["order"] == 6


def test_repeated_main_calls_match_fresh_processes(capsys):
    # the argument parser is built once per process and reused by every call
    calls = [
        ["analyze", "S4"],
        ["analyze", "C6", "--tsv"],
        ["covering", "A5"],  # usage error: --element is missing
        ["analyze", "S4"],
    ]
    got = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        got.append((code, capsys.readouterr().out))
    assert got == [_fresh_process(argv) for argv in calls]
    assert [code for code, _ in got] == [0, 0, 2, 0]


def test_grouped_jordan_lengths_match_one_at_a_time():
    # rows mix sizes and fields, so matrices of one row land in different calls
    rng = np.random.default_rng(4)
    rows = []
    for _ in range(30):
        field = gf.PrimeField(int(rng.choice([2, 3, 5, 7])))
        rows.append([cli._random_invertible(rng, int(rng.integers(1, 5)), field) for _ in range(3)])
    want = [[gf.jordan_length(m) for m in row] for row in rows]
    assert cli._jordan_lengths_grouped(rows) == want


def test_bcc_counts(capsys):
    """Every (x, y, k1, m1, k2, m2) over class representatives and 1..3:
    how many double coverings hold modulo the cosocle, and how many of
    those fail at four times the exponents."""
    code, lines = run(["verify", "bcc"], capsys)
    assert code == 0
    got = [(d["assertion"], d["checked"], d["witnesses"], d["violations"]) for d in lines[:2]]
    assert got == [
        ("SL2:5 inflation x4 lifts every mod-cosocle witness", 6561, 3625, 0),
        ("SL2:7 inflation x4 lifts every mod-cosocle witness", 9801, 6736, 0),
    ]


def _readme_examples():
    """(argv, printed object) for every `$ qrg ...` line of README.md that
    is followed by its output: the JSON lines up to the next blank line."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    out = []
    for at, line in enumerate(lines):
        if not line.startswith("$ qrg ") or not lines[at + 1].startswith("{"):
            continue
        shown = []
        for text in lines[at + 1:]:
            if not text.strip():
                break
            shown.append(text)
        out.append((shlex.split(line)[2:], json.loads(" ".join(shown))))
    return out


def test_readme_examples_print_what_readme_shows(capsys):
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["analyze", "covering", "degree", "jordan"]
    for argv, shown in examples:
        code, lines = run(argv, capsys)
        assert (code, lines) == (0, [shown])
