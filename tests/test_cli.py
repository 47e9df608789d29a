import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import ribbonops
from ribbonops import cli, verify
from ribbonops.cli import main
from ribbonops.partitions import format_partition, horizontal_strips, partitions_up_to
from ribbonops.qlr import QLRTable
from ribbonops.qpoly import QPoly, terms
from oracles import strip_heads


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qlr_single_coefficient(capsys):
    code, out, err = run(capsys, "qlr", "--n", "3", "--outer", "4,4,4",
                         "--nu", "2,2")
    assert code == 0 and out.strip() == "q^4" and err == ""


def test_qlr_full_table_text(capsys):
    code, out, _ = run(capsys, "qlr", "--n", "3", "--outer", "3,2,1")
    assert code == 0
    assert out.strip() == "q^3 s[2] + q s[1,1]"


def test_qlr_latex_table(capsys):
    code, out, _ = run(capsys, "qlr", "--n", "3", "--outer", "4,4,4",
                       "--format", "latex")
    assert code == 0
    assert out.strip() == (
        "q^{2} s_{211} + q^{4}(s_{31} + s_{22}) + q^{6} s_{31} + q^{8} s_{4}"
    )


def test_latex_prints_minus_signs_and_drops_unit_coefficients():
    # no q-LR coefficient printed today is negative; a counterexample would be
    assert QPoly({2: 1, 1: -1, 0: -2}).text(latex=True) == "q^{2} - q - 2"
    table = QLRTable((2, 2), (), 2, {(2,): QPoly({1: 2, 0: -1}), (1, 1): QPoly({1: -1})})
    assert table.latex() == "-s_{2} + q(2s_{2} - s_{11})"
    table = QLRTable((2, 2), (), 2, {(2,): QPoly.one(), (1, 1): QPoly({3: -1})})
    assert table.latex() == "s_{2} - q^{3} s_{11}"


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_qlr_all_zero_table_prints_0(capsys, fmt):
    # (3,2,1) is its own 2-core, so no domino tableau fills it
    code, out, _ = run(capsys, "qlr", "--n", "2", "--outer", "3,2,1", "--format", fmt)
    assert code == 0 and out == "0\n"


def test_qlr_json_is_dense_and_flags_agreement(capsys):
    code, out, _ = run(capsys, "qlr", "--n", "3", "--outer", "4,4,4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["routes_agree"] is True
    assert payload["basis"] == "schur"
    assert [e["nu"] for e in payload["entries"]] == [
        [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    zero = dict(payload["entries"][-1])
    assert zero == {"nu": [1, 1, 1, 1], "coeffs": []}


def test_qlr_rejects_indivisible_skew(capsys):
    code, out, err = run(capsys, "qlr", "--n", "3", "--outer", "4,4,3")
    assert code == 2 and out == ""
    assert err.strip() == "error: skew size 11 is not divisible by n=3"


def test_qlr_rejects_wrong_nu_size(capsys):
    code, _, err = run(capsys, "qlr", "--n", "3", "--outer", "4,4,4",
                       "--nu", "1")
    assert code == 2 and "n*|nu|" in err


def test_qlr_rejects_bad_containment(capsys):
    code, _, err = run(capsys, "qlr", "--n", "2", "--outer", "2,2",
                       "--inner", "3")
    assert code == 2 and "not contained" in err


def _summands(text):
    """The summands of "a + (b + c) d", split at the + signs outside parentheses."""
    out, cur, depth = [], "", 0
    for part in text.split(" + "):
        cur = f"{cur} + {part}" if cur else part
        depth += part.count("(") - part.count(")")
        if not depth:
            out.append(cur)
            cur = ""
    return out


def _latex_nu(name):
    return tuple(map(int, name.split(","))) if "," in name else tuple(map(int, name))


def _latex_table(text):
    """{nu: {exponent: coefficient}} read back from the q-grouped latex of a table."""
    out = {}
    for bit in [] if text == "0" else _summands(text):
        m = re.fullmatch(r"(?:q(?:\^\{(\d+)\})?)? ?\(?(.*?)\)?", bit)
        e = int(m[1] or 1) if bit.startswith("q") else 0
        for term in m[2].split(" + "):
            c, name = re.fullmatch(r"(\d*)s_\{([\d,]+)\}", term).groups()
            out.setdefault(_latex_nu(name), {})[e] = int(c or 1)
    return out


def _latex_poly(text):
    """{exponent: coefficient} read back from the latex of one coefficient."""
    out = {}
    for term in [] if text == "0" else text.split(" + "):
        c, q, e = re.fullmatch(r"(-?\d*)(q(?:\^\{(\d+)\})?)?", term).groups()
        if not q:
            out[0] = int(c)
        else:
            out[int(e or 1)] = int(c + "1" if c in ("", "-") else c)
    return out


@pytest.mark.parametrize("outer,inner,n", [("4,4,4", "-", "3"), ("5,4,3", "2,1", "3"),
                                           ("6,2,2", "2", "2")])
def test_qlr_nu_prints_the_table_entry(capsys, outer, inner, n):
    shape = ("--n", n, "--outer", outer, "--inner", inner)
    code, out, _ = run(capsys, "qlr", *shape, "--format", "json")
    assert code == 0
    entries = {tuple(e["nu"]): e["coeffs"] for e in json.loads(out)["entries"]}
    code, out, _ = run(capsys, "qlr", *shape)
    assert code == 0
    text_terms = {}
    for bit in _summands(out.strip()):
        body, name = re.fullmatch(r"(?:(.*) )?s\[([\d,]+)\]", bit).groups()
        text_terms[tuple(map(int, name.split(",")))] = body or "1"
    code, out, _ = run(capsys, "qlr", *shape, "--format", "latex")
    assert code == 0
    latex_terms = _latex_table(out.strip())
    assert len(entries) > 2 and len(text_terms) > 1
    for nu, coeffs in entries.items():
        at = ("--nu", ",".join(map(str, nu)))
        code, out, err = run(capsys, "qlr", *shape, *at, "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["coeffs"] == coeffs and payload["routes_agree"] is True
        assert payload["nu"] == list(nu)
        code, out, _ = run(capsys, "qlr", *shape, *at)
        body = out.strip()
        assert code == 0
        assert text_terms.get(nu, "0") == (f"({body})" if " " in body else body), nu
        code, out, _ = run(capsys, "qlr", *shape, *at, "--format", "latex")
        assert code == 0
        assert _latex_poly(out.strip()) == latex_terms.get(nu, {}) == dict(coeffs), nu


def test_qlr_compares_the_whole_table_even_for_one_nu(capsys, monkeypatch):
    real = cli.qlr_via_expansion

    def off_by_one(outer, inner, n):
        table = real(outer, inner, n)
        table.entries[(4,)] = table.entries[(4,)] + QPoly.one()
        return table

    monkeypatch.setattr(cli, "qlr_via_expansion", off_by_one)
    for nu in ((), ("--nu", "2,2")):
        code, out, err = run(capsys, "qlr", "--n", "3", "--outer", "4,4,4", *nu)
        assert code == 1 and out == ""
        assert err == "route mismatch between operator and expansion tables\n"


def test_ribbonfn_monomial_basis(capsys):
    code, out, _ = run(capsys, "ribbonfn", "--n", "3", "--outer", "3,2,1",
                       "--basis", "monomial")
    assert code == 0
    assert out.strip() == "(q^3 + q) m[1,1] + q^3 m[2]"


def test_ribbonfn_monomial_json(capsys):
    code, out, err = run(capsys, "ribbonfn", "--n", "3", "--outer", "3,2,1",
                         "--basis", "monomial", "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps({
        "n": 3, "outer": [3, 2, 1], "inner": [], "basis": "monomial",
        "entries": [{"mu": [1, 1], "coeffs": [[1, 1], [3, 1]]}, {"mu": [2], "coeffs": [[3, 1]]}],
    }, indent=2) + "\n"


def test_ribbonfn_monomial_latex_refused(capsys, monkeypatch):
    def ribbon_function(*args):
        raise AssertionError("the refusal comes before any computation")

    monkeypatch.setattr(cli, "ribbon_function", ribbon_function)
    code, out, err = run(capsys, "ribbonfn", "--n", "3", "--outer", "3,2,1",
                         "--basis", "monomial", "--format", "latex")
    assert (code, out) == (2, "")
    assert err == "error: latex output is only wired for the schur basis\n"


def test_tableaux_text_output(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "3", "--outer", "4,4,4",
                       "--weight", "2,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 tableaux of shape 4,4,4/- weight 2,2 (n=3)"
    assert lines.count("spin 8") == 1 and lines.count("spin 4") == 2
    assert lines[1:5] == ["spin 8", "1 1 2 2", "1 1 2 2", "1 1 2 2"]


def test_tableaux_json_schema(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "3", "--outer", "4,4,4",
                       "--weight", "2,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload and all(
        set(t) == {"outer", "inner", "n", "weight", "spin", "chain", "tiles"}
        for t in payload)
    tile = payload[0]["tiles"][0]
    assert set(tile) == {"ribbon_index", "head_diagonal"}


def test_tableaux_weight_size_mismatch(capsys):
    code, _, err = run(capsys, "tableaux", "--n", "3", "--outer", "4,4,4",
                       "--weight", "2,1")
    assert code == 2 and "weight" in err


def test_strips_add_and_remove(capsys):
    code, out, _ = run(capsys, "strips", "--n", "2", "--inner", "-",
                       "--weight", "1")
    assert code == 0
    assert out.splitlines() == ["1,1  spin 1", "2  spin 0"]
    code, out, _ = run(capsys, "strips", "--n", "2", "--inner", "2",
                       "--weight", "1", "--remove")
    assert code == 0
    assert out.splitlines() == ["-  spin 0"]


@pytest.mark.parametrize("direction", [(), ("--remove",)])
def test_strips_rejects_a_negative_weight(capsys, direction):
    code, out, err = run(capsys, "strips", "--n", "2", "--weight", "-1", *direction)
    assert code == 2 and out == ""
    assert err == "error: --weight must be >= 0, got -1\n"


@pytest.mark.parametrize("verb", [
    ("strips", "--n", "1", "--inner", "-", "--weight", "3"),
    ("monomials", "--n", "2", "--nu", "1,1"),
])
def test_an_inverted_window_is_a_usage_error(capsys, verb):
    # lo > hi holds no diagonal, so it would print nothing and exit 0
    code, out, err = run(capsys, *verb, "--window", "5:1")
    assert (code, out, err) == (2, "", "error: --window lo:hi needs lo <= hi, got 5:1\n")
    code, out, _ = run(capsys, *verb, "--window", "1:1")
    assert code == 0


def test_strips_window_filter(capsys):
    code, out, _ = run(capsys, "strips", "--n", "2", "--inner", "-",
                       "--weight", "1", "--window", "1:9")
    assert code == 0
    assert out.splitlines() == ["2  spin 0"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("direction", [(), ("--remove",)])
def test_strips_window_matches_a_strip_heads_filter(capsys, n, direction):
    # the window filter as it was: every strip's heads recovered by strip_heads
    remove = bool(direction)
    for inner in [(), (2, 1), (3, 3, 1), (4, 2, 2), (5, 3, 2, 1)]:
        for weight in (0, 1, 2):
            for lo, hi in [(-2, 2), (-4, 1), (0, 6), (-6, 6)]:
                hits = horizontal_strips(inner, n, weight, remove)
                want = []
                for la, spin in (sorted(terms(hits)) if remove else terms(hits)):
                    heads = strip_heads(la, inner, n) if remove else strip_heads(inner, la, n)
                    if not heads or (lo <= heads[0] and heads[-1] <= hi):
                        want.append({"shape": list(la), "spin": spin})
                code, out, _ = run(capsys, "strips", "--n", str(n), "--inner",
                                   format_partition(inner), "--weight", str(weight),
                                   f"--window={lo}:{hi}", "--format", "json", *direction)
                assert code == 0
                assert json.loads(out)["strips"] == want


def test_strips_json(capsys):
    code, out, _ = run(capsys, "strips", "--n", "3", "--inner", "1",
                       "--weight", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["direction"] == "add" and payload["shape"] == [1]
    assert {"shape": [4], "spin": 0} in payload["strips"]


def test_quotient_roundtrip_text(capsys):
    code, out, _ = run(capsys, "quotient", "7,6,4,3,1", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("core: ")
    assert len([l for l in lines if l.startswith("quotient[")]) == 3


def test_quotient_json(capsys):
    code, out, _ = run(capsys, "quotient", "1", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "shape": [1], "core": [1],
                       "quotient": [[], []], "offsets": [2, -1]}


def test_apply_word_text(capsys):
    code, out, _ = run(capsys, "apply", "u[2] u[1] u[3] u[0]", "--n", "3")
    assert code == 0
    assert out.strip() == "q^4·(4,4,4)"


def test_apply_expression_json(capsys):
    code, out, _ = run(capsys, "apply", "h[2]", "--n", "2", "--inner", "-",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expr"] == "h[2]" and payload["start"] == []
    assert [[4], [[0, 1]]] in payload["terms"]


def test_apply_skew_schur_atom(capsys):
    # s_{21/1} = h_1^2: two dominoes added to the empty shape
    code, out, _ = run(capsys, "apply", "sskew[2,1/1]", "--n", "2")
    assert code == 0
    assert out.strip() == "q^2·(1,1,1,1) + q·(2,1,1) + (q^2 + 1)·(2,2) + q·(3,1) + 1·(4)"


def test_apply_puts_a_negative_one_term_coefficient_behind_a_minus_sign(capsys):
    code, out, err = run(capsys, "apply", "--n", "2", "p[2]", "--inner", "1")
    assert (code, err) == (0, "")
    assert out == "-q^2·(1,1,1,1,1) + q^2·(2,2,1) - 1·(3,2) + 1·(5)\n"
    # a longer coefficient keeps its parentheses after a plus sign
    code, out, err = run(capsys, "apply", "--n", "2", "p[3]")
    assert (code, err) == (0, "")
    assert out == ("q^3·(1,1,1,1,1,1) + q^2·(2,1,1,1,1) + (-q^3 + q)·(2,2,1,1)"
                   " + (-q^2 + 1)·(2,2,2) - q^2·(3,1,1,1) + (q^3 - q)·(3,3) - q·(4,1,1)"
                   " + (q^2 - 1)·(4,2) + q·(5,1) + 1·(6)\n")


@pytest.mark.parametrize("expr", ["e[-1]", "h[-1]", "e[-2] s[1]"])
def test_apply_negative_degree_is_zero(capsys, expr):
    code, out, _ = run(capsys, "apply", expr, "--n", "2", "--inner", "2,1")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("argv, want", [
    (("apply", "h[1100]", "--n", "1"), "1·(1100)"),
    (("strips", "--n", "1", "--weight", "1100"), "1100  spin 0"),
    (("strips", "--n", "2", "--weight", "1100", "--inner", "2200", "--remove"), "-  spin 0"),
])
def test_strips_longer_than_the_recursion_limit(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want + "\n", "")


def test_apply_one_letter_on_a_huge_n_is_fast(capsys):
    # u[5] makes one move; it never builds every move of (2, 1) at this n
    t0 = time.perf_counter()
    code, out, err = run(capsys, "apply", "--n", "20000", "u[5]", "--inner", "2,1")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    assert out == "q^19994·(6,3,2," + "1," * 19991 + "1)\n"
    assert elapsed < 5.0, elapsed


def test_apply_bad_expression(capsys):
    code, _, err = run(capsys, "apply", "w[2]", "--n", "2")
    assert code == 2 and "error:" in err


def test_monomials_text(capsys):
    code, out, _ = run(capsys, "monomials", "--n", "2", "--nu", "1,1",
                       "--window", "0:2")
    assert code == 0
    assert out.splitlines() == ["u[0] u[1]", "u[0] u[2]", "u[1] u[2]"]


def test_monomials_unsupported_shape(capsys):
    code, _, err = run(capsys, "monomials", "--n", "2", "--nu", "3,3",
                       "--window", "0:4")
    assert code == 2 and "no" in err


def test_yamanouchi_agrees_with_pairing(capsys):
    code, out, _ = run(capsys, "yamanouchi", "--n", "3", "--outer", "4,4,4",
                       "--nu", "2,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_operator_route"] is True
    assert payload["coeffs"] == [[4, 1]]
    assert len(payload["tableaux"]) == 1



def test_yamanouchi_rejects_a_wrong_nu_size(capsys):
    code, out, err = run(capsys, "yamanouchi", "--n", "2", "--outer", "4,4,2,2",
                         "--nu", "3,1,1")
    assert code == 2 and out == ""
    assert err == "error: need n*|nu| = 12, got 2*5\n"

def test_verify_single_identity_text(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "relations", "--n", "3",
                       "--max-size", "4", "--format", "text")
    assert code == 0
    assert out.startswith("relations n=3") and " ok " in out


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "all", "--n", "2",
                       "--max-size", "3")
    assert code == 0
    payload = json.loads(out)
    assert [r["identity"] for r in payload] == [
        "relations", "cauchy", "heisenberg", "haction", "hcommute"]
    assert all(r["ok"] for r in payload)


def test_verify_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "verify", "--identity", "hcommute", "--n", "2",
                         "--max-size", "5")
    code2, out2, _ = run(capsys, "verify", "--identity", "hcommute", "--n", "2",
                         "--max-size", "5", "--jobs", "2")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["cases"] == b["cases"]
    assert b["params"]["jobs"] == 2


def test_verify_parallel_reports_wall_time(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "hcommute", "--n", "2",
                       "--max-size", "5", "--jobs", "2")
    assert code == 0
    payload = json.loads(out)
    workers = payload["params"]["worker_elapsed"]
    assert len(workers) == 2
    assert payload["elapsed"] >= max(workers)


@pytest.mark.parametrize("argv", [
    ("qlr", "--n", "0", "--outer", "2"),
    ("qlr", "--n", "-1", "--outer", "2"),
    ("verify", "--identity", "all", "--n", "0", "--max-size", "4"),
])
def test_nonpositive_n_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    n = argv[argv.index("--n") + 1]
    assert err.strip() == f"error: --n must be >= 1, got {n}"


def test_dim_rejects_cutoff_below_n(capsys):
    code, out, err = run(capsys, "dim", "--n", "2", "--k", "1", "--max-size", "1")
    assert code == 2 and out == ""
    assert err.strip().startswith("error: max_size must be >= n=2")


def test_dim_rejects_an_automatic_cutoff_past_the_cap(capsys, monkeypatch):
    def word_matrices(*args):
        raise AssertionError("no word matrix may be built")

    monkeypatch.setattr(verify, "_word_matrices", word_matrices)
    code, out, err = run(capsys, "dim", "--n", "1", "--k", "7")
    assert code == 2 and out == ""
    assert err.startswith("error: automatic cutoffs for k=7 start at 49")
    assert err.endswith("pass --max-size to choose one\n") and err.count("\n") == 1


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # automatic cutoffs such as dim --n 2 --k 6 can outgrow the memory at hand
    def word_matrices(*args):
        raise MemoryError

    monkeypatch.setattr(verify, "_word_matrices", word_matrices)
    code, out, err = run(capsys, "dim", "--n", "2", "--k", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv, message", [
    (("--k", "0"), "k must be >= 1, got 0"),
    (("--k", "-1"), "k must be >= 1, got -1"),
    (("--blocks", "-"), "residues must keep at least one size class mod n"),
])
def test_dim_rejects_degenerate_inputs(capsys, argv, message):
    code, out, err = run(capsys, "dim", "--n", "1", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("identity", ["relations", "all"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_negative_max_size_is_a_usage_error(capsys, identity, jobs):
    code, out, err = run(capsys, "verify", "--identity", identity, "--n", "2",
                         "--max-size", "-1", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == "error: --max-size must be >= 0, got -1\n"


@pytest.mark.parametrize("identity", ["relations", "all", "dimension"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(capsys, identity, jobs):
    code, out, err = run(capsys, "verify", "--identity", identity, "--n", "2",
                         "--max-size", "2", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"error: --jobs must be >= 1, got {jobs}\n"


def test_verify_max_size_defaults_to_8(capsys):
    code, out, err = run(capsys, "verify", "--identity", "haction", "--n", "2", "--format", "text")
    assert (code, err) == (0, "")
    assert re.sub(r"\(\d+\.\d+s\)", "(N.NNs)", out) == (
        "haction n=2 {'jmax': 2, 'max_size': 8}: 2316 cases, ok (N.NNs)\n")


def test_verify_with_no_cases_fails(capsys, monkeypatch):
    # no valid --max-size gives an empty sweep, so empty the shape lists
    monkeypatch.setattr(verify, "partitions_up_to", lambda m: ())
    monkeypatch.setattr(cli, "partitions_up_to", lambda m: ())
    code, out, _ = run(capsys, "verify", "--identity", "relations", "--n", "2",
                       "--max-size", "0", "--format", "text")
    assert code == 1
    assert "0 cases, NOTHING CHECKED" in out
    code, out, _ = run(capsys, "verify", "--identity", "relations", "--n", "2",
                       "--max-size", "0", "--jobs", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["cases"] == 0 and payload["ok"] is False


def test_verify_dimension(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "dimension", "--n", "1",
                       "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2 and payload["stable"] is True
    assert payload["certificate"] == "specialization"


def test_dim_json_ranks_one_point_whatever_the_seed(capsys):
    ranks = []
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "dim", "--n", "1", "--k", "3", "--seed", seed,
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["certificate"] == "specialization"
        assert payload["specialization_ranks"] == [payload["rank"]]
        ranks.append(payload["rank"])
    assert ranks == [14, 14]


def test_dim_shorthand(capsys):
    code, out, _ = run(capsys, "dim", "--n", "1", "--k", "1", "--format", "text")
    assert code == 0
    assert out.startswith("dim n=1 k=1") and "rank 2" in out


_PROBE = """import json, sys
before = set(sys.modules)
from ribbonops.cli import main
rc = main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize("argv", [
    ["qlr", "--n", "2", "--outer", "5,3,2", "--inner", "2", "--format", "json"],
    ["quotient", "7,5,3,1", "--n", "3"],
])
def test_a_query_loads_only_the_code_it_runs(argv):
    # a fresh process, as a shell runs the command; the names are those the
    # query would import (and compile) but never run
    src = os.path.dirname(os.path.dirname(ribbonops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert {"ribbonops.cli", "ribbonops.qlr", "argparse"} <= loaded
    unused = {"dataclasses", "fractions", "inspect", "ribbonops.positive", "ribbonops.verify"}
    assert sorted(loaded & unused) == []


def test_verify_identity_choices_are_the_checker_names():
    top = cli.build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    identity = next(a for a in sub.choices["verify"]._actions if a.dest == "identity")
    assert tuple(identity.choices) == (*verify.CHECKERS, "dimension", "all")
    assert "all" in identity.choices and "nope" not in identity.choices


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["qlr", "--n", "3", "--outer", "not-a-partition"])
    assert exc.value.code == 2


# Small CLI arguments, malformed ones included, for every verb.
_SHAPES = [format_partition(la) for la in partitions_up_to(4)] * 2 + ["", "2,3", "a", "1,,1", "0"]
_shape = st.sampled_from(_SHAPES)
_composition = st.sampled_from(["-", "1", "2", "1,1", "0,1", "2,1", "1,0,1", "-1", "x"])
_window = st.one_of(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda w: "%d:%d" % w),
                    st.sampled_from(["1:", "x:1", "1:2:3"]))
_atom = st.one_of(
    st.builds("{}[{}]".format, st.sampled_from(["u", "d", "h", "hperp", "e", "p", "B"]),
              st.integers(-3, 3)),
    st.builds("s[{}]".format, _shape),
    st.builds("sskew[{}/{}]".format, _shape, _shape),
)
_bad_atom = st.sampled_from(["x[1]", "u[a]", "sskew[2,1]", "u[1", "]"])
# one atom in four is malformed, so most expressions parse
_expr = st.lists(st.one_of(_atom, _atom, _atom, _bad_atom), max_size=3).map(" ".join)


def _flag(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def _opt(flag, values):
    return st.one_of(st.just([]), _flag(flag, values))


def _verb(name, *parts):
    return st.tuples(*parts).map(lambda bits: [name] + [x for bit in bits for x in bit])


_n = st.integers(-1, 3).map(lambda n: ["--n", str(n)])
_format = _flag("--format", st.sampled_from(["text", "json"]))
_latex = _flag("--format", st.sampled_from(["text", "json", "latex"]))
_argv = st.one_of(
    _verb("qlr", _n, _flag("--outer", _shape), _opt("--inner", _shape), _opt("--nu", _shape),
          _latex),
    _verb("ribbonfn", _n, _flag("--outer", _shape), _opt("--inner", _shape),
          _opt("--basis", st.sampled_from(["schur", "monomial"])), _latex),
    _verb("tableaux", _n, _flag("--outer", _shape), _opt("--inner", _shape),
          _flag("--weight", _composition), _format),
    _verb("strips", _n, _opt("--inner", _shape), _flag("--weight", st.integers(-1, 4)),
          st.sampled_from([[], ["--remove"]]), _opt("--window", _window), _format),
    _verb("quotient", _n, _shape.map(lambda s: [s]), _format),
    _verb("apply", _n, _expr.map(lambda e: [e]), _opt("--inner", _shape), _format),
    _verb("monomials", _n, _flag("--nu", _shape), _flag("--window", _window), _format),
    _verb("yamanouchi", _n, _flag("--outer", _shape), _opt("--inner", _shape),
          _flag("--nu", _shape), _format),
    _verb("verify", _n,
          _flag("--identity", st.sampled_from(["relations", "cauchy", "heisenberg", "haction",
                                               "hcommute", "dimension", "all"])),
          _flag("--max-size", st.integers(-1, 4)), _opt("--k", st.integers(-1, 3)),
          _opt("--blocks", _composition), _opt("--seed", st.integers(0, 3)), _format),
    _verb("dim", _n, _flag("--max-size", st.integers(-1, 4)), _opt("--k", st.integers(-1, 3)),
          _opt("--blocks", _composition), _format),
)


@given(_argv)
@settings(max_examples=200, deadline=None)
def test_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
