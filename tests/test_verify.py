import pytest

from ribbonops import verify
from ribbonops.fock import FockVec
from ribbonops.operators import apply_B, apply_h_perp
from ribbonops.partitions import format_partition, partitions_up_to
from ribbonops.qpoly import QPoly
from ribbonops.verify import (
    CHECKERS,
    DimensionReport,
    VerificationReport,
    _certified_rank,
    _word_matrices,
    algebra_dimension,
    check_cauchy,
    check_h_commute,
    check_haction,
    check_heisenberg,
    check_relations,
    run_identity,
)
from oracles import rank_by_bareiss


def test_every_checker_passes_at_desk_scale():
    for name, checker in CHECKERS.items():
        for n in (2, 3):
            rep = checker(n, 5)
            assert rep.ok, rep.summary()
            assert rep.cases > 0
            assert rep.identity == name
            js = rep.to_json()
            assert js["ok"] is True and js["failures"] == []


def test_run_identity_dispatch():
    rep = run_identity("relations", 2, 4)
    assert rep.ok and rep.identity == "relations"
    with pytest.raises(ValueError):
        run_identity("nonsense", 2, 4)


def test_checkers_accept_an_explicit_shape_list():
    rep = check_relations(3, 0, shapes=[(2, 1), (1,)])
    assert rep.ok and rep.cases > 0
    full = check_relations(3, 2)
    sliced = check_relations(3, 0, shapes=list(partitions_up_to(2)))
    assert full.cases == sliced.cases


# cases per rule of check_relations(n, 4); every rule must run, so deleting
# one of its branches changes a count here even when all the others still pass
RELATION_RULE_COUNTS = {
    2: {"u_i u_i = 0": 152, "u_{i+n} u_i u_{i+n} = 0": 152, "u_i u_{i+n} u_i = 0": 152,
        "u_i d_j = d_j u_i": 899, "u_j d_i = d_i u_j": 899,
        "u_i u_j = q^2 u_j u_i": 140, "far letters commute": 631},
    3: {"u_i u_i = 0": 200, "u_{i+n} u_i u_{i+n} = 0": 200, "u_i u_{i+n} u_i = 0": 200,
        "u_i d_j = d_j u_i": 1579, "u_j d_i = d_i u_j": 1579,
        "u_i u_j = q^2 u_j u_i": 364, "far letters commute": 1051},
}


def _count_rules(monkeypatch, rule=lambda witness: witness["rule"]):
    """{rule(witness): cases} filled as the checkers tally their cases."""
    counts = {}
    tally = VerificationReport.tally

    def spy(self, lhs, rhs, witness):
        counts[rule(witness)] = counts.get(rule(witness), 0) + 1
        tally(self, lhs, rhs, witness)

    monkeypatch.setattr(VerificationReport, "tally", spy)
    return counts


@pytest.mark.parametrize("n", sorted(RELATION_RULE_COUNTS))
def test_relations_run_every_rule(monkeypatch, n):
    counts = _count_rules(monkeypatch)
    rep = check_relations(n, 4)
    assert rep.ok and rep.cases == sum(counts.values())
    assert counts == RELATION_RULE_COUNTS[n]


# cases per rule of the haction and heisenberg checkers at max_size 4, each
# at its `verify --identity` parameters; the heisenberg witnesses carry k
# and l, and "B_k v != 0" counts the nonzero images B_k takes, by the sign
# of k, so that a generator that loses its moves changes a count here; each
# B_l v and B_k B_l v is built once per shape, 42 images in all
HACTION_RULE_COUNTS = {
    2: {"closed form": 208, "full line": 24, "tail at add slot": 68,
        "tail at remove slot": 20},
    3: {"closed form": 256, "full line": 24, "tail at add slot": 84,
        "tail at remove slot": 12},
}
HEISENBERG_RULE_COUNTS = {
    2: {"[B_k, B_-k] = scalar": 72, "[B_k, B_l] = 0": 360,
        "B_k v != 0, k < 0": 186, "B_k v != 0, k > 0": 83},
    3: {"[B_k, B_-k] = scalar": 72, "[B_k, B_l] = 0": 360,
        "B_k v != 0, k < 0": 162, "B_k v != 0, k > 0": 54},
}


# nonzero images of the generators on each shape of size <= 4, as
# (#{l: B_l v != 0}, #{(k, l): B_k B_l v != 0}) over 0 < |k|, |l| <= 3: what
# B does, however often the checker evaluates it
HEISENBERG_IMAGE_COUNTS = {
    2: {"-": (3, 12), "1": (3, 12), "2": (4, 17), "1,1": (4, 17), "3": (4, 17),
        "2,1": (3, 12), "1,1,1": (4, 17), "4": (5, 23), "3,1": (5, 23), "2,2": (5, 23),
        "2,1,1": (5, 23), "1,1,1,1": (5, 23)},
    3: {"-": (3, 12), "1": (3, 12), "2": (3, 12), "1,1": (3, 12), "3": (4, 17),
        "2,1": (4, 17), "1,1,1": (4, 17), "4": (4, 17), "3,1": (3, 12), "2,2": (4, 17),
        "2,1,1": (3, 12), "1,1,1,1": (4, 17)},
}


@pytest.mark.parametrize("n", sorted(HACTION_RULE_COUNTS))
def test_haction_runs_every_rule(monkeypatch, n):
    counts = _count_rules(monkeypatch)
    rep = run_identity("haction", n, 4)
    assert rep.ok and rep.cases == sum(counts.values())
    assert counts == HACTION_RULE_COUNTS[n]


@pytest.mark.parametrize("n", sorted(HEISENBERG_RULE_COUNTS))
def test_heisenberg_runs_every_rule(monkeypatch, n):
    counts = _count_rules(monkeypatch, lambda witness: "[B_k, B_-k] = scalar"
                          if witness["k"] == -witness["l"] else "[B_k, B_l] = 0")
    apply_B = verify.apply_B

    def spy(k, *rest):
        out = apply_B(k, *rest)
        if out:
            key = f"B_k v != 0, k {'<' if k < 0 else '>'} 0"
            counts[key] = counts.get(key, 0) + 1
        return out

    monkeypatch.setattr(verify, "apply_B", spy)
    rep = run_identity("heisenberg", n, 4)
    assert rep.ok and rep.cases == counts["[B_k, B_-k] = scalar"] + counts["[B_k, B_l] = 0"]
    assert counts == HEISENBERG_RULE_COUNTS[n]


@pytest.mark.parametrize("n", sorted(HEISENBERG_IMAGE_COUNTS))
def test_heisenberg_images_per_shape(n):
    ks = [k for k in range(-3, 4) if k]
    counts = {}
    for la in partitions_up_to(4):
        once = {l: apply_B(l, n, FockVec.basis(la)) for l in ks}
        twice = [apply_B(k, n, once[l]) for k in ks for l in ks]
        counts[format_partition(la)] = (sum(map(bool, once.values())), sum(map(bool, twice)))
    assert counts == HEISENBERG_IMAGE_COUNTS[n]


# cases per (a, b) of check_cauchy(n, 4, 4, 4) and check_h_commute(n, 4, 4),
# in the order each shape runs them: one case per pair on each of the 12
# partitions of size <= 4
CAUCHY_PAIR_COUNTS = {
    2: {(a, b): 12 for a in range(5) for b in range(5)},
    3: {(a, b): 12 for a in range(5) for b in range(5)},
}
HCOMMUTE_PAIR_COUNTS = {
    2: {(1, 2): 12, (1, 3): 12, (1, 4): 12, (2, 3): 12, (2, 4): 12, (3, 4): 12},
    3: {(1, 2): 12, (1, 3): 12, (1, 4): 12, (2, 3): 12, (2, 4): 12, (3, 4): 12},
}


@pytest.mark.parametrize("n", sorted(CAUCHY_PAIR_COUNTS))
def test_cauchy_runs_every_pair(monkeypatch, n):
    counts = _count_rules(monkeypatch, lambda witness: (witness["a"], witness["b"]))
    rep = check_cauchy(n, 4, 4, 4)
    assert rep.ok and rep.cases == sum(counts.values())
    assert list(counts.items()) == list(CAUCHY_PAIR_COUNTS[n].items())


@pytest.mark.parametrize("n", sorted(HCOMMUTE_PAIR_COUNTS))
def test_h_commute_runs_every_pair(monkeypatch, n):
    counts = _count_rules(monkeypatch, lambda witness: (witness["a"], witness["b"]))
    rep = check_h_commute(n, 4, 4)
    assert rep.ok and rep.cases == sum(counts.values())
    assert list(counts.items()) == list(HCOMMUTE_PAIR_COUNTS[n].items())


def test_reports_count_failures():
    rep = VerificationReport("demo", 2, {})
    rep.tally(QPoly.one(), QPoly.one(), {"shape": "-"})
    rep.tally(QPoly.one(), QPoly.zero(), {"shape": "-"})
    assert rep.cases == 2 and not rep.ok
    assert "FAILED" in rep.summary()
    assert rep.to_json()["failures"][0]["lhs"] == "1"


def test_a_sweep_with_no_cases_is_not_ok():
    rep = VerificationReport("demo", 2, {})
    assert rep.cases == 0 and not rep.failures and not rep.ok
    assert "0 cases, NOTHING CHECKED" in rep.summary()
    empty = check_relations(2, -1)
    assert empty.cases == 0 and not empty.ok
    assert empty.to_json()["ok"] is False



def _doubled(op, first):
    return lambda k, n, v: op(k, n, v) * 2 if k == first else op(k, n, v)


# Per checker: the operator the fault replaces in verify, the faulty version,
# then the report's params, cases, failure count and first failure at n = 2.
FAULTS = {
    "relations": ("apply_u", lambda op: lambda i, n, v: op(i, n, v) + v if i == 1 else op(i, n, v),
                  {"max_size": 4}, 3025, 40,
                  {"rule": "u_{i+n} u_i u_{i+n} = 0", "i": -1, "shape": "-",
                   "lhs": "q·(2,1,1)", "rhs": "0"}),
    "cauchy": ("apply_h", lambda op: _doubled(op, 1),
               {"amax": 4, "bmax": 4, "max_size": 4}, 300, 93,
               {"a": 1, "b": 1, "shape": "-", "lhs": "(2q^2 + 2)·(-)", "rhs": "(q^2 + 1)·(-)"}),
    "heisenberg": ("apply_B", lambda op: _doubled(op, 1),
                   {"kmax": 3, "max_size": 4}, 432, 24,
                   {"k": -1, "l": 1, "shape": "-",
                    "lhs": "(-2q^2 - 2)·(-)", "rhs": "(-q^2 - 1)·(-)"}),
    "haction": ("apply_u", lambda op: _doubled(op, 1),
                {"jmax": 2, "max_size": 4}, 320, 14,
                {"rule": "closed form", "i": 1, "j": 1, "shape": "-",
                 "lhs": "-2·(-)", "rhs": "-1·(-)"}),
    # h_1 + h_1^perp no longer commutes with h_2
    "hcommute": ("apply_h",
                 lambda op: lambda k, n, v: op(k, n, v) + apply_h_perp(1, n, v) if k == 1
                 else op(k, n, v),
                 {"kmax": 4, "max_size": 4}, 72, 36,
                 {"a": 1, "b": 2, "shape": "-",
                  "lhs": "(q^3 + q)·(1,1) + (q^2 + 1)·(2) + q^3·(2,2,1,1) + q^2·(2,2,2)"
                         " + q^2·(3,1,1,1) + (q^3 + q)·(3,3) + q·(4,1,1) + (q^2 + 1)·(4,2)"
                         " + q·(5,1) + 1·(6)",
                  "rhs": "q^3·(2,2,1,1) + q^2·(2,2,2) + q^2·(3,1,1,1) + (q^3 + q)·(3,3)"
                         " + q·(4,1,1) + (q^2 + 1)·(4,2) + q·(5,1) + 1·(6)"}),
}


# Per checker, under its fault at n = 2 and max_size 4: the witness of every
# failure, in report order and grouped by shape, without lhs and rhs
FAULT_WITNESSES = {
    "relations": {
        "-": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
              "rule=u_i u_{i+n} u_i = 0 i=1", "rule=u_i u_j = q^2 u_j u_i i=1 j=0"),
        "1": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
              "rule=u_i u_j = q^2 u_j u_i i=2 j=1"),
        "2": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
              "rule=u_i u_{i+n} u_i = 0 i=1", "rule=u_i u_j = q^2 u_j u_i i=1 j=0"),
        "1,1": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
                "rule=u_i u_{i+n} u_i = 0 i=1", "rule=u_i u_j = q^2 u_j u_i i=2 j=1"),
        "3": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
              "rule=u_i u_j = q^2 u_j u_i i=1 j=0"),
        "2,1": ("rule=u_i u_i = 0 i=1", "rule=u_i u_{i+n} u_i = 0 i=1"),
        "1,1,1": ("rule=u_i u_i = 0 i=1", "rule=u_i u_{i+n} u_i = 0 i=1",
                  "rule=u_i u_j = q^2 u_j u_i i=2 j=1"),
        "4": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
              "rule=u_i u_j = q^2 u_j u_i i=1 j=0"),
        "3,1": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
                "rule=u_i u_{i+n} u_i = 0 i=1"),
        "2,2": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
                "rule=u_i u_{i+n} u_i = 0 i=1", "rule=u_i u_j = q^2 u_j u_i i=2 j=1"),
        "2,1,1": ("rule=u_i u_i = 0 i=1", "rule=u_i u_{i+n} u_i = 0 i=1",
                  "rule=u_i u_j = q^2 u_j u_i i=1 j=0"),
        "1,1,1,1": ("rule=u_{i+n} u_i u_{i+n} = 0 i=-1", "rule=u_i u_i = 0 i=1",
                    "rule=u_i u_{i+n} u_i = 0 i=1", "rule=u_i u_j = q^2 u_j u_i i=2 j=1"),
    },
    "cauchy": {
        "-": ("a=1 b=1", "a=2 b=1", "a=3 b=2", "a=4 b=3"),
        "1": ("a=1 b=1", "a=2 b=1", "a=3 b=2", "a=4 b=3"),
        "2": ("a=1 b=1", "a=1 b=2", "a=2 b=1", "a=2 b=2", "a=3 b=2", "a=3 b=3", "a=4 b=3",
              "a=4 b=4"),
        "1,1": ("a=1 b=1", "a=1 b=2", "a=2 b=1", "a=2 b=2", "a=3 b=2", "a=3 b=3", "a=4 b=3",
                "a=4 b=4"),
        "3": ("a=1 b=1", "a=1 b=2", "a=2 b=1", "a=2 b=2", "a=3 b=2", "a=3 b=3", "a=4 b=3",
              "a=4 b=4"),
        "2,1": ("a=1 b=1", "a=2 b=1", "a=3 b=2", "a=4 b=3"),
        "1,1,1": ("a=1 b=1", "a=1 b=2", "a=2 b=1", "a=2 b=2", "a=3 b=2", "a=3 b=3", "a=4 b=3",
                  "a=4 b=4"),
        "4": ("a=1 b=1", "a=1 b=2", "a=1 b=3", "a=2 b=1", "a=2 b=2", "a=2 b=3", "a=3 b=2",
              "a=3 b=3", "a=3 b=4", "a=4 b=3", "a=4 b=4"),
        "3,1": ("a=1 b=1", "a=1 b=2", "a=1 b=3", "a=2 b=1", "a=2 b=2", "a=2 b=3", "a=3 b=2",
                "a=3 b=3", "a=3 b=4", "a=4 b=3", "a=4 b=4"),
        "2,2": ("a=1 b=1", "a=1 b=2", "a=1 b=3", "a=2 b=1", "a=2 b=2", "a=2 b=3", "a=3 b=2",
                "a=3 b=3", "a=3 b=4", "a=4 b=3", "a=4 b=4"),
        "2,1,1": ("a=1 b=1", "a=1 b=2", "a=2 b=1", "a=2 b=2", "a=3 b=2", "a=3 b=3", "a=4 b=3",
                  "a=4 b=4"),
        "1,1,1,1": ("a=1 b=1", "a=1 b=2", "a=2 b=1", "a=2 b=2", "a=3 b=2", "a=3 b=3",
                    "a=4 b=3", "a=4 b=4"),
    },
    "heisenberg": {
        "-": ("k=-1 l=1", "k=1 l=-1"),
        "1": ("k=-1 l=1", "k=1 l=-1"),
        "2": ("k=-1 l=1", "k=1 l=-1"),
        "1,1": ("k=-1 l=1", "k=1 l=-1"),
        "3": ("k=-1 l=1", "k=1 l=-1"),
        "2,1": ("k=-1 l=1", "k=1 l=-1"),
        "1,1,1": ("k=-1 l=1", "k=1 l=-1"),
        "4": ("k=-1 l=1", "k=1 l=-1"),
        "3,1": ("k=-1 l=1", "k=1 l=-1"),
        "2,2": ("k=-1 l=1", "k=1 l=-1"),
        "2,1,1": ("k=-1 l=1", "k=1 l=-1"),
        "1,1,1,1": ("k=-1 l=1", "k=1 l=-1"),
    },
    "haction": {
        "-": ("rule=closed form i=1 j=1", "rule=closed form i=1 j=2"),
        "2": ("rule=closed form i=1 j=1", "rule=closed form i=1 j=2"),
        "1,1": ("rule=closed form i=1 j=1", "rule=closed form i=1 j=2"),
        "1,1,1": ("rule=closed form i=1 j=1", "rule=closed form i=1 j=2"),
        "3,1": ("rule=closed form i=1 j=1", "rule=closed form i=1 j=2"),
        "2,2": ("rule=closed form i=1 j=1", "rule=closed form i=1 j=2"),
        "1,1,1,1": ("rule=closed form i=1 j=1", "rule=closed form i=1 j=2"),
    },
    "hcommute": {
        "-": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "1": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "2": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "1,1": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "3": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "2,1": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "1,1,1": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "4": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "3,1": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "2,2": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "2,1,1": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
        "1,1,1,1": ("a=1 b=2", "a=1 b=3", "a=1 b=4"),
    },
}


def test_every_checker_has_a_fault():
    assert list(FAULTS) == list(CHECKERS) == list(FAULT_WITNESSES)


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_failing_case_records_its_witness(monkeypatch, name):
    attr, fault, params, cases, count, first = FAULTS[name]
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    rep = run_identity(name, 2, 4)
    assert rep.params == params
    assert (rep.cases, len(rep.failures), rep.ok) == (cases, count, False)
    assert list(rep.failures[0].items()) == list(first.items())
    assert rep.to_json()["failures"][0] == first
    witnesses = [" ".join(f"{key}={value}" for key, value in failure.items()
                          if key not in ("lhs", "rhs")) for failure in rep.failures]
    assert witnesses == [f"{witness} shape={shape}"
                         for shape, group in FAULT_WITNESSES[name].items() for witness in group]


@pytest.mark.parametrize("call", [
    lambda: check_relations(0, 3),
    lambda: check_h_commute(-1, 2, 3),
    lambda: check_cauchy(0, 1, 1, 3),
    lambda: check_heisenberg(0, 1, 3),
    lambda: check_haction(-2, 1, 3),
    lambda: algebra_dimension(0, 1, max_size=2),
])
def test_fewer_than_one_ribbon_cell_is_rejected(call):
    with pytest.raises(ValueError, match="n must be >= 1"):
        call()

def test_individual_checkers_expose_their_parameters():
    assert check_cauchy(2, 2, 2, 3).params == {"amax": 2, "bmax": 2, "max_size": 3}
    assert check_heisenberg(2, 2, 3).params == {"kmax": 2, "max_size": 3}
    assert check_h_commute(2, 3, 3).params == {"kmax": 3, "max_size": 3}
    assert check_haction(2, 1, 3).params == {"jmax": 1, "max_size": 3}


def test_bareiss_rank_on_integer_polynomials():
    one = QPoly.one()
    q = QPoly({1: 1})
    rows = [{0: one, 1: q}, {0: q, 1: q * q}, {1: one}]
    # row 2 = q * row 1 except for the last row, so rank is 2
    assert rank_by_bareiss(rows, 2) == 2
    assert rank_by_bareiss([{}], 2) == 0


POINT = 3


def test_certified_rank_matches_bareiss_on_word_matrices():
    for n, k in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2)):
        for max_size in range(13):
            _, rows, ncols = _word_matrices(n, k, max_size, tuple(range(n)))
            rank, spec, certificate = _certified_rank(rows, ncols, POINT)
            polys = [{c: QPoly.q_power(t) for c, t in row.items()} for row in rows]
            assert rank == rank_by_bareiss(polys, ncols), (n, k, max_size)
            assert certificate == "specialization" and spec == (rank,)


def test_certified_rank_falls_back_to_the_degree_bound():
    # det = 1 - q^2 vanishes only at q = 1 and q = -1
    rows = [{0: 0, 1: 1}, {0: 1, 1: 0}]
    assert _certified_rank(rows, 2, 1) == (2, (1,), "degree-bound")
    assert _certified_rank(rows, 2, POINT) == (2, (2,), "specialization")
    # rank 2 reaches the column count, so one point proves it; read in three
    # columns the same rows are rank deficient and need the exact fallback
    rows = [{0: 0, 1: 1}, {0: 1, 1: 2}, {1: 0}]
    assert _certified_rank(rows, 2, POINT) == (2, (2,), "specialization")
    assert _certified_rank(rows, 3, POINT) == (2, (2,), "degree-bound")
    assert _certified_rank([], 0, POINT) == (0, (0,), "specialization")
    # the first row is q times the second, so no point reaches full rank
    rows = [{0: 1, 1: 2}, {0: 0, 1: 1}]
    assert _certified_rank(rows, 2, POINT) == (1, (1,), "degree-bound")


def test_exact_rank_below_the_modular_rank_is_an_error(monkeypatch):
    rows = [{0: 0, 1: 1}, {0: 1, 1: 0}]
    modular = verify._rank
    monkeypatch.setattr(verify, "_rank", lambda rows, point, modulus=None:
                        modular(rows, point, modulus) if modulus else 0)
    with pytest.raises(RuntimeError, match="below the modular rank 1"):
        _certified_rank(rows, 2, 1)


def test_dimension_ranks_one_modular_point():
    rep = algebra_dimension(1, 3)
    assert rep.rank == 14 and rep.specialization_ranks == (14,)
    assert rep.certificate == "specialization"


def test_dimension_small_ranks():
    rep = algebra_dimension(1, 1)
    assert rep.rank == 2 and rep.stable
    assert all(r == 2 for r in rep.specialization_ranks)
    assert rep.certificate == "specialization"
    rep = algebra_dimension(1, 2)
    assert rep.rank == 5 and rep.stable
    rep2 = algebra_dimension(2, 1)
    assert rep2.rank == 4 and rep2.stable
    js = rep2.to_json()
    assert js["rank"] == 4 and js["residues"] == [0, 1]
    assert js["certificate"] == "specialization"
    assert isinstance(rep2.summary(), str) and "stable" in rep2.summary()


def test_dimension_with_explicit_cutoff():
    rep = algebra_dimension(1, 1, max_size=4)
    assert isinstance(rep, DimensionReport)
    assert rep.rank == 2 and rep.rank_smaller == 2 and rep.stable
    # a cutoff that is still growing reports instability rather than lying
    low = algebra_dimension(1, 2, max_size=4)
    assert low.rank == 5 and low.rank_smaller == 4 and not low.stable
    # the smaller cutoff 0 keeps no partition of odd size: an empty span
    odd = algebra_dimension(2, 1, max_size=2, residues=(1,))
    assert odd.rank == 2 and odd.rank_smaller == 0 and not odd.stable
    with pytest.raises(ValueError, match="max_size must be >= n=2"):
        algebra_dimension(2, 1, max_size=1)


def _stub_ranks(monkeypatch, rank_at):
    """Make each cutoff's word matrices a full-rank identity of rank_at(cutoff) rows."""
    tried = []

    def word_matrices(n, k, max_size, residues):
        tried.append(max_size)
        r = rank_at(max_size)
        return 1, [{c: 0} for c in range(r)], r

    monkeypatch.setattr(verify, "_word_matrices", word_matrices)
    return tried


def test_explicit_cutoff_ranks_one_smaller_cutoff_and_no_cap(monkeypatch):
    tried = _stub_ranks(monkeypatch, lambda size: 3)
    rep = algebra_dimension(1, 1, max_size=45)
    assert tried == [44, 45]
    assert rep.max_size == 45 and rep.stable and (rep.rank, rep.rank_smaller) == (3, 3)


def test_automatic_cutoff_stops_after_three_equal_ranks(monkeypatch):
    # the loop starts at max(n (k + 1), n k^2) = 4; one pair of equal ranks is not enough
    tried = _stub_ranks(monkeypatch, lambda size: {4: 5, 5: 5}.get(size, 6))
    rep = algebra_dimension(1, 2)
    assert tried == [4, 5, 6, 7, 8]
    assert rep.max_size == 8 and rep.stable and rep.rank == 6
    tried = _stub_ranks(monkeypatch, lambda size: 5)
    rep = algebra_dimension(1, 2)
    assert tried == [4, 5, 6]
    assert rep.max_size == 6 and rep.stable and (rep.rank, rep.rank_smaller) == (5, 5)


def test_automatic_cutoff_gives_up_past_forty_n(monkeypatch):
    tried = _stub_ranks(monkeypatch, lambda size: size)
    rep = algebra_dimension(1, 1)
    assert tried == list(range(2, 42))
    assert rep.max_size == 41 and not rep.stable and (rep.rank, rep.rank_smaller) == (41, 40)


@pytest.mark.parametrize("n, k, start", [(1, 7, 49), (2, 7, 98), (3, 10, 300)])
def test_automatic_cutoff_too_late_for_three_ranks_builds_nothing(monkeypatch, n, k, start):
    def word_matrices(*args):
        raise AssertionError("no word matrix may be built")

    monkeypatch.setattr(verify, "_word_matrices", word_matrices)
    with pytest.raises(ValueError, match=f"k={k} start at {start}.*pass --max-size"):
        algebra_dimension(n, k)


def test_automatic_cutoff_at_k_6_still_fits_three_ranks(monkeypatch):
    tried = _stub_ranks(monkeypatch, lambda size: 7)
    rep = algebra_dimension(1, 6)
    assert tried == [36, 37, 38]
    assert rep.stable and rep.max_size == 38


@pytest.mark.parametrize("k", [0, -1])
def test_dimension_needs_a_generator(k):
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        algebra_dimension(1, k)


def test_dimension_residue_filter():
    # keeping only the empty residue class drops the basis but not the rank
    # for n = 1 (there is a single class)
    rep = algebra_dimension(1, 1, residues=(0,))
    assert rep.rank == 2
