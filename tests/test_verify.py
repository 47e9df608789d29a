import pytest

from ribbonops import verify
from ribbonops.operators import apply_h_perp
from ribbonops.partitions import partitions_up_to
from ribbonops.qpoly import QPoly
from ribbonops.verify import (
    CHECKERS,
    DimensionReport,
    VerificationReport,
    _certified_rank,
    _word_matrices,
    _word_rows,
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


def test_every_checker_has_a_fault():
    assert list(FAULTS) == list(CHECKERS)


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_failing_case_records_its_witness(monkeypatch, name):
    attr, fault, params, cases, count, first = FAULTS[name]
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    rep = run_identity(name, 2, 4)
    assert rep.params == params
    assert (rep.cases, len(rep.failures), rep.ok) == (cases, count, False)
    assert list(rep.failures[0].items()) == list(first.items())
    assert rep.to_json()["failures"][0] == first


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
            _, mats = _word_matrices(n, k, max_size, tuple(range(n)))
            rows, ncols = _word_rows(mats)
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


@pytest.mark.parametrize("k", [0, -1])
def test_dimension_needs_a_generator(k):
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        algebra_dimension(1, k)


def test_dimension_residue_filter():
    # keeping only the empty residue class drops the basis but not the rank
    # for n = 1 (there is a single class)
    rep = algebra_dimension(1, 1, residues=(0,))
    assert rep.rank == 2
