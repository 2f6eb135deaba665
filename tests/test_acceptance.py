"""Acceptance suite: each headline criterion as a test, one pass/fail line
printed per criterion (run with -s to see them live)."""

import pytest

from fsg import verify
from fsg.verify import ACCEPTANCE, acceptance_checks


@pytest.fixture(scope="module")
def results():
    out = {r["name"]: r for r in acceptance_checks()}
    for r in out.values():
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['name']} ({r['seconds']:.2f}s) {r['detail']}")
    return out


@pytest.mark.parametrize("name", [name for name, _ in ACCEPTANCE])
def test_acceptance_criterion(results, name):
    r = results[name]
    assert r["passed"], f"{name}: {r['detail']}"


TIME_BUDGETS = {
    "order-formula table (168 ... 6065280 ... 12096)": 1.0,
    "simple-group census to 10000": 5.0,
    "mathieu chain |M24|, |M23|, |M22|, 5-transitivity": 10.0,
    "golay weights and Steiner S(5,8,24)": 30.0,
    "leech kissing number 196560 = theta q^2": 5.0,
    "moonshine j, j^(1/3) and dimension identities": 1.0,
    "small-group catalog below order 16": 5.0,
    "S3/S4 character tables, exact orthogonality": 2.0,
    "order 20160: Alt_8 vs PSL_3(4) separated": 60.0,
    "field axioms through q = 256": 8.0,
}


@pytest.mark.parametrize("name", sorted(TIME_BUDGETS))
def test_acceptance_runtime_budget(results, name):
    assert results[name]["seconds"] < TIME_BUDGETS[name], \
        f"{name} took {results[name]['seconds']:.2f}s"


def test_total_runtime_under_three_minutes(results):
    total = sum(r["seconds"] for r in results.values())
    print(f"acceptance suite total: {total:.1f}s")
    assert total < 180


# What verify-all reports on a correct tree, seconds aside: every check's
# name, its passed flag and its detail string, in suite order.
PINNED = [
    ("order-formula table (168 ... 6065280 ... 12096)", True, "11 orders exact"),
    ("simple-group census to 10000", True,
     "16 nonabelian entries, 20 with abelian primes, M11 at 7920 flagged sporadic"),
    ("mathieu chain |M24|, |M23|, |M22|, 5-transitivity", True,
     "|M24|=244823040, |M23|=10200960, |M22|=443520, transitivity (5, False)"),
    ("golay weights and Steiner S(5,8,24)", True,
     "weights [(0, 1), (8, 759), (12, 2576), (16, 759), (24, 1)], Steiner exact"),
    ("leech kissing number 196560 = theta q^2", True,
     "shapes {'four_four': 1104, 'two_octad': 97152, 'three_ones': 98304}, "
     "total 196560 = theta q^2 coefficient"),
    ("moonshine j, j^(1/3) and dimension identities", True,
     "j and j^(1/3) coefficients exact, 6 identities pass"),
    ("monster order constants", True, "8 constant checks"),
    ("small-group catalog below order 16", True,
     "28 entries (20 abelian + 8 nonabelian), quoted partitions verified"),
    ("S3/S4 character tables, exact orthogonality", True,
     "S3 and S4 tables match entry-for-entry; orthogonality exact"),
    ("order 20160: Alt_8 vs PSL_3(4) separated", True,
     "orders agree at 20160; Alt_8 has 2688 order-15 elements, PSL_3(4) has none"),
    ("group property suite (Lagrange/Cauchy/center/simplicity)", True,
     "Lagrange/Cauchy/center/simplicity/oracle checks over 26 groups"),
    ("field axioms through q = 256", True,
     "axioms and frobenius morphism exhaustive over pairs for all 70 fields q <= 256"),
    ("quaternion/octonion exact identities", True,
     "associativity/alternativity and norm composition exact"),
    ("zoo order laws and pq compatibility", True,
     "holomorph/product order laws, pq compatibility over pq < 200"),
]


def test_reports_are_pinned(results):
    assert [(name, r["passed"], r["detail"]) for name, r in results.items()] == PINNED


def broken_gf9(monkeypatch, op, pairs):
    """Hand verify a make_field whose GF(9) answers op one element off at
    each pair of element codes in pairs."""
    make_field = verify.make_field

    def make(p, f=1):
        F = make_field(p, f)
        if F.q == 9:
            right, els = getattr(F, op), list(F.elements())

            def wrong(a, b):
                c = right(a, b)
                return els[(c.code + 1) % 9] if (a.code, b.code) in pairs else c
            object.__setattr__(F, op, wrong)        # FieldSpec is frozen
        return F
    monkeypatch.setattr(verify, "make_field", make)


# Codes 3 and 6 are the constants 1 and 2, both fixed by Frobenius.
@pytest.mark.parametrize("op, pairs, law", [
    ("add", {(3, 6)}, "commutativity fails"),
    ("mul", {(3, 6)}, "commutativity fails"),
    ("add", {(3, 6), (6, 3)}, "frobenius is not a field morphism"),
])
def test_field_check_names_the_broken_law_and_pair(monkeypatch, op, pairs, law):
    broken_gf9(monkeypatch, op, pairs)
    assert verify._check_one_field(9) == f"q=9: {law} at 1, 2"
