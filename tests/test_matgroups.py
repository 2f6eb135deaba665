"""Order formulas, projective actions, census, identifications."""

import hashlib
import re
import time
from collections import Counter
from itertools import product
from math import factorial, log10

import pytest

from fsg import matgroups
from fsg.errors import InternalDefectError, ResourceLimitError, ValidationError
from fsg.fields import make_field, prime_power
from fsg.matgroups import (
    CENSUS_FAMILIES,
    FAMILY_TAGS,
    FamilyOrderQuery,
    KNOWN_ISOMORPHISMS,
    ORDER_DIGIT_BOUND,
    _degree,
    _exact_sqrt,
    _resolve,
    census_table,
    order_formula,
    projective_action,
    simple_census,
)
from fsg.perms import (
    conjugacy_classes,
    is_simple,
    transitivity_degree,
)
from fsg.sporadic import sporadic_table


def O(family, q, n=0):
    return order_formula(FamilyOrderQuery(family, q, n)).order


def test_gl_sl_psl_orders():
    assert O("GL", 2, 2) == 6
    assert O("GL", 2, 3) == (2 ** 3 - 1) * (2 ** 3 - 2) * (2 ** 3 - 4) == 168
    assert O("GL", 2, 4) == 20160
    assert O("PSL", 4, 3) == 20160
    assert O("GL", 3, 4) == 24261120
    assert O("SL", 3, 4) == 12130560
    assert O("PSL", 3, 4) == 6065280
    assert O("SL", 3, 3) == 5616
    assert O("PSL", 9, 2) == 360
    assert O("SL", 8, 2) == O("PSL", 8, 2) == 504
    assert O("PSL", 11, 2) == 660
    assert O("PSL", 5, 2) == 60
    assert O("PSL", 7, 2) == 168


def test_pgl_order_and_divisibility():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        pgl = O("GL", q, 2) // (q - 1)
        assert pgl == (q + 1) * q * (q - 1)
        assert pgl % 6 == 0
        if q % 2 == 1:
            assert pgl % 24 == 0


def test_exceptional_and_twisted_orders():
    assert O("G2", 2) == 12096
    assert O("2B2", 8) == 29120
    assert O("3D4", 2) == 211341312
    assert O("2G2", 27) == 10073444472
    assert O("PSU", 9, 3) == 6048      # unitary over the square field 9
    # against the published orders of the smallest members
    assert O("G2", 3) == 4245696
    assert O("G2", 4) == 251596800
    assert O("F4", 2) == 3311126603366400
    assert O("E6", 2) == 214841575522005575270400
    assert O("E7", 2) == 7997476042075799759100487262680802918400
    assert O("E8", 2) == int(
        "3378047531436348062613881906140855950799916922424676515761609599"
        "09068800000")
    assert O("2E6", 2) == 76532479683774853939200
    assert O("2F4", 2) == 35942400     # twice the order of its derived group
    assert O("2B2", 32) == 32537600
    assert O("PSp", 4, 2) == 979200
    assert O("POmega_odd", 3, 3) == 4585351680
    assert O("2Dn", 2, 4) == 197406720
    assert O("PSU", 9, 4) == 3265920


def test_symplectic_and_orthogonal():
    assert O("PSp", 3, 2) == 25920
    assert O("PSU", 4, 4) == 25920     # the cross-family coincidence
    # odd orthogonal at l=1 coincides with PSL_2
    assert O("POmega_odd", 5, 1) == O("PSL", 5, 2)
    assert O("POmega_odd", 7, 1) == O("PSL", 7, 2)


def test_symplectic_orders_divide_by_gcd_2():
    assert O("PSp", 3, 3) == O("POmega_odd", 3, 3) == 4585351680
    assert O("PSp", 5, 1) == O("PSL", 5, 2) == 60
    assert O("PSp", 2, 3) == 1451520
    for n in (3, 4):
        for q in (3, 5, 7, 9, 11):
            assert O("PSp", q, n) == O("POmega_odd", q, n)


def test_orthogonal_characteristic_2():
    assert O("POmega_even_plus", 2, 4) == 174182400
    assert O("POmega_even_minus", 2, 4) == O("2Dn", 2, 4) == 197406720
    with pytest.raises(ValidationError, match="PSp"):
        FamilyOrderQuery("POmega_odd", 2, 3)


def test_dimension_count_identities():
    for n in range(1, 12):
        assert n * n - n * (n + 1) // 2 == n * (n - 1) // 2
        assert n * n - n * (n - 1) // 2 == n * (n + 1) // 2


def test_order_digit_bound():
    # |PSL_2(2^k)| = 2^k (4^k - 1) has 4300 digits at k = 4761, 4301 at 4762
    assert len(str(O("PSL", 2 ** 4761, 2))) == ORDER_DIGIT_BOUND
    with pytest.raises(ResourceLimitError, match="fixed bound of 4300"):
        O("PSL", 2 ** 4762, 2)
    # the degree test refuses only where base^degree is past the bound,
    # and each order lies well within the 10 digits it allows for
    for fam in FAMILY_TAGS:
        for n in range(1, 9):
            for q in (2, 3, 4, 8, 9, 25, 27, 32, 49, 121, 128, 2187):
                try:
                    r = order_formula(FamilyOrderQuery(fam, q, n))
                except ValidationError:
                    continue
                f, m = _resolve(fam, n)
                base = _exact_sqrt(q) if f == "PSU" else q
                assert abs(log10(r.order) - _degree(f, m) * log10(base)) < 2


RANKED_TAGS = ("GL", "SL", "PSL", "PSp", "POmega_odd", "POmega_even_plus",
               "POmega_even_minus", "PSU", "2An", "2Dn")


def test_every_rank_is_refused_in_bounded_time():
    # N alone passes the bound, so no factor list of length ~n is made
    start = time.perf_counter()
    for fam in RANKED_TAGS:
        q = 4 if fam in ("PSU", "2An") else 3
        for n in (10 ** 9, 10 ** 18):
            with pytest.raises(ResourceLimitError, match="fixed bound of 4300"):
                order_formula(FamilyOrderQuery(fam, q, n))
    assert time.perf_counter() - start < 0.5


def test_field_constraints():
    with pytest.raises(ValidationError):
        FamilyOrderQuery("2G2", 9)     # even power of 3
    with pytest.raises(ValidationError):
        FamilyOrderQuery("2B2", 4)
    with pytest.raises(ValidationError):
        FamilyOrderQuery("2F4", 16)
    with pytest.raises(ValidationError):
        FamilyOrderQuery("PSU", 3, 3)  # 3 is not a square
    with pytest.raises(ValidationError):
        FamilyOrderQuery("PSL", 6, 2)  # 6 is not a prime power
    with pytest.raises(ValidationError):
        FamilyOrderQuery("POmega_odd", 4, 3)  # characteristic 2 unsupported


def test_non_simple_exceptions_flagged():
    assert order_formula(FamilyOrderQuery("PSL", 2, 2)).exceptions
    assert order_formula(FamilyOrderQuery("PSL", 3, 2)).exceptions
    assert order_formula(FamilyOrderQuery("PSp", 2, 2)).exceptions
    # Omega_3(q) = PSL_2(q) shares PSp_1's row, and its note
    assert order_formula(FamilyOrderQuery("POmega_odd", 3, 1)).exceptions == (
        "POmega_3(3) = PSL_2(3) is not simple",)
    assert not order_formula(FamilyOrderQuery("POmega_odd", 5, 1)).exceptions
    assert order_formula(FamilyOrderQuery("G2", 2)).exceptions
    assert order_formula(FamilyOrderQuery("PSU", 4, 2)).exceptions
    assert not order_formula(FamilyOrderQuery("PSL", 5, 2)).exceptions


def test_projective_actions():
    g = projective_action("PSL", 2, make_field(5))
    assert g.order() == 60 and g.degree == 6 and is_simple(g)

    g = projective_action("PGL", 2, make_field(3, 2))
    assert g.order() == 720 and g.degree == 10
    assert transitivity_degree(g) == (3, True)

    g = projective_action("PSL", 2, make_field(2))
    assert g.order() == 6
    assert conjugacy_classes(g).class_sizes == (1, 3, 2)

    g = projective_action("PSL", 3, make_field(2, 2))
    assert g.order() == 20160 and g.degree == 21

    g = projective_action("PSL", 2, make_field(2, 3))
    assert g.order() == 504 and is_simple(g)


def test_projective_action_certifies_its_generators(monkeypatch):
    # with g = 1 the transvections only reach SL_2(2) inside SL_2(4); the
    # order certificate must refuse, not return a smaller group
    monkeypatch.setattr(matgroups, "multiplicative_generator", lambda spec: spec.one())
    with pytest.raises(InternalDefectError, match="generated order 6, expected 60"):
        projective_action("PSL", 2, make_field(2, 2))


# sha256 of repr([g.images for g in G.generators]), first 16 hex digits,
# recorded from the construction that permuted the points transvection by
# transvection, before point_action took its place
GENERATOR_DIGESTS = {
    ("PSL", 2, 2): "3327de8a5af0dec6",
    ("PGL", 2, 2): "3327de8a5af0dec6",
    ("PSL", 2, 3): "bdc9d2f66a2a4998",
    ("PGL", 2, 3): "cf099cbc0930a495",
    ("PSL", 2, 4): "ec8702a88d115a80",
    ("PGL", 2, 4): "9de2fb5271c343f0",
    ("PSL", 2, 5): "c0db20a9b49ef144",
    ("PGL", 2, 5): "50aaffcd5d696e3f",
    ("PSL", 2, 7): "b54d7e554e07cd76",
    ("PGL", 2, 7): "c9b54e8a223a1076",
    ("PSL", 2, 8): "0ffd0c9100afe027",
    ("PGL", 2, 8): "ece830d6946d5692",
    ("PSL", 2, 9): "733f488e2ac3bbb2",
    ("PGL", 2, 9): "bca352cd2b6f126f",
    ("PSL", 2, 16): "b635b257faab8efa",
    ("PGL", 2, 16): "2686e1e59d32316c",
    ("PSL", 2, 25): "2c90049ef47dc499",
    ("PGL", 2, 25): "6871fbb540613503",
    ("PSL", 2, 27): "f70de74c1fab9a0a",
    ("PGL", 2, 27): "1f63c76683584aa9",
    ("PSL", 2, 49): "bd64abd38587d49e",
    ("PGL", 2, 49): "ddde0e8e838ff0b2",
    ("PSL", 3, 2): "3eb233d4f7c7ca25",
    ("PGL", 3, 2): "3eb233d4f7c7ca25",
    ("PSL", 3, 3): "cfe2a7e535fec149",
    ("PGL", 3, 3): "0ecc547eb81c1947",
    ("PSL", 3, 4): "986274f741e7cd18",
    ("PGL", 3, 4): "53f30e62f84a6ba4",
    ("PSL", 3, 5): "f19befd397f888f2",
    ("PGL", 3, 5): "89c2cb8c6cda3292",
}


@pytest.mark.parametrize("variant, n, q", list(GENERATOR_DIGESTS))
def test_projective_generators_are_pinned(variant, n, q):
    G = projective_action(variant, n, make_field(*prime_power(q)))
    images = repr([g.images for g in G.generators]).encode()
    assert hashlib.sha256(images).hexdigest()[:16] == GENERATOR_DIGESTS[variant, n, q]


def test_point_action_of_a_transvection():
    # x_01(2) = [[1, 2], [0, 1]] on PG(1, 5), against v -> (v_0 + 2 v_1, v_1)
    # scaled by plain mod-5 arithmetic
    K = make_field(5).codes
    points = matgroups.projective_points(make_field(5), 2)
    [perm] = matgroups.point_action(K, [[[1, 2], [0, 1]]], points)
    for v, image in zip(points, perm.images):
        w = ((v[0] + 2 * v[1]) % 5, v[1])
        lead = next(c for c in w if c)
        assert points[image] == tuple(c * pow(lead, -1, 5) % 5 for c in w)


@pytest.mark.parametrize("wrong", [lambda pts: pts[:-1], lambda pts: pts + pts[:1]],
                         ids=["point missing", "point repeated"])
def test_a_wrong_point_list_is_an_internal_defect(monkeypatch, wrong):
    # the point count is not compared with (q^n - 1)/(q - 1): a wrong list
    # fails in point_action as an internal defect, never as bad input
    points = matgroups.projective_points
    monkeypatch.setattr(matgroups, "projective_points",
                        lambda spec, n: wrong(points(spec, n)))
    with pytest.raises(InternalDefectError, match="do not permute the points"):
        projective_action("PSL", 2, make_field(5))


def test_projective_point_count():
    # the points' coordinates come from elements(), which builds an extension
    # field's tables, so the point action's products are lookups
    for n, p, f in ((2, 7, 1), (3, 3, 1), (2, 3, 2), (2, 2, 4)):
        F = make_field(p, f)
        g = projective_action("PSL", n, F)
        assert g.degree == (F.q ** n - 1) // (F.q - 1)
        assert F._els is not None
        assert (getattr(F.codes, "tables", None) is not None) == (f > 1)


def test_projective_bound():
    with pytest.raises(ResourceLimitError):
        projective_action("PSL", 3, make_field(89))


def test_census_10000():
    entries = simple_census(10000)
    orders = [e.order for e in entries]
    assert orders == [60, 168, 360, 504, 660, 1092, 2448, 2520, 3420, 4080,
                      5616, 6048, 6072, 7800, 7920, 9828]
    assert len(entries) == 16
    by_order = {e.order: e for e in entries}
    assert by_order[60].names == ("Alt_5", "PSL_2(4)", "PSL_2(5)")
    assert by_order[7920].is_sporadic
    assert by_order[9828].names == ("PSL_2(27)",)
    # every nonabelian simple order has >= 3 distinct primes, one of them 2
    from fsg.zoo import factorize
    for e in entries:
        fac = factorize(e.order)
        assert len(fac) >= 3 and 2 in fac


def test_census_small_bounds():
    assert [e.order for e in simple_census(100)] == [60]
    assert [e.order for e in simple_census(1000)] == [60, 168, 360, 504, 660]
    table = census_table(10000)
    assert len(table) == 20
    assert [e.order for e in table[:5]] == [2, 3, 5, 7, 60]


@pytest.mark.parametrize("bound, orders", [(-1, []), (0, []), (1, []), (2, [2]),
                                           (5, [2, 3, 5]), (60, [2, 3, 5, 7, 60])])
def test_census_table_keeps_the_primes_within_the_bound(bound, orders):
    assert [e.order for e in census_table(bound)] == orders


def test_census_20160_split():
    entries = simple_census(25000)
    at = [e for e in entries if e.order == 20160]
    assert len(at) == 2  # Alt_8 = PSL_4(2), and PSL_3(4), not isomorphic
    names = sorted(e.names for e in at)
    assert names == [("Alt_8", "PSL_4(2)"), ("PSL_3(4)",)]


def label_order(label):
    """The order of a census label, read back through order_formula."""
    if m := re.fullmatch(r"Alt_(\d+)", label):
        return factorial(int(m[1])) // 2
    if m := re.fullmatch(r"(PSL|PSp|PSU)_(\d+)\((\d+)\)", label):
        return O(m[1], int(m[3]), int(m[2]))
    if m := re.fullmatch(r"POmega_(\d+)\((\d+)\)", label):
        return O("POmega_odd", int(m[2]), int(m[1]) // 2)
    if m := re.fullmatch(r"POmega([+-])_(\d+)\((\d+)\)", label):
        family = "POmega_even_plus" if m[1] == "+" else "POmega_even_minus"
        return O(family, int(m[3]), int(m[2]) // 2)
    m = re.fullmatch(r"(\w+)\((\d+)\)", label)
    return O(m[1], int(m[2]))


def test_census_to_ten_million():
    start = time.perf_counter()
    entries = simple_census(10 ** 7)
    assert time.perf_counter() - start < 1.0     # about 3 ms measured
    assert len(entries) == 97
    sporadic = {e.symbol: e.order for e in sporadic_table()}
    for e in entries:
        for label in e.names:
            want = sporadic[label] if e.is_sporadic else label_order(label)
            assert want == e.order, label
    # the only equal orders of non-isomorphic simple groups below 10^7
    # (Artin 1955; Kimmerle, Lyons, Sandling and Teague 1990)
    shared = [o for o, k in Counter(e.order for e in entries).items() if k > 1]
    assert shared == [20160]
    # PSL_2(q) is not monotone across q = 256, 257 (odd q halve the order)
    names = {label for e in entries for label in e.names}
    assert {"PSL_2(257)", "PSL_2(271)"} <= names


def test_census_matches_exhaustive_scan():
    """Every family member with q < 1000, no early stop, against the census
    at each bound where the answer changes.  Orders below 10^7 need
    q < 1000: the smallest member over GF(q) has order about q^3 / 2."""
    members = {}
    qs = [q for q in range(2, 1000) if prime_power(q)]
    for family, first_rank, label in CENSUS_FAMILIES:
        for n in range(first_rank, 9) if first_rank else (0,):
            for q in qs:
                try:
                    r = order_formula(FamilyOrderQuery(family, q, n))
                except ValidationError:
                    continue
                if r.order <= 10 ** 7 and not r.exceptions:
                    name = label.format(n=n, q=q, odd=2 * n + 1, even=2 * n)
                    members[name] = r.order
    bounds = sorted({o for o in members.values()} | {o - 1 for o in members.values()})
    for bound in bounds:
        got = {(name, e.order) for e in simple_census(bound) if not e.is_sporadic
               for name in e.names if not name.startswith("Alt_")}
        assert got == {(name, o) for name, o in members.items() if o <= bound}, bound
    # |PSU_3(8)| = 5515776 < |PSU_3(7)| = 5663616: a bound between them
    assert ("PSU_3(64)", 5515776) in {
        (name, e.order) for e in simple_census(5600000) for name in e.names}


def test_known_isomorphism_table_is_consistent():
    for iso in KNOWN_ISOMORPHISMS:
        assert len(iso) >= 2


def _det2(m, p):
    (a, b), (c, d) = m
    return (a * d - b * c) % p


def _mul2(x, y, p):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) % p
                       for j in range(2)) for i in range(2))


def _invertible_2x2(p):
    """Every member of GL_2(p) as a pair of integer rows mod p."""
    grids = (((a, b), (c, d)) for a, b, c, d in product(range(p), repeat=4))
    return [m for m in grids if _det2(m, p)]


def test_matrix_determinants():
    assert _det2(((1, 2), (0, 1)), 3) == 1
    assert _det2(((1, 2), (2, 1)), 3) == 0  # det = 1 - 4 = -3 = 0 mod 3
    # invertible count matches |GL_2(3)| = 48
    assert len(_invertible_2x2(3)) == O("GL", 3, 2) == 48


def test_symplectic_2x2_matrices_are_unimodular():
    # a 2x2 matrix preserving the standard alternating form has det 1,
    # i.e. Sp sits inside SL already in the first rank
    for p in (3, 5):
        j = ((0, 1), (p - 1, 0))
        sp_members = [m for m in _invertible_2x2(p)
                      if _mul2(_mul2(tuple(zip(*m)), j, p), m, p) == j]
        assert len(sp_members) == O("SL", p, 2)
        assert all(_det2(m, p) == 1 for m in sp_members)


def test_twisted_tags_match_untwisted_families():
    # the two Aut-twisted biparametric families coincide with the unitary
    # and minus-type orthogonal ones
    assert O("2An", 9, 2) == O("PSU", 9, 3)
    assert O("2An", 4, 3) == O("PSU", 4, 4)
    assert O("2Dn", 3, 4) == O("POmega_even_minus", 3, 4)
    assert O("2Dn", 5, 4) == O("POmega_even_minus", 5, 4)
