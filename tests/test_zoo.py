"""Named families, products, automorphisms, catalog and abelian counting."""

import pytest

from fsg.cayley import CayleyStructure
from fsg.errors import ResourceLimitError, ValidationError
from fsg.perms import conjugacy_classes, closure_order, structure_report
from fsg.zoo import (
    PARTITION_BOUND,
    ActionMap,
    automorphism_group,
    clifford,
    construct_named,
    count_abelian_groups,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    frobenius21,
    holomorph,
    nonabelian_pq_group,
    partition_count,
    power_action,
    quaternion,
    semidirect_product,
    small_group_catalog,
    symmetric,
    trivial_action,
    vierergruppe,
)


def test_family_orders():
    assert cyclic(7).order() == 7
    assert dihedral(4).order() == 8
    assert dihedral(5).order() == 10
    for n in range(2, 6):
        assert dicyclic(n).order() == 4 * n
    for n in range(1, 5):
        assert clifford(n).order() == 2 ** (n + 1)
        assert clifford(n, even_only=True).order() == 2 ** n
    assert vierergruppe().order() == 4
    assert frobenius21().order() == 21 and not frobenius21().is_abelian()
    assert elementary_abelian(2, 3).order() == 8


def test_construct_named_dispatch():
    assert construct_named("dihedral", 4).order() == 8
    assert construct_named("dicyclic", 2).order() == 8
    assert construct_named("clifford", 2).order() == 8
    assert construct_named("quaternion").order() == 8
    assert construct_named("frobenius21").order() == 21
    assert construct_named("elementary_abelian", (3, 2)).order() == 9
    assert construct_named("psl2", 9).order() == 360
    assert construct_named("pgl2", 4).order() == 60
    assert construct_named("s", 4).order() == 24
    assert construct_named("qn", 3).order() == 12
    with pytest.raises(ValidationError, match="prime power"):
        construct_named("psl2", 6)
    with pytest.raises(ValidationError):
        construct_named("monster")
    with pytest.raises(ValidationError, match="n = 3"):
        construct_named("dihedral", 2)
    with pytest.raises(ValidationError):
        construct_named("dicyclic", 1)


def test_dihedral_class_partitions():
    d4 = conjugacy_classes(dihedral(4))
    assert sorted(d4.class_sizes) == [1, 1, 2, 2, 2]
    assert d4.center_size == 2
    d5 = conjugacy_classes(dihedral(5))
    assert d5.class_sizes == (1, 5, 2, 2)


def test_dicyclic2_is_quaternion():
    Q = dicyclic(2)
    data = conjugacy_classes(Q)
    assert data.class_sizes == (1, 1, 2, 2, 2)
    assert data.class_rep_orders == (1, 2, 4, 4, 4)


def test_clifford2_matches_quaternion_invariants():
    g = clifford(2)
    data = conjugacy_classes(g)
    assert data.class_sizes == (1, 1, 2, 2, 2)
    assert data.class_rep_orders == (1, 2, 4, 4, 4)


def test_semidirect_products():
    A, B = cyclic(3), cyclic(2)
    s3 = semidirect_product(A, B, power_action(A, B, -1))
    assert s3.order() == 6 and not s3.is_abelian()

    A, B = cyclic(7), cyclic(3)
    g21 = semidirect_product(A, B, power_action(A, B, 2))
    assert g21.order() == 21 and not g21.is_abelian()
    # same invariants as the coded frobenius21 realization
    assert conjugacy_classes(g21).class_sizes == \
        conjugacy_classes(frobenius21()).class_sizes

    d = direct_product(cyclic(4), cyclic(5))
    assert d.order() == 20 and d.is_abelian()


def test_semidirect_rejects_non_automorphism():
    A, B = cyclic(4), cyclic(2)
    # transposing two non-inverse elements is no automorphism
    bad = list(range(4))
    bad[1], bad[2] = bad[2], bad[1]
    with pytest.raises(ValidationError, match="automorphism"):
        ActionMap(A, B, (tuple(bad),))


def test_inversion_action_requires_abelian_target_for_consistency():
    A, B = symmetric(3), cyclic(2)
    with pytest.raises(ValidationError):
        power_action(A, B, -1)  # x -> x^-1 is not a morphism of S3


def test_power_action_matches_the_table_walk():
    B = cyclic(2)
    for n in range(3, 13):
        A = cyclic(n)
        cs = CayleyStructure(A)
        inverse = tuple(row.index(cs.identity_index) for row in cs.table)
        assert power_action(A, B, -1).assignment == (inverse,)
        for k in (0, n, n + 1, 2 * n + 3):
            walk = [cs.identity_index] * n         # x -> x^k, one step per power
            for _ in range(k):
                walk = [cs.table[w][i] for i, w in enumerate(walk)]
            if sorted(walk) == list(range(n)):
                assert power_action(A, B, k).assignment == (tuple(walk),)
            else:
                with pytest.raises(ValidationError, match="bijection"):
                    power_action(A, B, k)


def test_automorphism_groups():
    _, a, i, o = automorphism_group(vierergruppe())
    assert (a, i, o) == (6, 1, 6)
    _, a, _, _ = automorphism_group(cyclic(7))
    assert a == 6
    _, a, _, _ = automorphism_group(cyclic(2))
    assert a == 1
    _, a, i, o = automorphism_group(quaternion())
    assert (a, i, o) == (24, 4, 6)
    _, a, i, o = automorphism_group(dihedral(4))
    assert (a, i, o) == (8, 4, 2)
    _, a, _, _ = automorphism_group(elementary_abelian(2, 3))
    assert a == 168  # |GL_3(2)|


def test_holomorphs():
    hv = holomorph(vierergruppe())
    assert hv.order() == 24
    assert sorted(conjugacy_classes(hv).class_sizes) == \
        sorted(conjugacy_classes(symmetric(4)).class_sizes)
    assert holomorph(cyclic(5)).order() == 20
    h3 = holomorph(cyclic(3))
    assert h3.order() == 6 and not h3.is_abelian()
    with pytest.raises(ValidationError):
        holomorph(symmetric(3))


def test_nonabelian_pq():
    g = nonabelian_pq_group(3, 7)
    assert g.order() == 21 and not g.is_abelian()
    with pytest.raises(ValidationError, match="does not divide"):
        nonabelian_pq_group(3, 5)  # 15 = 3*5 has only the cyclic group


def test_partition_counts():
    known = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30,
             10: 42, 11: 56, 12: 77, 13: 101, 15: 176}
    for n, v in known.items():
        assert partition_count(n) == v

    # independent dynamic-programming oracle for small n
    def brute(n):
        ways = [1] + [0] * n
        for part in range(1, n + 1):
            for total in range(part, n + 1):
                ways[total] += ways[total - part]
        return ways[n]

    for n in range(1, 21):
        assert partition_count(n) == brute(n)
    assert partition_count(14) == brute(14) == 135
    with pytest.raises(ResourceLimitError, match="fixed bound"):
        partition_count(PARTITION_BOUND + 1)


def test_count_abelian_groups():
    assert count_abelian_groups(8) == 3
    assert count_abelian_groups(720) == 10
    assert count_abelian_groups(1024) == 42
    assert count_abelian_groups(12) == 2
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import partition
    for n in range(1, 201):
        expected = 1
        for e in sympy.factorint(n).values():
            expected *= partition(e)
        assert count_abelian_groups(n) == expected


def test_structure_of_s4_as_holomorph():
    hv = holomorph(vierergruppe())
    assert structure_report(hv) == (1, 12, 2, False)


def test_catalog():
    entries = small_group_catalog()
    assert len(entries) == 28
    assert sum(1 for e in entries if e.is_abelian) == 20
    assert sum(1 for e in entries if not e.is_abelian) == 8
    orders = {}
    for e in entries:
        orders.setdefault(e.order, []).append(e.name)
    assert len(orders[12]) == 5 and sorted(
        n for n in orders[12] if n not in ("Z12", "Z2xZ6")) == ["A4", "D6", "Q3"]
    assert orders[15] == ["Z15"]
    for p in (2, 3, 5, 7, 11, 13):
        assert orders[p] == [f"Z{p}"]
    for e in entries:
        assert sum(e.class_sizes) == e.order
        assert sum(d * d for d in e.irrep_degrees) == e.order
        assert len(e.irrep_degrees) == len(e.class_sizes)
        if e.is_abelian:
            assert set(e.irrep_degrees) == {1}


def test_catalog_quoted_source_partitions():
    by_name = {e.name: e for e in small_group_catalog()}
    # D4: 8 = 1 + 1 + 2 + 2 + 2 with the order-4 class of size 2
    d4 = by_name["D4"]
    assert sorted(d4.class_sizes) == [1, 1, 2, 2, 2]
    assert sorted(zip(d4.class_rep_orders, d4.class_sizes)) == \
        [(1, 1), (2, 1), (2, 2), (2, 2), (4, 2)]
    # Q: same sizes but three order-4 classes
    q = by_name["Q"]
    assert sorted(zip(q.class_rep_orders, q.class_sizes)) == \
        [(1, 1), (2, 1), (4, 2), (4, 2), (4, 2)]
    # D7: 14 = 1 + 7 + 2 + 2 + 2 and 14 = 2*1^2 + 3*2^2
    d7 = by_name["D7"]
    assert sorted(d7.class_sizes) == [1, 2, 2, 2, 7]
    assert tuple(sorted(d7.irrep_degrees)) == (1, 1, 2, 2, 2)
    # Z10 element orders: 1, 2, four 5s, four 10s
    z10 = by_name["Z10"]
    assert sorted(z10.class_rep_orders) == [1, 2, 5, 5, 5, 5, 10, 10, 10, 10]


def test_catalog_aut_orders_match_closed_forms():
    by_name = {e.name: e for e in small_group_catalog()}
    # phi(n) for cyclic groups
    assert by_name["Z8"].aut_order == 4
    assert by_name["Z9"].aut_order == 6
    assert by_name["Z15"].aut_order == 8
    # GL_m(p) orders for elementary abelian
    assert by_name["Z2^3"].aut_order == 168
    assert by_name["Z3^2"].aut_order == 48
    # dihedral: n * phi(n)
    assert by_name["D5"].aut_order == 20
    assert by_name["D7"].aut_order == 42


def test_group_order_vs_closure_for_zoo():
    for G in [dihedral(6), dicyclic(4), clifford(3), frobenius21(),
              elementary_abelian(3, 2)]:
        assert G.order() == closure_order(G.degree, G.generators)
