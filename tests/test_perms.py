"""Permutation-group engine: chain order vs closure oracle, classes,
structure queries, transitivity."""

import pytest

from fsg.errors import DomainMismatchError, ValidationError
from fsg.perms import (
    ClassData,
    PermGroup,
    Permutation,
    closure_order,
    conjugacy_classes,
    element_order_histogram,
    group_from_generators,
    is_simple,
    normal_closure,
    structure_report,
    transitivity_degree,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def sym(n):
    return group_from_generators(n, [cyc(n, (0, 1)), cyc(n, tuple(range(n)))])


def alt(n):
    if n % 2:
        return group_from_generators(n, [cyc(n, (0, 1, 2)), cyc(n, tuple(range(n)))])
    return group_from_generators(n, [cyc(n, (0, 1, 2)), cyc(n, tuple(range(1, n)))])


def test_permutation_validation():
    with pytest.raises(ValidationError, match="repeats"):
        Permutation([0, 0, 1])
    p = cyc(4, (0, 1, 2))
    assert p.order() == 3
    assert (p * p * p).is_identity()
    assert p.inverse()(1) == 0
    assert p.cycle_string() == "(0 1 2)"


def test_parse_cycles_and_images():
    p = Permutation.parse("(0 1 2)(3 4)")
    assert p.images == (1, 2, 0, 4, 3)
    q = Permutation.parse("[1, 0, 2]")
    assert q.images == (1, 0, 2)


@pytest.mark.parametrize("text", ["(0 1", "(0 x)", "[1, x]", "(0 -1)", "(0 1))"])
def test_parse_refuses_malformed_notation(text):
    with pytest.raises(ValidationError, match="cannot parse"):
        Permutation.parse(text)


def test_symmetric_group_orders():
    for n in range(2, 7):
        G = sym(n)
        expected = 1
        for k in range(2, n + 1):
            expected *= k
        assert G.order() == expected


def test_gens_pass_membership_and_identity():
    G = sym(4)
    for g in G.generators:
        assert g in G
    assert Permutation.identity(4) in G
    assert cyc(4, (0, 1)) not in alt(4)
    assert cyc(6, (0, 1, 2), (3, 4, 5)) in alt(6)
    with pytest.raises(DomainMismatchError):
        Permutation.identity(5) in G


def test_trivial_group():
    G = group_from_generators(3, [])
    assert G.order() == 1
    assert Permutation.identity(3) in G
    assert cyc(3, (0, 1)) not in G


def test_chain_vs_closure_oracle():
    cases = [
        sym(5),
        alt(5),
        group_from_generators(6, [cyc(6, (0, 1, 2, 3, 4, 5))]),
        group_from_generators(8, [cyc(8, (0, 1, 2, 3), (4, 5, 6, 7)),
                                  cyc(8, (0, 4), (1, 7), (2, 6), (3, 5))]),
    ]
    for G in cases:
        assert G.order() == closure_order(G.degree, G.generators)


def test_orbit_partition():
    z3 = group_from_generators(5, [cyc(5, (0, 1, 2))])
    assert z3.orbits() == [[0, 1, 2], [3], [4]]
    assert sym(4).orbits() == [[0, 1, 2, 3]]


def test_orbit_partition_conjugation_action_of_alt4():
    # Alt_4 acting on its own 12 elements by conjugation splits into
    # class-sized orbits 1, 3, 4, 4.
    A4 = alt(4)
    els = A4.element_list()
    index = {g.images: i for i, g in enumerate(els)}
    conj_gens = []
    for s in A4.generators:
        s_inv = s.inverse()
        conj_gens.append(Permutation(index[(s * g * s_inv).images] for g in els))
    action = group_from_generators(12, conj_gens)
    sizes = sorted(len(o) for o in action.orbits())
    assert sizes == [1, 3, 4, 4]


def test_transitivity_degrees():
    assert transitivity_degree(sym(5)) == (5, True)
    assert transitivity_degree(alt(5)) == (3, True)
    # transitivity is measured on the support: an embedded 3-cycle is
    # sharply 1-transitive on its three moved points
    assert transitivity_degree(group_from_generators(5, [cyc(5, (0, 1, 2))])) == (1, True)
    # two disjoint transpositions: support 0..3 splits into two orbits
    assert transitivity_degree(
        group_from_generators(4, [cyc(4, (0, 1)), cyc(4, (2, 3))])) == (0, False)
    # sharply 1-transitive: a regular cyclic action
    assert transitivity_degree(group_from_generators(4, [cyc(4, (0, 1, 2, 3))])) == (1, True)


def test_conjugacy_classes_s4_quaternion_a5_z3():
    assert conjugacy_classes(sym(4)).class_sizes == (1, 6, 3, 8, 6)

    # quaternion group in its regular representation: 8 = 1 + 1 + 3*2
    from fsg.zoo import construct_named
    Q = construct_named("quaternion")
    data = conjugacy_classes(Q)
    assert data.class_sizes == (1, 1, 2, 2, 2)
    assert data.class_rep_orders == (1, 2, 4, 4, 4)
    assert data.center_size == 2

    assert conjugacy_classes(alt(5)).class_sizes == (1, 15, 20, 12, 12)

    z3 = group_from_generators(3, [cyc(3, (0, 1, 2))])
    assert conjugacy_classes(z3).class_sizes == (1, 1, 1)


def test_alt5_from_two_three_cycles():
    G = group_from_generators(5, [cyc(5, (0, 1, 2)), cyc(5, (2, 3, 4))])
    assert G.order() == 60
    assert is_simple(G)


def test_sym6_alt6_class_partitions():
    # Alt_6: 360 = 1 + 45 + 40 + 40 + 90 + 72 + 72, the doubled classes
    # being the two 5-cycle classes and the two 3-element-cycle shapes
    a6 = conjugacy_classes(alt(6))
    assert sorted(a6.class_sizes) == [1, 40, 40, 45, 72, 72, 90]
    # Sym_6: 720 = 1+15+45+15+40+120+40+90+90+144+120
    s6 = conjugacy_classes(sym(6))
    assert sorted(s6.class_sizes) == sorted(
        [1, 15, 45, 15, 40, 120, 40, 90, 90, 144, 120])
    assert s6.num_classes == 11 and a6.num_classes == 7


def test_class_invariants():
    for G in [sym(4), sym(5), alt(5), alt(6)]:
        data = conjugacy_classes(G)
        n = G.order()
        assert sum(data.class_sizes) == n
        assert all(n % s == 0 for s in data.class_sizes)
        assert data.center_size == sum(1 for s in data.class_sizes if s == 1)
        assert isinstance(data, ClassData)


def test_structure_reports():
    assert structure_report(sym(4)) == (1, 12, 2, False)
    from fsg.zoo import construct_named
    Q = construct_named("quaternion")
    # oracle: brute force over all 8 elements
    els = Q.element_list()
    center = [z for z in els if all(z * g == g * z for g in Q.generators)]
    comms = {(a * b * a.inverse() * b.inverse()).images for a in els for b in els}
    assert structure_report(Q) == (len(center), len(comms), 8 // len(comms), False)
    assert structure_report(Q) == (2, 2, 4, False)
    z6 = group_from_generators(6, [cyc(6, (0, 1, 2, 3, 4, 5))])
    assert structure_report(z6) == (6, 1, 6, False)
    a5 = alt(5)
    assert structure_report(a5)[3] is True  # perfect


def test_is_simple():
    assert is_simple(alt(5))
    assert not is_simple(alt(4))
    assert is_simple(group_from_generators(5, [cyc(5, (0, 1, 2, 3, 4))]))
    assert not is_simple(group_from_generators(4, [cyc(4, (0, 1, 2, 3))]))
    assert not is_simple(sym(5))
    assert not is_simple(group_from_generators(2, []))


def test_normal_closure():
    S4 = sym(4)
    v = normal_closure(S4, [cyc(4, (0, 1), (2, 3))])
    assert v.order() == 4
    a = normal_closure(S4, [cyc(4, (0, 1, 2))])
    assert a.order() == 12


def test_element_order_histograms():
    z4 = group_from_generators(4, [cyc(4, (0, 1, 2, 3))])
    assert element_order_histogram(z4) == {1: 1, 2: 1, 4: 2}
    h5 = element_order_histogram(alt(5))
    assert h5 == {1: 1, 2: 15, 3: 20, 5: 24}

    # Alt_8 contains order-15 elements: cycle type (3,5), of which there are
    # 8!/(3*5) = 2688 (independent counting oracle).
    h8 = element_order_histogram(alt(8))
    assert h8[15] == 2688
    assert sum(h8.values()) == 20160


def test_cauchy_involution_parity():
    for G in [sym(3), sym(4), alt(4), alt(5), sym(5)]:
        h = element_order_histogram(G)
        if G.order() % 2 == 0:
            assert h.get(2, 0) >= 1 and h[2] % 2 == 1
        else:
            assert 2 not in h


def test_random_fusion_classes_agree_with_exhaustive():
    # the seeded-fusion path used for orders between 1e5 and 1e6 must give
    # the same census as the exhaustive one; compare on S6 directly
    from fsg.perms import _conjugation_orbits, _random_elements
    G = sym(6)
    ex = sorted(len(c) for c in _conjugation_orbits(G, G.element_list()))
    fu = sorted(len(c) for c in _conjugation_orbits(G, _random_elements(G)))
    assert ex == fu
    assert sum(fu) == 720


def test_base_hint_gives_point_stabilizer_orders():
    G = PermGroup(5, sym(5).generators, base_hint=(0, 1))
    assert G.levels[0].base == 0 and G.levels[1].base == 1
    assert len(G.levels[0].orbit) == 5
    assert len(G.levels[1].orbit) == 4


def test_lagrange_along_chain():
    for G in [sym(5), alt(6), sym(6)]:
        n = G.order()
        sub = n
        for lev in G.levels:
            assert sub % len(lev.orbit) == 0
            sub //= len(lev.orbit)
        assert sub == 1
