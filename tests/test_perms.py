"""Permutation-group engine: chain order vs closure oracle, classes,
structure queries, transitivity."""

import random
import sys
import threading

import pytest

from fsg import perms
from fsg.characters import character_table
from fsg.errors import DomainMismatchError, ValidationError
from fsg.fields import make_field
from fsg.matgroups import projective_action
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
from fsg.zoo import (alternating, cyclic, dihedral, frobenius21, holomorph, quaternion,
                     symmetric, vierergruppe)


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
    # both forms pad to the requested degree with fixed points
    assert Permutation.parse("[1 0]", degree=4).images == (1, 0, 2, 3)
    assert Permutation.parse("(0 1)", degree=4).images == (1, 0, 2, 3)
    assert Permutation.parse("", degree=3).is_identity()


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


def test_lagrange_along_chain():
    for G in [sym(5), alt(6), sym(6)]:
        n = G.order()
        sub = n
        for size in G.basic_orbit_sizes():
            assert sub % size == 0
            sub //= size
        assert sub == 1


def brute_transitivity(G):
    """(k, sharp) from the orbits of ordered tuples of support points under
    the generators, with the order from the closure oracle."""
    supp = sorted({p for g in G.generators for p in g.moved_points()})
    order = closure_order(G.degree, G.generators)
    k, tuples = 0, 1                # tuples = |S| (|S| - 1) ... (|S| - k + 1)
    while k < len(supp):
        start = tuple(supp[:k + 1])
        seen, queue = {start}, [start]
        for t in queue:
            for g in G.generators:
                u = tuple(g(x) for x in t)
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        if len(seen) != tuples * (len(supp) - k):
            break
        tuples *= len(supp) - k
        k += 1
    if k == 0:
        return 0, False
    return k, tuples == order


def random_subset_group(rng, degree):
    gens = []
    for _ in range(rng.randint(1, 3)):
        moved = rng.sample(range(degree), rng.randint(2, degree))
        images = list(range(degree))
        for x, y in zip(moved, rng.sample(moved, len(moved))):
            images[x] = y
        gens.append(Permutation(images))
    return group_from_generators(degree, gens)


def transitivity_oracle_groups():
    groups = [
        symmetric(4), symmetric(5), alternating(5), alternating(6),
        dihedral(5), dihedral(6), cyclic(7), quaternion(), frobenius21(),
        holomorph(cyclic(5)), vierergruppe(),
        projective_action("PSL", 2, make_field(7)),
        projective_action("PGL", 2, make_field(5)),
        projective_action("PSL", 2, make_field(2, 3)),
        group_from_generators(6, [cyc(6, (1, 3, 5))]),
        group_from_generators(7, [cyc(7, (0, 1, 2)), cyc(7, (3, 4)), cyc(7, (4, 5, 6))]),
        group_from_generators(3, []),
    ]
    rng = random.Random(2024)
    return groups + [random_subset_group(rng, rng.randint(3, 7)) for _ in range(20)]


def test_transitivity_degree_matches_tuple_orbits(monkeypatch):
    groups = transitivity_oracle_groups()
    expected = [brute_transitivity(G) for G in groups]
    # the named groups cover every outcome the chain walk can give
    assert expected[:4] == [(4, True), (5, True), (3, True), (4, True)]
    assert expected[11:17] == [(2, False), (3, True), (3, True), (1, True),
                               (0, False), (0, False)]
    builds = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    assert [transitivity_degree(G) for G in groups] == expected
    assert builds == []


@pytest.mark.parametrize("build, n", [(symmetric, 4), (dihedral, 6), (alternating, 5)])
def test_one_class_census_per_group(monkeypatch, build, n):
    G = build(n)
    runs = []
    census = perms._conjugation_orbits

    def counting_census(*args):
        runs.append(args)
        return census(*args)

    monkeypatch.setattr(perms, "_conjugation_orbits", counting_census)
    data = conjugacy_classes(G)
    blocks = perms.full_conjugacy_classes(G)
    snapshot = [list(b) for b in blocks]
    simple = is_simple(G)
    center = perms.center_order(G)
    report = structure_report(G)
    table = character_table(G)
    assert len(runs) == 1
    assert perms.full_conjugacy_classes(G) is blocks
    assert [list(b) for b in blocks] == snapshot      # the table sorted a copy
    assert simple == (build is alternating)
    assert report[0] == center == data.center_size
    assert sorted(table.class_sizes) == sorted(data.class_sizes)
    # the centre by its definition: elements commuting with every generator
    assert center == sum(1 for z in G.element_list()
                         if all(z * g == g * z for g in G.generators))


def test_threads_share_a_group_across_the_first_census():
    expected = conjugacy_classes(alternating(5))
    G = alternating(5)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        barrier.wait(timeout=10)
        results[k] = (conjugacy_classes(G), is_simple(G), structure_report(G))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == (expected, True, (1, 60, 1, True)) for r in results)


def trusted_path_groups():
    """The 17 named groups of the transitivity oracle and 20 seeded random
    groups of degree 3-12."""
    rng = random.Random(31)
    named = transitivity_oracle_groups()[:17]
    return named + [random_subset_group(rng, rng.randint(3, 12)) for _ in range(20)]


def test_trusted_path_yields_valid_permutations():
    """Products, inverses, powers, chain entries, elements and class members
    are built unchecked; each must still be a bijection of the group's
    degree, equal to itself re-validated, and the composite it names."""
    def valid(p, degree):
        assert p.degree == degree
        assert Permutation(list(p.images)) == p

    rng = random.Random(7)
    for G in trusted_path_groups():
        n = G.degree
        for lev in G.levels:
            for p, u_inv in lev.inv.items():     # u_p^-1 maps p to the base
                valid(Permutation._trusted(u_inv), n)
                assert u_inv[p] == lev.base
        if G.order() <= 5040:
            elements = list(G.iter_elements())
            assert len(set(elements)) == G.order()
            for block in perms.full_conjugacy_classes(G):
                for x in block:
                    valid(x, n)
                    assert x in G
        else:
            elements = [G.random_element(rng) for _ in range(200)]
        for x in elements:
            valid(x, n)
            assert x in G
            for s in G.generators:
                valid(x * s, n)
                assert (x * s).images == tuple(x(s(i)) for i in range(n))
            valid(x.inverse(), n)
            assert (x * x.inverse()).is_identity()
            for k in (-2, 2, 3, x.order()):
                valid(x ** k, n)
            assert (x ** x.order()).is_identity()
            valid(G.sift(x), n)


def test_chain_stores_one_pointer_per_transversal_image():
    # one inverse transversal whose tuples share the identity's ints costs
    # about 8 bytes (one pointer) per stored image
    import tracemalloc
    n = 800
    cycle = Permutation(list(range(1, n)) + [0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = PermGroup(n, [cycle])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert G.order() == n
    assert retained < 12 * sum(G.basic_orbit_sizes()) * n


def test_public_entry_points_still_validate():
    for build in (lambda: Permutation([0, 0]), lambda: Permutation([1, 2]),
                  lambda: Permutation.from_cycles(3, [(0, 1, 0)]),
                  lambda: Permutation.parse("[0, 0, 1]"),
                  lambda: PermGroup(3, [[0, 0, 1]])):
        with pytest.raises(ValidationError):
            build()


def test_histogram_reads_the_cached_census(monkeypatch):
    groups = [alt(5), sym(5), dihedral(6), alt(8),
              projective_action("PSL", 3, make_field(2, 2))]
    enumerated = [element_order_histogram(G) for G in groups]    # no census yet
    for G in groups:
        conjugacy_classes(G)
    calls = []
    mul, walk = Permutation.__mul__, PermGroup.iter_elements

    def counting_mul(self, other):
        calls.append("mul")
        return mul(self, other)

    def counting_walk(self):
        calls.append("walk")
        return walk(self)

    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    monkeypatch.setattr(PermGroup, "iter_elements", counting_walk)
    from_census = [element_order_histogram(G) for G in groups]
    assert calls == []
    assert from_census == enumerated
    a8, psl34 = from_census[3:]
    assert sum(a8.values()) == sum(psl34.values()) == 20160
    assert a8[15] == 2688 and 15 not in psl34
