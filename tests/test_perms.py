"""Permutation-group engine: chain order vs closure oracle, classes,
structure queries, transitivity."""

import gc
import itertools
import math
import random
import sys
import threading
import tracemalloc

import pytest

from fsg import perms
from fsg.characters import character_table
from fsg.errors import DomainMismatchError, ResourceLimitError, ValidationError
from fsg.fields import make_field
from fsg.golay import mathieu_m24
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
from fsg.zoo import (alternating, cyclic, dihedral, elementary_abelian, frobenius21,
                     holomorph, quaternion, symmetric, vierergruppe)


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
    # the group keeps no element list: each call sorts a new one
    assert A4.element_list() == els and A4.element_list() is not els


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


def test_normal_closure_stops_at_the_whole_group(monkeypatch):
    # a closure that already has |G| takes no further conjugation round: one
    # chain and no membership test, where one more round sifted every
    # seed-by-generator conjugate only to find nothing new
    groups = [alt(8), sym(7), projective_action("PSL", 2, make_field(17))]
    builds, sifts = [], []
    build, sift = PermGroup._build_chain, PermGroup.sift
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self, within: builds.append(1) or build(self, within))
    monkeypatch.setattr(PermGroup, "sift", lambda self, g: sifts.append(1) or sift(self, g))
    for G in groups:
        builds.clear()
        sifts.clear()
        assert normal_closure(G, G.generators).order() == G.order()
        assert (len(builds), len(sifts)) == (1, 0)


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


def test_census_seeds_from_the_chain_iterator(monkeypatch):
    # one walk of the chain's element iterator seeds the census at every
    # order; the sorted element list is never built, and each class rep is
    # the smallest image tuple that the census map sends to its class
    def refuse(self):
        raise AssertionError("the census built the element list")

    walks = []
    walk = PermGroup.iter_elements

    def counting_walk(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(PermGroup, "element_list", refuse)
    monkeypatch.setattr(PermGroup, "iter_elements", counting_walk)
    for G in (alternating(5), alternating(8)):
        walks.clear()
        class_of, reps, sizes = perms.class_census(G)
        data = conjugacy_classes(G)
        assert len(walks) == 1 and walks[0] is G
        members = [[] for _ in reps]
        for x, c in class_of.items():
            members[c].append(tuple(x))
        assert [rep.images for rep in reps] == [min(m) for m in members]
        assert sizes == [len(m) for m in members]
        assert sorted(map(id, data.reps)) == sorted(map(id, reps))
    # A_9, of order 181,440, is a census above EXHAUSTIVE_CLASS_BOUND
    sizes = conjugacy_classes(alternating(9)).class_sizes
    assert sorted(sizes) == [1, 168, 378, 945, 2240, 3024, 3360, 7560, 7560, 9072,
                             11340, 12096, 12096, 15120, 20160, 20160, 25920, 30240]


def classes_by_definition(G):
    """G's classes as sets of image tuples, each x conjugated by every g."""
    elements = G.element_list()
    classes = {frozenset((g * x * g.inverse()).images for g in elements) for x in elements}
    return sorted(classes, key=min)


def census_members(G):
    """The census's classes as sets of image tuples, in class-index order."""
    class_of, reps, _ = perms.class_census(G)
    members = [set() for _ in reps]
    for x, c in class_of.items():
        members[c].add(tuple(x))
    return members


def test_census_keys_switch_from_bytes_to_tuples_past_256_points():
    # S_4 on points 0-3 times the transposition of the two highest points
    groups = {n: group_from_generators(n, [cyc(n, (0, 1, 2, 3)), cyc(n, (0, 1)),
                                           cyc(n, (n - 2, n - 1))]) for n in (256, 257)}
    for n, key in ((256, bytes), (257, tuple)):
        G = groups[n]
        class_of, reps, sizes = perms.class_census(G)
        assert {type(x) for x in class_of} == {key}
        members = census_members(G)
        assert sorted(members, key=min) == classes_by_definition(G)
        assert [rep.images for rep in reps] == [min(m) for m in members]
        assert sizes == [len(m) for m in members]
    assert len(sizes) == 10

    def relabel(images):
        # points 254, 255 of degree 256 are 255, 256 of degree 257
        return images[:254] + (254,) + tuple(p + 1 for p in images[254:])

    small, large = (perms.class_census(groups[n]) for n in (256, 257))
    assert [relabel(rep.images) for rep in small[1]] == [rep.images for rep in large[1]]
    assert small[2] == large[2]
    assert ({relabel(tuple(x)): c for x, c in small[0].items()}
            == {tuple(x): c for x, c in large[0].items()})
    table = character_table(groups[257])
    assert table == character_table(groups[256])
    assert sorted(table.degrees) == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]


@pytest.mark.parametrize("G", [PermGroup(0, []), PermGroup(1, []), PermGroup(2, []),
                               PermGroup(5, []), PermGroup(2, [cyc(2, (0, 1))])],
                         ids=["degree0", "degree1", "trivial2", "trivial5", "s2"])
def test_census_on_at_most_two_points_and_of_the_trivial_group(G):
    class_of, reps, sizes = perms.class_census(G)
    assert class_of == {bytes(x.images): c for c, x in enumerate(G.element_list())}
    assert [rep.images for rep in reps] == [x.images for x in G.element_list()]
    assert sizes == [1] * G.order()
    assert character_table(G).degrees == (1,) * G.order()


def test_gather_gives_a_tuple_for_any_number_of_indices():
    # itemgetter(i) alone gives a bare item, which bytes() would read as a length
    word = bytes([5, 7, 9])
    assert perms.gather(())(word) == ()
    assert perms.gather((2,))(word) == (9,)
    assert perms.gather((2, 0))(word) == (9, 5)
    assert perms.census_key(1)(perms.gather((1,))(word)) == bytes([7])


def test_a8_census_retains_under_two_mib():
    # bytes keys: A_8's census map and reps retain about 1.6 MiB; image-tuple
    # keys retained 2.8 MiB
    G = alternating(8)
    assert G._census is None
    gc.collect()
    tracemalloc.start()
    try:
        perms.class_census(G)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 2 * 2 ** 20


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
    # the census is the only walk of G's elements here, so one walk is
    # one census
    G = build(n)
    runs = []
    walk = PermGroup.iter_elements

    def counting_walk(self):
        runs.append(self)
        return walk(self)

    monkeypatch.setattr(PermGroup, "iter_elements", counting_walk)
    data = conjugacy_classes(G)
    census = perms.class_census(G)
    snapshot = [dict(census[0]), list(census[1]), list(census[2])]
    simple = is_simple(G)
    center = perms.center_order(G)
    report = structure_report(G)
    table = character_table(G)
    assert len(runs) == 1
    assert perms.class_census(G) is census
    assert [dict(census[0]), list(census[1]), list(census[2])] == snapshot
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
    """Products, inverses, powers, chain entries, elements, and the keys
    and reps of the class census are built unchecked; each must still be a
    bijection of the group's degree, equal to itself re-validated, and the
    composite it names."""
    def valid(p, degree):
        assert p.degree == degree
        assert Permutation(list(p.images)) == p

    for G in trusted_path_groups():
        n = G.degree
        for lev in G.levels:
            for p, u_inv in lev.inv.items():     # u_p^-1 maps p to the base
                valid(Permutation._trusted(u_inv), n)
                assert u_inv[p] == lev.base
        if G.order() <= 5040:
            elements = list(G.iter_elements())
            assert len(set(elements)) == G.order()
            class_of, reps, _ = perms.class_census(G)
            assert len(class_of) == G.order()
            for x in [Permutation._trusted(tuple(x)) for x in class_of] + reps:
                valid(x, n)
                assert x in G
        else:
            elements = list(itertools.islice(G.iter_elements(), 200))
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


def test_each_level_lists_the_strong_generators_fixing_earlier_bases():
    # a level's gens are exactly the registered strong generators that fix
    # every earlier base point, listed by the level each was registered at
    # (that of the first base point it moves), and its orbit is closed
    # under them
    for G in trusted_path_groups() + [elementary_abelian(2, 30)]:
        strong = {h: h_inv for lev in G.levels for h, h_inv in lev.gens}
        bases = [lev.base for lev in G.levels]
        first_moved = {h: next(i for i, b in enumerate(bases) if h[b] != b) for h in strong}
        for i, lev in enumerate(G.levels):
            assert sorted(h for h, _ in lev.gens) == sorted(
                h for h in strong if first_moved[h] >= i)
            levels = [first_moved[h] for h, _ in lev.gens]
            assert levels == sorted(levels)
            for h, h_inv in lev.gens:
                assert h_inv == tuple(sorted(range(G.degree), key=h.__getitem__))
                assert all(h[p] in lev.inv for p in lev.inv)


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


def test_chain_refuses_past_the_image_bound(monkeypatch):
    # the chain stores degree images per orbit point past each base point:
    # (n - 1) * n for an n-cycle, n * n(n - 1)/2 for S_n
    assert sym(6)._images == 6 * 15 and cyclic(30)._images == 29 * 30
    monkeypatch.setattr(perms, "CHAIN_IMAGE_BOUND", 29 * 30)
    assert cyclic(30).order() == 30
    for build in (lambda: cyclic(31), lambda: PermGroup(31, [cyc(31, tuple(range(31)))]),
                  lambda: sym(13)):
        with pytest.raises(ResourceLimitError, match="fixed bound of 870"):
            build()


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


def pairs_left_unsifted(G):
    # some Schreier pair (orbit point, level generator) never sifted to the
    # identity: the pass stopped at the order bound before it got there
    return any(len(done) < len(lev.inv) for lev in G.levels for done in lev.sifted)


def chain_is_valid(G):
    """Each level's orbit is closed under its generators, each transversal
    entry maps its point to the base, and the order is the closure oracle's."""
    for lev in G.levels:
        for h, _ in lev.gens:
            assert all(h[p] in lev.inv for p in lev.inv)
        for p, u_inv in lev.inv.items():
            assert u_inv[p] == lev.base
    assert G.order() == closure_order(G.degree, G.generators)


def test_named_chains_stop_at_the_orbit_bound():
    # S_n, A_n and E(2, m) reach the product of |orbit|! (halved for even
    # generators), which proves every basic orbit complete
    factorial = 2
    for n in range(3, 31):
        factorial *= n
        for G, order in ((sym(n), factorial), (symmetric(n), factorial),
                         (alt(n), factorial // 2), (alternating(n), factorial // 2)):
            assert G.order() == order and G._order_bound(None) == order
            assert pairs_left_unsifted(G), (n, order)
    E = elementary_abelian(2, 30)
    assert E.order() == E._order_bound(None) == 2 ** 30
    assert pairs_left_unsifted(E)


def test_chains_below_the_bound_sift_every_pair():
    # PSL_2(7) on 8 points and D_12 lie far below the orbit bound: the
    # pass ends only once every Schreier pair at every level has sifted
    # to the identity
    for G, order in ((projective_action("PSL", 2, make_field(7)), 168), (dihedral(12), 24)):
        G = PermGroup(G.degree, G.generators)
        assert not pairs_left_unsifted(G)
        assert G.order() == order < G._order_bound(None)
        chain_is_valid(G)
        assert all(x in G for x in itertools.islice(G.iter_elements(), 50))
        assert cyc(G.degree, (0, 1)) not in G


def test_an_odd_generator_doubles_the_bound():
    # A_n's generators are even and give n!/2; one transposition more gives n!
    factorial = 2
    for n in range(3, 16):
        factorial *= n
        A = alt(n)
        G = group_from_generators(n, list(A.generators) + [cyc(n, (0, 1))])
        assert (A.order(), G.order()) == (factorial // 2, factorial)
        assert G._order_bound(None) == factorial
        if n <= 7:
            chain_is_valid(G)


def test_commuting_generators_bound_by_their_orbits():
    # an abelian <S> is regular on each orbit, so |<S>| <= prod |O|, and at
    # most the product of its generators' orders; E(p, m) and cyclic groups
    # reach that bound before every Schreier pair is sifted
    for G, order in ((elementary_abelian(3, 60), 3 ** 60),
                     (elementary_abelian(5, 12), 5 ** 12), (cyclic(30), 30)):
        assert G.order() == G._order_bound(None) == order
        assert pairs_left_unsifted(G)
    # one generator with cycles 2 and 4: its order 4, below prod |O| = 8
    G = group_from_generators(6, [cyc(6, (0, 1), (2, 3, 4, 5))])
    assert G._order_bound(None) == G.order() == 4
    # two commuting generators on one orbit: prod |O| = 4, below 4 * 2
    G = group_from_generators(4, [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 2), (1, 3))])
    assert G._order_bound(None) == G.order() == 4
    chain_is_valid(G)
    # two transpositions that do not commute keep 3! (prod |O| would be 3)
    G = group_from_generators(3, [cyc(3, (0, 1)), cyc(3, (1, 2))])
    assert not G.is_abelian()
    assert G._order_bound(None) == G.order() == 6
    # commuting is compared on the moved points only: disjoint supports commute
    assert group_from_generators(7, [cyc(7, (0, 1)), cyc(7, (2, 3, 4))]).is_abelian()
    assert not group_from_generators(7, [cyc(7, (0, 1)), cyc(7, (1, 5))]).is_abelian()


def test_subgroup_bound_needs_membership():
    # S_6's generators do not lie in A_6, so A_6's order must not bound their
    # chain: each generator is sifted into the overgroup first
    A6 = alt(6)
    S6 = sym(6)
    assert PermGroup(6, S6.generators, _within=A6).order() == 720
    assert PermGroup(6, S6.generators, _within=A6)._order_bound(A6) == 720
    assert PermGroup(6, A6.generators, _within=S6)._order_bound(S6) == 360
    # inside A_6 a 3-cycle's closure is A_6, bounded by |A_6|
    assert PermGroup(6, [cyc(6, (0, 1, 2)), cyc(6, (1, 2, 3, 4, 5))],
                     _within=S6)._order_bound(A6) == 360
    assert normal_closure(A6, [cyc(6, (0, 1, 2))]).order() == 360
    assert normal_closure(A6, [cyc(6, (0, 1))]).order() == 720


def test_elementary_abelian_chain_builds_in_bounded_time():
    # m levels of orbit p: the generators alone reach the orbit bound 2^m,
    # or for p > 2 the commuting bound p^m (sifting every Schreier pair took
    # 3.7 s for E(2, 200), and is cubic in m)
    import time
    for p, m in ((2, 400), (3, 200)):
        start = time.perf_counter()
        E = elementary_abelian(p, m)
        assert time.perf_counter() - start < 5
        assert E.order() == p ** m and pairs_left_unsifted(E)


def test_chain_build_takes_no_seeded_draws(monkeypatch):
    # the chain is a deterministic function of its generators: with the
    # seeded stream gone, S_20, PSL_2(7) and M24 still build, with their
    # orders
    def no_draws():
        raise AssertionError("the chain build drew from the seeded stream")

    groups = [(symmetric(20), math.factorial(20)),
              (projective_action("PSL", 2, make_field(7)), 168),
              (mathieu_m24().group, 244823040)]
    monkeypatch.setattr(perms, "_draws", no_draws)
    for G, order in groups:
        assert PermGroup(G.degree, G.generators).order() == order


def test_census_conjugates_by_a_certified_pair():
    # PSL_3(4) has 12 generators; the census conjugates by two seeded draws
    # whose chain reaches |G|, and keeps the same classes
    G = projective_action("PSL", 3, make_field(2, 2))
    assert len(G.generators) == 12
    pair = perms._conjugators(G)
    assert len(pair) == 2
    assert PermGroup(G.degree, map(Permutation, pair)).order() == G.order()
    assert conjugacy_classes(G).class_sizes == (1, 315, 2240, 1260, 1260, 1260,
                                                4032, 4032, 2880, 2880)
    # E(2, 4) is not 2-generated: every pair fails, the census conjugates by
    # its own four generators, and each element is its own class
    E = elementary_abelian(2, 4)
    assert perms._conjugators(E) == [g.images for g in E.generators]
    data = conjugacy_classes(E)
    assert data.class_sizes == (1,) * 16 and data.center_size == 16
