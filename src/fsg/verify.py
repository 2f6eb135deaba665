"""The acceptance suite: every headline numeric fact, machine-checked.

Each check returns (name, passed, detail); `fsg verify-all` prints one
line per check and fails the process if any fails.  The checks are pure
recomputation: no tolerance appears anywhere, every comparison is exact
integer or exact structural equality.
"""

from __future__ import annotations

import time

from .fields import make_field, prime_power

EXPECTED_NONABELIAN_CENSUS_10000 = {
    60: ("Alt_5", "PSL_2(4)", "PSL_2(5)"),
    168: ("PSL_2(7)", "PSL_3(2)"),
    360: ("Alt_6", "PSL_2(9)"),
    504: ("PSL_2(8)",),
    660: ("PSL_2(11)",),
    1092: ("PSL_2(13)",),
    2448: ("PSL_2(17)",),
    2520: ("Alt_7",),
    3420: ("PSL_2(19)",),
    4080: ("PSL_2(16)",),
    5616: ("PSL_3(3)",),
    6048: ("PSU_3(9)",),
    6072: ("PSL_2(23)",),
    7800: ("PSL_2(25)",),
    7920: ("M11",),
    9828: ("PSL_2(27)",),
}

PRIME_POWERS_256 = [q for q in range(2, 257) if prime_power(q)]


def _check_order_formulas():
    from .matgroups import FamilyOrderQuery, order_formula
    table = [
        (("GL", 2, 3), 168),
        (("GL", 2, 4), 20160),
        (("PSL", 4, 3), 20160),
        (("GL", 3, 4), 24261120),
        (("SL", 3, 4), 12130560),
        (("PSL", 3, 4), 6065280),
        (("SL", 3, 3), 5616),
        (("G2", 2, 0), 12096),
        (("PSL", 9, 2), 360),
        (("SL", 8, 2), 504),
        (("PSL", 11, 2), 660),
    ]
    bad = []
    for (fam, q, n), want in table:
        got = order_formula(FamilyOrderQuery(fam, q, n)).order
        if got != want:
            bad.append(f"{fam}({q},n={n}): {got} != {want}")
    return not bad, "; ".join(bad) or f"{len(table)} orders exact"


def _check_census():
    from .matgroups import census_table, simple_census
    entries = simple_census(10000)
    got = {e.order: e.names for e in entries}
    ok = got == EXPECTED_NONABELIAN_CENSUS_10000
    full = census_table(10000)
    ok = ok and len(full) == 20
    ok = ok and [e.order for e in full[:4]] == [2, 3, 5, 7]
    m11 = next(e for e in entries if e.order == 7920)
    ok = ok and m11.is_sporadic
    return ok, (f"{len(entries)} nonabelian entries, 20 with abelian primes, "
                "M11 at 7920 flagged sporadic")


def _check_mathieu():
    from .golay import mathieu_m24
    chain = mathieu_m24()
    ok = (chain.order == 244823040
          and chain.point_stabilizer_order == 10200960
          and chain.two_point_stabilizer_order == 443520
          and chain.transitivity == (5, False))
    return ok, (f"|M24|={chain.order}, |M23|={chain.point_stabilizer_order}, "
                f"|M22|={chain.two_point_stabilizer_order}, "
                f"transitivity {chain.transitivity}")


def _check_golay():
    from math import comb
    from .golay import build_golay, octad_steiner_check
    code = build_golay()
    wd = code.weight_distribution()
    ok = wd == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    rep = octad_steiner_check(code, exhaustive=True)
    ok = ok and rep["counting_identity"]
    ok = ok and 759 * comb(8, 5) == comb(24, 5)
    ok = ok and rep["every_5_subset_once"]
    ok = ok and rep["octads_through_point"] == 253
    ok = ok and rep["octads_through_pair"] == 77
    return ok, f"weights {sorted(wd.items())}, Steiner exact"


def _check_leech():
    from .leech import kissing_number_consistency, leech_minimal_vectors
    census = leech_minimal_vectors()
    counts = {c.shape: c.count for c in census}
    total = sum(counts.values())
    theta = kissing_number_consistency(census)
    ok = (total == 196560 and theta["match"]
          and counts == {"four_four": 1104, "two_octad": 97152,
                         "three_ones": 98304})
    return ok, f"shapes {counts}, total {total} = theta q^2 coefficient"


def _check_moonshine():
    from .moonshine import j_cube_root, j_expansion, moonshine_decompositions
    j = j_expansion(3)
    s = j_cube_root(3)
    ok = j.coeff_range(0, 3) == [744, 196884, 21493760, 864299970]
    ok = ok and j.coeff(-1) == 1
    ok = ok and s.coeff_range(1, 3) == [248, 4124, 34752]
    checks = moonshine_decompositions()
    ok = ok and all(c["pass"] for c in checks)
    return ok, f"j and j^(1/3) coefficients exact, {len(checks)} identities pass"


def _check_monster():
    from .moonshine import monster_constant_checks
    checks = monster_constant_checks()
    return all(c["pass"] for c in checks), f"{len(checks)} constant checks"


def _check_catalog():
    from .zoo import small_group_catalog
    entries = small_group_catalog()
    ok = len(entries) == 28
    abelian = [e for e in entries if e.is_abelian]
    ok = ok and len(abelian) == 20 and len(entries) - len(abelian) == 8
    by_name = {e.name: e for e in entries}
    ok = ok and sorted(by_name["D4"].class_sizes) == [1, 1, 2, 2, 2]
    q = by_name["Q"]
    ok = ok and sorted(q.class_sizes) == [1, 1, 2, 2, 2]
    ok = ok and sorted(q.class_rep_orders) == [1, 2, 4, 4, 4]
    ok = ok and sorted(by_name["D5"].irrep_degrees) == [1, 1, 2, 2]
    ok = ok and by_name["S3"].irrep_degrees == (1, 1, 2)
    ok = ok and by_name["A4"].irrep_degrees == (1, 1, 1, 3)
    for e in entries:
        ok = ok and sum(d * d for d in e.irrep_degrees) == e.order
        ok = ok and sum(e.class_sizes) == e.order
        ok = ok and len(e.irrep_degrees) == len(e.class_sizes)
    return ok, "28 entries (20 abelian + 8 nonabelian), quoted partitions verified"


def _check_character_tables():
    from .characters import character_table
    from .zoo import symmetric
    s3 = character_table(symmetric(3))
    s4 = character_table(symmetric(4))
    ok = s3.as_integer_matrix() == [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
    ok = ok and s4.as_integer_matrix() == [
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [2, 2, 0, -1, 0],
        [3, -1, 1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
    ok = ok and s3.check_column_orthogonality()
    ok = ok and s4.check_column_orthogonality()
    return ok, "S3 and S4 tables match entry-for-entry; orthogonality exact"


def _check_20160():
    from .fields import make_field
    from .matgroups import projective_action
    from .perms import element_order_histogram
    from .zoo import alternating
    a8 = alternating(8)
    psl34 = projective_action("PSL", 3, make_field(2, 2))
    h8 = element_order_histogram(a8)
    h34 = element_order_histogram(psl34)
    ok = a8.order() == psl34.order() == 20160
    ok = ok and h8.get(15, 0) == 2688 and 15 not in h34
    ok = ok and h8 != h34
    return ok, ("orders agree at 20160; Alt_8 has 2688 order-15 elements, "
                "PSL_3(4) has none")


def _suite_groups():
    """The named groups the structural property checks run over."""
    from .matgroups import projective_action
    from .zoo import (alternating, clifford, cyclic, dicyclic, dihedral,
                      frobenius21, quaternion, symmetric, vierergruppe)
    groups = {
        "Z2": cyclic(2), "Z3": cyclic(3), "Z5": cyclic(5), "Z7": cyclic(7),
        "Z11": cyclic(11), "Z12": cyclic(12), "V": vierergruppe(),
        "S3": symmetric(3), "S4": symmetric(4), "S5": symmetric(5),
        "S6": symmetric(6),
        "A4": alternating(4), "Alt_5": alternating(5), "Alt_6": alternating(6),
        "D4": dihedral(4), "D6": dihedral(6), "D7": dihedral(7),
        "Q": quaternion(), "Q3": dicyclic(3), "Gamma_3": clifford(3),
        "Gamma_4": clifford(4), "G21": frobenius21(),
        "PSL_2(7)": projective_action("PSL", 2, make_field(7)),
        "SL_2(8)": projective_action("PSL", 2, make_field(2, 3)),
        "PSL_2(11)": projective_action("PSL", 2, make_field(11)),
        "PGL_2(9)": projective_action("PGL", 2, make_field(3, 2)),
    }
    return groups


def _check_group_properties():
    from .fields import is_prime, prime_factors
    from .perms import (center_order, closure_order, conjugacy_classes,
                        element_order_histogram, is_simple)
    problems = []
    groups = _suite_groups()
    simple_expected = {"Z2", "Z3", "Z5", "Z7", "Z11", "Alt_5", "Alt_6",
                       "PSL_2(7)", "SL_2(8)", "PSL_2(11)"}
    for name, G in groups.items():
        n = G.order()
        # Lagrange along the chain
        rest = n
        for size in G.basic_orbit_sizes():
            if rest % size:
                problems.append(f"{name}: orbit size fails Lagrange")
            rest //= size
        # BSGS order vs brute-force closure for everything small
        if n <= 5040 and closure_order(G.degree, G.generators) != n:
            problems.append(f"{name}: closure oracle disagrees with chain order")
        # involution parity (Cauchy)
        if n <= 10 ** 5:
            hist = element_order_histogram(G)
            if n % 2 == 0 and (hist.get(2, 0) < 1 or hist[2] % 2 == 0):
                problems.append(f"{name}: involution parity violated")
            if n % 2 == 1 and 2 in hist:
                problems.append(f"{name}: odd group with involutions")
        # class sizes divide the order
        if n <= 10 ** 5:
            for s in conjugacy_classes(G).class_sizes:
                if n % s:
                    problems.append(f"{name}: class size {s} fails divisibility")
        # p-group centers
        fac = prime_factors(n)
        if len(fac) == 1 and center_order(G) < fac[0]:
            problems.append(f"{name}: p-group with too-small center")
        # simplicity census over the suite, orders <= 1000
        if n <= 1000:
            expect = name in simple_expected or (G.is_abelian() and is_prime(n))
            if is_simple(G) != expect:
                problems.append(f"{name}: is_simple != {expect}")
    return not problems, "; ".join(problems) or \
        f"Lagrange/Cauchy/center/simplicity/oracle checks over {len(groups)} groups"


def _check_one_field(q):
    from .fields import (element_multiplicative_order, frobenius_order,
                         make_field, multiplicative_generator)
    p, f = prime_power(q)
    F = make_field(p, f)
    els = list(F.elements())
    g = multiplicative_generator(F)
    if element_multiplicative_order(F, g) != F.q - 1:
        return f"q={q}: generator order wrong"
    if frobenius_order(F) != f:
        return f"q={q}: frobenius order != f"
    add, mul = F.add, F.mul
    frob = {a: F.frobenius(a) for a in els}
    for a in els:
        fa = frob[a]
        for b in els:
            s = add(a, b)
            m = mul(a, b)
            if s != add(b, a) or m != mul(b, a):
                return f"q={q}: commutativity fails at {a}, {b}"
            if frob[s] != add(fa, frob[b]) or frob[m] != mul(fa, frob[b]):
                return f"q={q}: frobenius is not a field morphism at {a}, {b}"
    probes = [F.one(), g, mul(g, g)]
    for a in els:
        for b in (g, probes[2]):
            ab = mul(a, b)
            a_plus_b = add(a, b)
            for c in probes:
                if mul(ab, c) != mul(a, mul(b, c)):
                    return f"q={q}: associativity fails"
                if mul(c, a_plus_b) != add(mul(c, a), mul(c, b)):
                    return f"q={q}: distributivity fails"
    acc = F.zero()
    for _ in range(p - 1):
        acc = add(acc, F.one())
        if acc.is_zero():
            return f"q={q}: characteristic below p"
    if not add(acc, F.one()).is_zero():
        return f"q={q}: characteristic above p"
    return None


def _check_field_axioms():
    for q in PRIME_POWERS_256:
        problem = _check_one_field(q)
        if problem:
            return False, problem
    return True, (f"axioms and frobenius morphism exhaustive over pairs "
                  f"for all {len(PRIME_POWERS_256)} fields q <= 256")


def _check_division_algebras():
    import random
    from .division import (associativity_probe, random_octonion,
                           random_quaternion)
    h = associativity_probe("H", 100)
    o = associativity_probe("O", 100)
    ok = h["fully_associative"] and o["alternative"]
    w = o["nonassociative_witness"]
    ok = ok and w["associator_nonzero"] and w["anti_associated"]
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_quaternion(rng), random_quaternion(rng)
        ok = ok and (a * b).norm() == a.norm() * b.norm()
    for _ in range(100):
        a, b = random_octonion(rng), random_octonion(rng)
        ok = ok and (a * b).norm() == a.norm() * b.norm()
    return ok, "associativity/alternativity and norm composition exact"


def _check_zoo_laws():
    from .characters import character_table
    from .fields import is_prime
    from .perms import conjugacy_classes
    from .zoo import (cyclic, direct_product, holomorph, nonabelian_pq_group,
                      semidirect_product, symmetric, trivial_action,
                      vierergruppe)
    from .errors import ValidationError
    problems = []
    # holomorph orders
    if holomorph(vierergruppe()).order() != 24:
        problems.append("Hol(V) != 24")
    if holomorph(cyclic(5)).order() != 20:
        problems.append("Hol(Z5) != 20")
    hol_v_classes = conjugacy_classes(holomorph(vierergruppe())).class_sizes
    if tuple(sorted(hol_v_classes)) != tuple(sorted(
            conjugacy_classes(symmetric(4)).class_sizes)):
        problems.append("Hol(V) classes differ from S4")
    # direct product order law and character degrees
    g = direct_product(cyclic(2), symmetric(3))
    if g.order() != 12:
        problems.append("direct product order law")
    degs = sorted(character_table(g).degrees)
    if degs != [1, 1, 1, 1, 2, 2]:
        problems.append(f"Z2 x S3 character degrees {degs}")
    # pq compatibility law over all pq < 200
    primes = [p for p in range(2, 100) if is_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if p * q >= 200:
                break
            try:
                G = nonabelian_pq_group(p, q)
                built = True
                if G.order() != p * q or G.is_abelian():
                    problems.append(f"pq group {p}*{q} malformed")
            except ValidationError:
                built = False
            if built != ((q - 1) % p == 0):
                problems.append(f"pq compatibility wrong at {p},{q}")
    return not problems, "; ".join(problems) or \
        "holomorph/product order laws, pq compatibility over pq < 200"


ACCEPTANCE = [
    ("order-formula table (168 ... 6065280 ... 12096)", _check_order_formulas),
    ("simple-group census to 10000", _check_census),
    ("mathieu chain |M24|, |M23|, |M22|, 5-transitivity", _check_mathieu),
    ("golay weights and Steiner S(5,8,24)", _check_golay),
    ("leech kissing number 196560 = theta q^2", _check_leech),
    ("moonshine j, j^(1/3) and dimension identities", _check_moonshine),
    ("monster order constants", _check_monster),
    ("small-group catalog below order 16", _check_catalog),
    ("S3/S4 character tables, exact orthogonality", _check_character_tables),
    ("order 20160: Alt_8 vs PSL_3(4) separated", _check_20160),
    ("group property suite (Lagrange/Cauchy/center/simplicity)",
     _check_group_properties),
    ("field axioms through q = 256", _check_field_axioms),
    ("quaternion/octonion exact identities", _check_division_algebras),
    ("zoo order laws and pq compatibility", _check_zoo_laws),
]


def acceptance_checks():
    results = []
    for name, fn in ACCEPTANCE:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not hide
            passed, detail = False, f"raised {exc!r}"
        results.append({
            "name": name,
            "passed": bool(passed),
            "detail": detail,
            "seconds": time.perf_counter() - start,
        })
    return results
