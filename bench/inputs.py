"""Seeded inputs for the four workloads.

Stdlib only and free of fsg: the benchmark makes every input here from
the workload seed, and the program sees only the resulting requests.
`generate(workload, seed)` returns one pass, the list of requests a child
interpreter serves in order; the same seed gives byte-identical passes.

Draws are stratified so that every seed gives a pass of about the same
cost: the seed changes which fields, groups, bounds and elements are
asked for, not how much work a pass holds.  That keeps the figures of
different seeds comparable.
"""

from __future__ import annotations

import random
from math import isqrt

WORKLOADS = ("fields", "groups", "lattice", "cli")


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _prime_power(q):
    """(p, f) with q = p^f, or None."""
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            return (p, f) if q == 1 else None
    return None


def _elements(rng, p, f, k, nonzero=False):
    out = []
    while len(out) < k:
        c = [rng.randrange(p) for _ in range(f)]
        if not (nonzero and not any(c)):
            out.append(c)
    return out


def _perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return images


def _words(rng, k):
    """Members are products of generators; entries are reduced modulo the
    number of generators the built group reports."""
    return [[rng.randrange(1 << 16) for _ in range(rng.randint(6, 14))]
            for _ in range(k)]


# ------------------------------------------------------------------ fields

# A pass draws k fields from each stratum.  From the middle stratum up,
# the requests of a stratum cost within about 10% of each other; the
# four strata below hold requests under 0.15 s, together under a tenth
# of a pass.  So neither the pass time nor the order of the requests by
# cost depends on which fields the seed picks: the median request is one
# of q = 103, 107, 109 (about 0.2 s each on a 2-core x86 machine at the
# seed commit), and the tail, the second dearest request, q = 81 or
# 149/151 (about 0.4 s).  Fields above q = 151 are left out: each request
# takes 0.6-5 s, and so few passes fit in a run that the figures of
# one run do not repeat in the next.
FIELD_STRATA = (
    (1, (2, 3, 4, 5, 7, 8, 9)),
    (1, (11, 13, 16, 17, 19)),
    (1, (23, 25, 27, 29, 31)),
    (1, (37, 41, 43, 47, 49, 53)),
    (3, (103, 107, 109)),
    (1, (81,)),
    (1, (121,)),
    (1, (137, 139)),
    (1, (149, 151)),
)


def _fields(rng):
    out = []
    for k, sizes in FIELD_STRATA:
        for q in rng.sample(sizes, k):
            p, f = _prime_power(q)
            out.append({"p": p, "f": f,
                        "probes": _elements(rng, p, f, 2, nonzero=True),
                        "inverse_sample": _elements(rng, p, f, 8, nonzero=True)})
    rng.shuffle(out)
    return out


# ------------------------------------------------------------------ groups


def _g(kind, n):
    return {"kind": kind, "n": n}


def _proj(variant, dim, p, f=1):
    return {"kind": "projective", "variant": variant, "dim": dim, "pf": [p, f]}


# A pass holds seven cheap requests (six small groups and a random group
# of degree 12, under 60 ms a request on a 2-core x86 machine at the seed
# commit), the two middle ones Z_11 x| Z_5 and A_7 (about 150 ms each)
# and seven dear ones (over 180 ms), so the median request is the mean of
# the two middle ones whatever the seed draws, and the tail, the second
# dearest, is PSL_2(25) or Alt_8 (about 1 s each).
GROUP_CHEAP = (
    _g("symmetric", 4), _g("alternating", 4), _g("dihedral", 5), _g("dihedral", 7),
    _g("dihedral", 9), _g("dihedral", 11), _g("dicyclic", 2), _g("dicyclic", 4),
    _g("clifford", 2), _g("clifford", 3), _g("holomorph", 5), _g("holomorph", 6),
    {"kind": "semidirect", "pq": [2, 5]}, {"kind": "semidirect", "pq": [2, 11]},
)
GROUP_MIDDLE = ({"kind": "semidirect", "pq": [5, 11]}, _g("alternating", 7))
GROUP_DEAR = (   # (band, groups drawn from it)
    ((_g("symmetric", 7), _proj("PSL", 2, 7), _proj("PSL", 2, 17), _proj("PSL", 3, 2)), 2),
    ((_proj("PSL", 2, 2, 4), _proj("PSL", 2, 19)), 1),
    ((_proj("PSL", 2, 5, 2),), 1),
    ((_g("alternating", 8),), 1),
)
GROUP_CHEAP_PER_PASS = 6
# Random transitive 2-generator groups, almost always S_n or A_n: one
# cheap (degree 12), two dear (degrees 18 and 19, 0.18-0.25 s).  At
# degree 17 and below the cost reaches the middle pair; from degree 20 on
# it varies by 0.25 s a request with the generators.
RANDOM_DEGREE_BANDS = ((12, 12), (18, 18), (19, 19))
SIFTS_PER_GROUP = 16


def _groups(rng):
    """The seed picks the cheap groups, the groups from each dear band,
    the generators of the random groups and every sifted element."""
    slots = [dict(g) for g in rng.sample(GROUP_CHEAP, GROUP_CHEAP_PER_PASS)]
    slots += [dict(g) for g in GROUP_MIDDLE]
    slots += [dict(g) for band, k in GROUP_DEAR for g in rng.sample(band, k)]
    for lo, hi in RANDOM_DEGREE_BANDS:
        d = rng.randint(lo, hi)
        slots.append({"kind": "random", "n": d, "gens": _transitive_pair(rng, d)})
    for s in slots:
        s["degree"] = group_degree(s)
        s["words"] = _words(rng, SIFTS_PER_GROUP)
        s["nonmembers"] = [_perm(rng, s["degree"]) for _ in range(SIFTS_PER_GROUP)]
    rng.shuffle(slots)
    return slots


def _transitive_pair(rng, degree):
    """Two random permutations that move every point into one orbit.  One
    draw in about `degree` is intransitive and far cheaper to serve; it is
    drawn again, so that the seed does not change the cost of a pass."""
    while True:
        gens = [_perm(rng, degree), _perm(rng, degree)]
        seen, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for g in gens:
                if g[x] not in seen:
                    seen.add(g[x])
                    todo.append(g[x])
        if len(seen) == degree:
            return gens


def group_degree(spec):
    """Points the constructed group acts on, from the documented actions."""
    kind = spec["kind"]
    if kind in ("symmetric", "alternating", "dihedral", "random", "holomorph"):
        return spec["n"]
    if kind == "dicyclic":
        return 4 * spec["n"]
    if kind == "clifford":
        return 2 ** (spec["n"] + 1)
    if kind == "semidirect":
        p, q = spec["pq"]
        return p * q
    p, f = spec["pf"]
    q = p ** f
    return (q ** spec["dim"] - 1) // (q - 1)


# ----------------------------------------------------------------- lattice

# Sizes put the two middle requests of a pass (the j^(1/3) series and the
# M24 sift batch, about 0.1-0.2 s each) well clear of the short ones, which
# other tenants of the machine slow down the most.
M24_SIFTS = 1200


def _lattice(rng):
    return [
        {"op": "build_golay"},
        {"op": "octad_steiner_check"},
        {"op": "mathieu_m24"},
        {"op": "m24_sifts", "words": _words(rng, M24_SIFTS),
         "nonmembers": [_perm(rng, 24) for _ in range(M24_SIFTS)]},
        {"op": "leech_minimal_vectors"},
        {"op": "kissing_number_consistency"},
        {"op": "norm6_dodecad_lower_bound"},
        {"op": "delta_expansion", "n": rng.randint(900, 960)},
        {"op": "eisenstein_e4", "n": rng.randint(900, 960)},
        {"op": "j_expansion", "n": rng.randint(560, 600)},
        {"op": "j_cube_root", "n": rng.randint(320, 340)},
        {"op": "leech_theta_prefix", "n": rng.randint(320, 340)},
    ]


# --------------------------------------------------------------------- cli

# Every slot of a cli pass draws from a cost class: the seed changes the
# argv, not what a request costs, so the order of the requests by cost and
# with it the median and the tail request are the same from seed to seed.
# The costs quoted are those of one request on a 2-core x86 machine at
# the seed commit; about 2.3 ms of each is cli.main itself.

# (bound low, bound high, --with-primes)
CENSUS_STRATA = ((1_000, 2_000, True), (10_000, 11_000, False), (48_000, 50_000, True))
MAX_CLI_FIELD = 2 ** 20
# Prime fields, one band of primes per cost class: a request costs about
# 2.3 ms plus 50 ns per element, so each band spans a few percent of cost.
CLI_PRIME_BANDS = ((5, 2 ** 8, 2 ** 12), (5, 2 ** 16, 2 ** 16 + 2 ** 11),
                   (5, 2 ** 18, 2 ** 18 + 2 ** 13))
# Extension fields, whose cost depends on the search for a modulus more
# than on q: four under 3 ms and four of 13-16 ms a request.
CLI_EXT_CHEAP = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
                 (5, 2), (5, 3), (7, 2))
CLI_EXT_DEAR = ((89, 2), (97, 2), (101, 2), (103, 2), (107, 2))


def _random_prime(rng, lo, hi):
    while True:
        p = rng.randint(lo, hi)
        if _is_prime(p):
            return p


def _coeff_text(c):
    return " ".join(map(str, c))


def _field_argv(rng, p, f):
    op = rng.choice(("add", "sub", "mul", "neg", "inv", "pow"))
    a = _elements(rng, p, f, 1, nonzero=(op == "inv"))[0]
    argv = ["field", "--p", str(p), "--f", str(f), "--op", op, "--a", _coeff_text(a)]
    if op in ("add", "sub", "mul"):
        argv += ["--b", _coeff_text(_elements(rng, p, f, 1)[0])]
    elif op == "pow":
        argv += ["--b", str(rng.randint(0, 10 ** 6))]
    return argv


def _cli_fields(rng):
    """Fresh fields: no (p, f) repeats within a pass.  The first prime is
    drawn near 2^20: the peak memory of a pass is set by its largest prime
    field (the element iterator materialises range(p)), and this keeps it
    the same from seed to seed."""
    seen, out = set(), []
    bands = ((1, MAX_CLI_FIELD - 2 ** 12, MAX_CLI_FIELD),) + CLI_PRIME_BANDS
    for k, lo, hi in bands:
        drawn = 0
        while drawn < k:
            p = _random_prime(rng, lo, hi)
            if p not in seen:
                seen.add(p)
                out.append(_field_argv(rng, p, 1))
                drawn += 1
    for exts in (CLI_EXT_CHEAP, CLI_EXT_DEAR):
        out += [_field_argv(rng, p, f) for p, f in rng.sample(exts, 4)]
    return out


_DEGREE = {"sym": 1, "alt": 1, "dihedral": 1, "cyclic": 1, "dicyclic": 4}


def _named_group(name, n, extra, rng):
    argv = ["group", "--name", name, "--n", str(n)]
    if extra == "contains":
        degree = n + 1 if name in ("psl2", "pgl2") else n * _DEGREE[name]
        perm = _perm(rng, min(degree, 6))
        argv += ["--contains", "[" + " ".join(map(str, perm)) + "]"]
    elif extra != "none":
        argv.append("--" + extra)
    return argv


def _cheap_group_argv(rng):
    """Under 4.5 ms."""
    name, n = rng.choice((("cyclic", rng.randint(2, 20)), ("dihedral", rng.randint(3, 21)),
                          ("dicyclic", rng.randint(2, 6)), ("alt", rng.randint(4, 5)),
                          ("sym", rng.randint(3, 5)), ("psl2", rng.choice((4, 5, 7))),
                          ("pgl2", rng.choice((4, 5)))))
    return _named_group(name, n, rng.choice(("histogram", "contains", "none")), rng)


def _random_group_argv(rng):
    """About 7 ms: a transitive group of degree 8 and a membership test."""
    gens = ";".join("[" + " ".join(map(str, g)) + "]" for g in _transitive_pair(rng, 8))
    cyc = " ".join(map(str, rng.sample(range(8), rng.randint(2, 8))))
    return ["group", "--gens", gens, "--contains", f"({cyc})"]


def _report_group_argv(rng):
    """10-15 ms."""
    name, n = rng.choice((("sym", 5), ("alt", 5), ("psl2", rng.choice((4, 5))),
                          ("pgl2", rng.choice((4, 5))), ("dicyclic", rng.randint(9, 12)),
                          ("dihedral", rng.randint(23, 28))))
    return _named_group(name, n, "report", rng)


def _dear_group_argv(rng):
    """25-40 ms for a report, 6-11 ms for a histogram."""
    if rng.random() < 0.5:
        name, n = rng.choice((("sym", 6), ("alt", 6), ("psl2", 9), ("pgl2", 7)))
        return _named_group(name, n, "report", rng)
    name, n = rng.choice((("sym", 6), ("psl2", rng.choice((8, 9, 11))),
                          ("pgl2", rng.choice((8, 9)))))
    return _named_group(name, n, "histogram", rng)


_FAMILIES = ("GL", "SL", "PSL", "PSp", "PSU", "G2", "2B2")


def _orders_argv(rng):
    fam = rng.choice(_FAMILIES)
    if fam == "2B2":
        return ["orders", "--family", fam, "--q", str(2 ** rng.choice((3, 5, 7, 9)))]
    if fam == "G2":
        return ["orders", "--family", fam, "--q", str(rng.choice((3, 4, 5, 7, 8, 9)))]
    if fam == "PSU":
        q0 = rng.choice((2, 3, 4, 5, 7))
        return ["orders", "--family", fam, "--n", str(rng.randint(3, 6)),
                "--q", str(q0 * q0)]
    q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27))
    # PSp only at n = 2: other ranks hit the known defect, which the
    # known-defect share asks for exactly once a pass
    n = 2 if fam == "PSp" else rng.randint(2, 6)
    return ["orders", "--family", fam, "--n", str(n), "--q", str(q)]


def _chartab_argv(rng, cost):
    """Under 5 ms, 11-15 ms or 27-35 ms."""
    name, n = rng.choice({
        "cheap": (("cyclic", rng.randint(2, 4)), ("dihedral", rng.randint(3, 4)), ("sym", 3)),
        "mid": (("dihedral", rng.randint(7, 8)), ("cyclic", 9), ("sym", 4),
                ("dicyclic", rng.randint(3, 4))),
        "dear": (("dihedral", rng.randint(11, 12)), ("alt", 5), ("dicyclic", 6)),
    }[cost])
    return ["chartab", "--name", name, "--n", str(n)]


def _zoo_argv(rng, kind):
    """partitions and cyclic automorphisms under 3.5 ms; dihedral
    automorphisms and holomorphs 10-15 ms."""
    if kind == "partitions":
        return ["zoo", "--partitions", str(rng.randint(1, 300))]
    if kind == "aut-cyclic":
        return ["zoo", "--aut", "cyclic", "--n", str(rng.randint(2, 8))]
    if kind == "aut-dihedral":
        return ["zoo", "--aut", "dihedral", "--n", str(rng.randint(8, 10))]
    return ["zoo", "--holomorph", "cyclic", "--n", str(rng.choice((20, 21, 22, 24)))]


def _invalid_argvs(rng):
    """One input of each kind the documented contract answers with exit 2
    or 3; the seed draws their arguments."""
    return [
        (["orders", "--family", "PSL", "--n", "2", "--q", str(rng.choice((6, 10, 12, 15)))], 2),
        (["orders", "--family", "Q9", "--n", "2", "--q", "5"], 2),
        (["census", "--bound", str(rng.randint(10 ** 7 + 1, 10 ** 9))], 3),
        (["group", "--name", "nosuchgroup", "--n", "3"], 2),
        (["field", "--p", str(rng.choice((4, 6, 9, 15))), "--op", "neg", "--a", "1"], 2),
        (["field", "--p", "2", "--f", str(rng.randint(21, 40))], 3),
        (["chartab", "--name", "sym", "--n", str(rng.randint(6, 7))], 3),
        (["moonshine", "--delta", str(rng.randint(10 ** 4 + 1, 10 ** 5))], 3),
        (["field", "--f", "2"], 2),
        (["nosuchcommand"], 2),
    ]


def _known_defects(rng):
    """One input for each known defect, with the exits the documented
    contract allows.  Today each exits 70 or answers wrongly.  The last is
    the PSp order formula, which divides by gcd(n, q-1) where the order
    of PSp_2n(q) has gcd(2, q-1)."""
    p = rng.choice((5, 7, 11, 13))
    return [
        (["group", "--gens", rng.choice(("(0 1", "(0 x)", "(1 2 3"))], [2]),
        (["field", "--p", str(p), "--op", "add", "--a", "1",
          "--b", rng.choice(("x", "1.5", "one"))], [2]),
        (["field", "--p", str(p), "--op", "inv", "--a", "0"], [2]),
        (["group", "--name", "psl2", "--n", str(rng.choice((6, 10, 12, 14, 15)))], [2]),
        (["zoo", "--partitions", str(rng.randint(1000, 3000))], [0, 3]),
        (["leech", "--theta-terms", "0"], [0, 2]),
        (["orders", "--family", "PSp", "--n", "3", "--q", str(rng.choice((3, 5, 9, 11)))], [0]),
    ]


def _cli(rng):
    fields = [{"argv": a, "expect": [0]} for a in _cli_fields(rng)]
    argvs = [_cheap_group_argv(rng) for _ in range(8)]
    argvs += [_random_group_argv(rng) for _ in range(2)]
    argvs += [_report_group_argv(rng) for _ in range(4)]
    argvs += [_dear_group_argv(rng) for _ in range(2)]
    argvs += [_zoo_argv(rng, kind) for kind in ("partitions", "partitions", "aut-cyclic",
                                                "aut-cyclic", "aut-dihedral", "aut-dihedral",
                                                "holomorph", "holomorph")]
    argvs.append(["zoo", "--catalog"])
    argvs += [_chartab_argv(rng, cost) for cost in ("cheap", "cheap", "mid", "mid",
                                                    "dear", "dear")]
    argvs += [_orders_argv(rng) for _ in range(30)]
    argvs += [["census", "--bound", str(rng.randint(lo, hi))]
              + (["--with-primes"] if primes else []) for lo, hi, primes in CENSUS_STRATA]
    argvs += [["golay", "--generators"], ["golay", "--steiner", "--fast"], ["golay", "--steiner"]]
    argvs += [["leech", "--theta-terms", str(rng.randint(1, 60))] for _ in range(3)]
    argvs += [["moonshine", "--j", str(rng.randint(1, 40))] for _ in range(2)]
    argvs += [["moonshine", "--cube-root", str(rng.randint(1, 30))] for _ in range(2)]
    argvs += [["moonshine", "--delta", str(rng.randint(1, 100))],
              ["moonshine", "--delta", str(rng.randint(250, 300))],
              ["moonshine", "--monster"], ["moonshine", "--identities"],
              ["moonshine", "--sum-squares"]]
    argvs += [["algebra", "--probe", "H", "--samples", str(rng.randint(20, 30))]
              for _ in range(2)]
    argvs.append(["algebra", "--probe", "O", "--samples", str(rng.randint(20, 25))])
    argvs += [["sporadic"], ["sporadic"]]
    reqs = fields[1:] + [{"argv": a, "expect": [0]} for a in argvs]
    reqs += [{"argv": a, "expect": [e]} for a, e in _invalid_argvs(rng)]
    reqs += [{"argv": a, "expect": e, "defect": True} for a, e in _known_defects(rng)]
    if rng.random() < 0.5:
        reqs.append({"argv": ["--format", "text", "sporadic"], "expect": [0],
                     "text": True})
    else:
        reqs.append({"argv": ["--format", "text", "orders", "--family", "PSL",
                              "--n", "2", "--q", "7"], "expect": [0], "text": True})
    rng.shuffle(reqs)
    # the field near 2^20 first: what it allocates is freed before the
    # other requests build up their heap, so the peak does not depend on
    # where the shuffle would have put it
    return fields[:1] + reqs


_GENERATORS = {"fields": _fields, "groups": _groups, "lattice": _lattice, "cli": _cli}


def generate(workload, seed):
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
