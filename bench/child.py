"""Serve one pass of a workload in a fresh interpreter.

Reads {"workload", "trace", "requests"} as JSON on stdin, calls fsg
through the public functions of its modules, one request after the
other, and writes one JSON object to stdout: when the imports were
done, each request's latency and answer, the spans and counters of a
traced pass, and the peak resident set size.  The answers are checked
by the parent, outside the timed region.

    PYTHONPATH=src python3 bench/child.py < pass.json
"""

from time import monotonic_ns

import fsg  # noqa: F401  (setup time covers the package and every layer)
from fsg import (cayley, characters, cli, division, fields, golay, leech,  # noqa: F401
                 matgroups, moonshine, perms, sporadic, zoo)

READY_NS = monotonic_ns()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from spans import Recorder  # noqa: E402

ENUMERATION_LIMIT = perms.EXHAUSTIVE_CLASS_BOUND   # exhaustive class census only
SMALL_GROUP_LIMIT = characters.CHARACTER_BOUND


def digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


# ------------------------------------------------------------------ fields


def serve_fields(rec, req):
    p, f = req["p"], req["f"]
    F = rec.call("fields.make_field", fields.make_field, p, f)
    g = rec.call("fields.multiplicative_generator", fields.multiplicative_generator, F)
    gen_order = rec.call("fields.element_multiplicative_order",
                         fields.element_multiplicative_order, F, g)
    frob_order = rec.call("fields.frobenius_order", fields.frobenius_order, F)
    q, bad = F.q, 0
    add, mul = F.add, F.mul
    with rec.span("fields.arith"):
        els = list(F.elements())
        frob = {a: F.frobenius(a) for a in els}
        for a in els:
            fa = frob[a]
            for b in els:
                s, m = add(a, b), mul(a, b)
                if s != add(b, a) or m != mul(b, a):
                    bad += 1
                if frob[s] != add(fa, frob[b]) or frob[m] != mul(fa, frob[b]):
                    bad += 1
        probes = [F.one(), g, mul(g, g)] + [F.element(c) for c in req["probes"]]
        for a in els:
            for b in probes[1:]:
                ab, apb = mul(a, b), add(a, b)
                for c in probes:
                    if mul(ab, c) != mul(a, mul(b, c)):
                        bad += 1
                    if mul(c, apb) != add(mul(c, a), mul(c, b)):
                        bad += 1
    # 3 sums and 3 products per pair; per probe pair 2, then 7 per probe c
    rec.count("fields.arith_ops", 6 * q * q + q * (len(probes) - 1) * (2 + 7 * len(probes)))
    with rec.span("fields.inverse"):
        one, inverses = F.one(), {}
        for a in els[1:]:
            ia = F.inv(a)
            if mul(a, ia) != one:
                bad += 1
            inverses[a.coeffs] = list(ia.coeffs)
    rec.count("fields.inverses", q - 1)
    return {"modulus": list(F.modulus), "generator": list(g.coeffs),
            "gen_order": gen_order, "frob_order": frob_order, "violations": bad,
            "inverses": [[c, inverses[tuple(c)]] for c in req["inverse_sample"]]}


# ------------------------------------------------------------------ groups


def _construct(rec, spec):
    kind = spec["kind"]
    if kind == "random":
        return None
    if kind == "projective":
        F = rec.call("fields.make_field", fields.make_field, *spec["pf"])
        return rec.call("matgroups.projective_action", matgroups.projective_action,
                        spec["variant"], spec["dim"], F)
    if kind == "semidirect":
        return rec.call("zoo.nonabelian_pq_group", zoo.nonabelian_pq_group, *spec["pq"])
    if kind == "holomorph":
        A = rec.call("zoo.cyclic", zoo.cyclic, spec["n"])
        return rec.call("zoo.holomorph", zoo.holomorph, A)
    return rec.call(f"zoo.{kind}", getattr(zoo, kind), spec["n"])


def _word(gens, word):
    g = gens[word[0] % len(gens)]
    for w in word[1:]:
        g = g * gens[w % len(gens)]
    return g


def serve_group(rec, spec):
    named = _construct(rec, spec)
    if named is None:
        degree, gens = spec["n"], [perms.Permutation(g) for g in spec["gens"]]
    else:
        degree, gens = named.degree, list(named.generators)
    # the write side: a chain for the generators as given
    G = rec.call("perms.group_from_generators", perms.group_from_generators, degree, gens)
    rec.count("perms.chain_orbit_points", sum(G.basic_orbit_sizes()))
    order = G.order()
    gens = list(G.generators)
    with rec.span("perms.products"):
        members = [_word(gens, w) for w in spec["words"]]
        others = [perms.Permutation(x) for x in spec["nonmembers"]]
        commutators = [a * b * a.inverse() * b.inverse()
                       for i, a in enumerate(gens) for b in gens[i + 1:]]
    with rec.span("perms.sift"):
        flags = [g in G for g in members + others]
    rec.count("perms.sifts", len(flags))
    out = {"order": str(order), "degree": degree,
           "gens": [list(g.images) for g in gens], "contains": flags,
           "orbits": rec.call("perms.orbits", G.orbits),
           "transitivity": list(rec.call("perms.transitivity_degree",
                                         perms.transitivity_degree, G))}
    if order > ENUMERATION_LIMIT:
        return out
    closure = (rec.call("perms.normal_closure", perms.normal_closure, G, commutators)
               if commutators else None)
    out["derived_order"] = closure.order() if closure else 1
    data = rec.call("perms.conjugacy_classes", perms.conjugacy_classes, G)
    out["classes"] = sorted([s, o] for s, o in zip(data.class_sizes, data.class_rep_orders))
    hist = rec.call("perms.element_order_histogram", perms.element_order_histogram, G)
    rec.count("perms.enumerated_elements", order)
    out["histogram"] = {str(k): v for k, v in sorted(hist.items())}
    out["center_order"] = rec.call("perms.center_order", perms.center_order, G)
    out["simple"] = rec.call("perms.is_simple", perms.is_simple, G)
    if order > SMALL_GROUP_LIMIT:
        return out
    table = rec.call("characters.character_table", characters.character_table, G)
    rec.count("characters.tables")
    out["character_table"] = {
        "degrees": list(table.degrees), "class_sizes": list(table.class_sizes),
        "exponent": table.exponent, "values": [[list(v) for v in row] for row in table.values]}
    cs = rec.call("cayley.CayleyStructure", cayley.CayleyStructure, G)
    rec.count("cayley.entries", cs.n * cs.n)
    out["cayley_digest"] = digest(x for row in cs.table for x in row)
    return out


# ----------------------------------------------------------------- lattice


def serve_lattice(rec, req, state):
    """state carries the code and M24 chain from earlier requests of the pass."""
    op = req["op"]
    if op == "build_golay":
        with rec.span("golay.build_golay"):
            code = state["code"] = golay.build_golay()
            return {"dimension": code.dimension, "self_dual": code.is_self_dual(),
                    "weights": {str(k): v for k, v in
                                sorted(code.weight_distribution().items())}}
    if op == "octad_steiner_check":
        return rec.call("golay.octad_steiner_check", golay.octad_steiner_check,
                        state["code"], exhaustive=True)
    if op == "mathieu_m24":
        chain = state["m24"] = rec.call("golay.mathieu_m24", golay.mathieu_m24)
        out = chain.as_dict()
        out["gens"] = [list(g.images) for g in chain.group.generators]
        return out
    if op == "m24_sifts":
        G = state["m24"].group
        gens = list(G.generators)
        with rec.span("perms.products"):
            members = [_word(gens, w) for w in req["words"]]
            others = [perms.Permutation(x) for x in req["nonmembers"]]
        with rec.span("perms.sift"):
            flags = [g in G for g in members + others]
        rec.count("perms.sifts", len(flags))
        return {"contains": flags}
    if op == "leech_minimal_vectors":
        counts = rec.call("leech.leech_minimal_vectors", leech.leech_minimal_vectors)
        rec.count("leech.vectors_checked", LEECH_CANDIDATES)
        return [c.as_dict() for c in counts]
    if op == "kissing_number_consistency":
        rec.count("leech.vectors_checked", LEECH_CANDIDATES)
        return rec.call("leech.kissing_number_consistency", leech.kissing_number_consistency)
    if op == "norm6_dodecad_lower_bound":
        rec.count("leech.vectors_checked", 4096)
        return rec.call("leech.norm6_dodecad_lower_bound", leech.norm6_dodecad_lower_bound)
    n = req["n"]
    series = rec.call(f"moonshine.{op}", getattr(moonshine, op), n)
    coeffs = series.coeff_range(SERIES_FIRST[op], n)
    rec.count("moonshine.coeffs", len(coeffs))
    return {"digest": digest(coeffs), "head": [str(c) for c in coeffs[:4]]}


# The documented first power of each series; every request asks through q^n.
SERIES_FIRST = {"delta_expansion": 1, "eisenstein_e4": 0, "j_expansion": -1,
                "j_cube_root": 0, "leech_theta_prefix": 0}


# Candidate vectors one minimal-vector census tests: 4 sign pairs on each
# of the C(24,2) coordinate pairs, 2^8 signs on each of the 759 octads,
# and the 4096 * 24 shifted codeword patterns of squared length 32.
LEECH_CANDIDATES = 4 * 276 + 759 * 256 + 4096 * 24


# --------------------------------------------------------------------- cli


def serve_cli(rec, req):
    out, err = io.StringIO(), io.StringIO()
    argv = req["argv"]
    sub = argv[2] if argv[:1] == ["--format"] and len(argv) > 2 else argv[0]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with rec.span(f"cli.{sub}"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:     # argparse rejects the argv
                code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "traceback": "Traceback" in err.getvalue()}


# -------------------------------------------------------------------- main


def main():
    job = json.load(sys.stdin)
    rec = Recorder(job["trace"])
    workload, state = job["workload"], {}
    results = []
    for rid, req in enumerate(job["requests"]):
        rec.request = rid
        # garbage left by earlier requests is collected here, untimed, so a
        # request's time does not depend on where the seed put it in the pass
        gc.collect()
        t0 = monotonic_ns()
        try:
            with rec.span("request"):
                if workload == "fields":
                    answer = serve_fields(rec, req)
                elif workload == "groups":
                    answer = serve_group(rec, req)
                elif workload == "lattice":
                    answer = serve_lattice(rec, req, state)
                else:
                    answer = serve_cli(rec, req)
            error = None
        except Exception as exc:  # noqa: BLE001 - an unexpected raise is a failed request
            answer, error = None, repr(exc)
        results.append({"ns": monotonic_ns() - t0, "answer": answer, "error": error})
    json.dump({"ready_ns": READY_NS, "fsg": fsg.__file__, "results": results, "spans": rec.spans,
               "counts": rec.counts, "failed": rec.failed,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
              sys.stdout, default=str)


if __name__ == "__main__":
    main()
