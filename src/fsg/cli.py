"""Command-line front end: every capability behind one subcommand tree,
with machine-readable JSON output (stable key order, big integers as
decimal strings) or a plain text rendering.

Exit codes: 0 success, 2 validation/usage error, 3 resource-bound
refusal, 70 internal defect, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import InternalDefectError, ResourceLimitError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DEFECT = 70
EXIT_PIPE = 141         # 128 + SIGPIPE, as a shell reports a killed producer


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in sorted(payload.items()):
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}{v}")
    else:
        print(f"{pad}{payload}")


def _parse_ints(text, flag):
    if text is None:
        raise ValidationError(f"this operation needs {flag}")
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ValidationError(f"{flag} takes integers, got {text!r}") from None


def _cmd_field(args):
    from .fields import frobenius_orbit, make_field, multiplicative_generator
    F = make_field(args.p, args.f)
    out = {"p": F.p, "f": F.f, "q": F.q,
           "modulus_low_to_high": list(F.modulus),
           "multiplicative_generator": list(multiplicative_generator(F).coeffs)}
    if args.op:
        a = F.element(_parse_ints(args.a, "--a"))
        b = None
        if args.op in ("add", "sub", "mul"):
            b = F.element(_parse_ints(args.b, "--b"))
        elif args.op == "pow":
            b = _parse_ints(args.b, "--b")
            if len(b) != 1:
                raise ValidationError(f"--b takes one integer exponent, got {args.b!r}")
            b = b[0]
        try:
            op = getattr(F, args.op)
            r = op(a) if b is None else op(a, b)
        except ZeroDivisionError as exc:
            raise ValidationError(str(exc)) from None
        out["op"] = {"name": args.op, "a": list(a.coeffs),
                     "b": args.b, "result": list(r.coeffs)}
    if args.frobenius_orbit is not None:
        a = F.element(_parse_ints(args.frobenius_orbit, "--frobenius-orbit"))
        out["frobenius_orbit"] = [list(x.coeffs) for x in frobenius_orbit(F, a)]
    return out


def _cmd_group(args):
    from .perms import (Permutation, conjugacy_classes, element_order_histogram,
                        group_from_generators, is_simple, structure_report,
                        transitivity_degree)
    from .zoo import construct_named
    if args.degree is not None and args.degree < 0:
        raise ValidationError("--degree takes n >= 0")
    if args.gens:
        perms = [Permutation.parse(t, degree=args.degree or 0)
                 for t in args.gens.split(";")]
        degree = max([p.degree for p in perms] + [args.degree or 0])
        perms = [Permutation(list(p.images) + list(range(p.degree, degree)))
                 for p in perms]
        G = group_from_generators(degree, perms)
    elif args.name:
        G = construct_named(args.name.lower(), args.n)
    else:
        raise ValidationError("give --name or --gens")
    out = {"degree": G.degree, "order": str(G.order()),
           "generators": [g.cycle_string() for g in G.generators]}
    if args.report:
        data = conjugacy_classes(G)
        center, derived, ab, perfect = structure_report(G)
        k, sharp = transitivity_degree(G)
        out.update({
            "classes": data.as_dict(),
            "simple": is_simple(G),
            "center_order": center,
            "derived_order": derived,
            "abelianization_order": ab,
            "perfect": perfect,
            "transitivity": {"k": k, "sharp": sharp},
            "orbits": G.orbits(),
        })
    if args.histogram:
        h = element_order_histogram(G)
        out["element_order_histogram"] = {str(k): v for k, v in sorted(h.items())}
    if args.contains is not None:
        out["contains"] = Permutation.parse(args.contains, degree=G.degree) in G
    return out


def _cmd_zoo(args):
    from .zoo import (automorphism_group, construct_named, count_abelian_groups,
                      holomorph, partition_count, small_group_catalog)
    if args.catalog:
        return {"entries": [e.as_dict() for e in small_group_catalog()]}
    if args.partitions is not None:
        n = args.partitions
        if n < 1:       # n is also the order of the abelian groups counted
            raise ValidationError(f"--partitions takes n >= 1, got {n}")
        return {"n": n, "partition_count": str(partition_count(n)),
                "abelian_groups_of_order_n": str(count_abelian_groups(n))}
    if args.aut:
        G = construct_named(args.aut.lower(), args.n)
        _, a, i, o = automorphism_group(G)
        return {"group": args.aut, "aut_order": a, "inn_order": i, "out_order": o}
    if args.holomorph:
        G = construct_named(args.holomorph.lower(), args.n)
        H = holomorph(G)
        return {"group": args.holomorph, "holomorph_order": str(H.order()),
                "degree": H.degree}
    raise ValidationError("give --catalog, --partitions, --aut or --holomorph")


def _cmd_chartab(args):
    from .characters import character_table
    from .zoo import construct_named
    G = construct_named(args.name.lower(), args.n)
    table = character_table(G)
    out = table.to_jsonable()
    ints = table.as_integer_matrix()
    if all(v is not None for row in ints for v in row):
        out["integer_table"] = ints
    out["column_orthogonality"] = True   # characters._verify_table checked it, or raised
    return out


def _cmd_orders(args):
    from .matgroups import FamilyOrderQuery, order_formula
    query = FamilyOrderQuery(args.family, args.q, args.n or 0)
    return order_formula(query).as_dict()


def _cmd_census(args):
    from .matgroups import census_table, simple_census
    entries = (census_table if args.with_primes else simple_census)(args.bound)
    return {"bound": args.bound, "count": len(entries),
            "entries": [e.as_dict() for e in entries]}


def _cmd_golay(args):
    from .golay import build_golay, mathieu_m24, octad_steiner_check
    code = build_golay()
    out = {"length": code.length, "dimension": code.dimension,
           "weight_distribution": {str(k): v for k, v in
                                   sorted(code.weight_distribution().items())},
           "self_dual": code.is_self_dual()}
    if args.generators:
        out["generators_hex"] = [f"{g:06x}" for g in code.generators]
    if args.steiner:
        out["steiner"] = octad_steiner_check(code, exhaustive=not args.fast)
    if args.mathieu:
        out["mathieu"] = mathieu_m24().as_dict()
    return out


def _cmd_leech(args):
    from .leech import (kissing_number_consistency, leech_minimal_vectors,
                        norm6_dodecad_lower_bound)
    if args.theta_terms is not None:
        from .moonshine import leech_theta_prefix
        th = leech_theta_prefix(args.theta_terms)
        return {"theta_coefficients_by_norm": {
            str(2 * m): str(th.coeff(m)) for m in range(args.theta_terms + 1)}}
    counts = leech_minimal_vectors()
    out = {"shapes": [c.as_dict() for c in counts],
           "kissing_number": sum(c.count for c in counts),
           "theta_match": kissing_number_consistency(counts)}
    if args.norm6:
        out["norm6_dodecad_term"] = norm6_dodecad_lower_bound()
    return out


def _cmd_moonshine(args):
    from .moonshine import (delta_expansion, j_cube_root, j_expansion,
                            monster_constant_checks, monster_order,
                            moonshine_decompositions, sum_of_squares_check)
    for n, series, first, key in (
            (args.j, j_expansion, -1, "j_coefficients_from_q^-1"),
            (args.delta, delta_expansion, 1, "delta_coefficients_from_q^1"),
            (args.cube_root, j_cube_root, 0, "j_cube_root_coefficients_from_q^0")):
        if n is not None:
            return {key: list(map(str, series(n).coeff_range(first, n)))}
    if args.identities:
        checks = moonshine_decompositions() + monster_constant_checks()
        return {"identities": [
            {"identity": c["identity"], "pass": c["pass"]} for c in checks],
            "all_pass": all(c["pass"] for c in checks)}
    if args.monster:
        return {"monster_order": (order := str(monster_order())), "digits": len(order)}
    if args.sum_squares:
        return sum_of_squares_check()
    raise ValidationError(
        "give one of --j N, --delta N, --cube-root N, --identities, "
        "--monster, --sum-squares")


def _cmd_algebra(args):
    from .division import associativity_probe
    return associativity_probe(args.probe, args.samples)


def _cmd_sporadic(args):
    from .sporadic import sporadic_table
    return {"count": 26,
            "entries": [e.as_dict() for e in sporadic_table()]}


def _cmd_verify_all(args):
    from .verify import acceptance_checks
    results = acceptance_checks()
    passed = sum(r["passed"] for r in results)
    if args.format == "json":
        _emit({"checks": results, "passed": passed, "total": len(results)}, "json")
    else:
        width = max(len(r["name"]) for r in results)
        for r in results:
            status = "pass" if r["passed"] else "FAIL"
            print(f"{r['name']:<{width}}  {status}  ({r['seconds']:.2f}s)  {r['detail']}")
        print(f"{passed}/{len(results)} checks passed")
    return None if passed == len(results) else EXIT_DEFECT


@functools.cache
def build_parser():
    """The fsg parser, built on the first call and shared after it; a
    caller must not mutate it."""
    p = argparse.ArgumentParser(
        prog="fsg",
        description="exact computation with finite simple groups, codes, "
                    "lattices and moonshine series")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("field", help="finite field arithmetic")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--f", type=int, default=1)
    f.add_argument("--op", choices=("add", "sub", "mul", "neg", "inv", "pow"))
    f.add_argument("--a")
    f.add_argument("--b")
    f.add_argument("--frobenius-orbit", dest="frobenius_orbit")
    f.set_defaults(fn=_cmd_field)

    g = sub.add_parser("group", help="permutation-group queries")
    g.add_argument("--name")
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--gens", help="semicolon-separated cycle notation")
    g.add_argument("--degree", type=int)
    g.add_argument("--report", action="store_true")
    g.add_argument("--histogram", action="store_true")
    g.add_argument("--contains")
    g.set_defaults(fn=_cmd_group)

    z = sub.add_parser("zoo", help="named groups, catalog, counting")
    z.add_argument("--catalog", action="store_true")
    z.add_argument("--partitions", type=int)
    z.add_argument("--aut")
    z.add_argument("--holomorph")
    z.add_argument("--n", type=int, default=0)
    z.set_defaults(fn=_cmd_zoo)

    c = sub.add_parser("chartab", help="character tables")
    c.add_argument("--name", required=True)
    c.add_argument("--n", type=int, default=0)
    c.set_defaults(fn=_cmd_chartab)

    o = sub.add_parser("orders", help="Lie-family order formulas")
    o.add_argument("--family", required=True)
    o.add_argument("--n", type=int)
    o.add_argument("--q", type=int, required=True)
    o.set_defaults(fn=_cmd_orders)

    ce = sub.add_parser("census", help="simple groups up to a bound")
    ce.add_argument("--bound", type=int, default=10000)
    ce.add_argument("--with-primes", action="store_true", dest="with_primes")
    ce.set_defaults(fn=_cmd_census)

    go = sub.add_parser("golay", help="the [24,12,8] code and M24")
    go.add_argument("--generators", action="store_true")
    go.add_argument("--steiner", action="store_true")
    go.add_argument("--fast", action="store_true",
                    help="counting Steiner check only")
    go.add_argument("--mathieu", action="store_true")
    go.set_defaults(fn=_cmd_golay)

    le = sub.add_parser("leech", help="minimal-vector census")
    le.add_argument("--theta-terms", type=int, dest="theta_terms")
    le.add_argument("--norm6", action="store_true")
    le.set_defaults(fn=_cmd_leech)

    mo = sub.add_parser("moonshine", help="q-series and identities")
    for flag in ("--j", "--delta", "--cube-root"):
        mo.add_argument(flag, type=int)
    for flag in ("--identities", "--monster", "--sum-squares"):
        mo.add_argument(flag, action="store_true")
    mo.set_defaults(fn=_cmd_moonshine)

    al = sub.add_parser("algebra", help="quaternion/octonion probes")
    al.add_argument("--probe", choices=("H", "O"), required=True)
    al.add_argument("--samples", type=int, default=100)
    al.set_defaults(fn=_cmd_algebra)

    sp = sub.add_parser("sporadic", help="the 26 sporadic orders")
    sp.set_defaults(fn=_cmd_sporadic)

    va = sub.add_parser("verify-all", help="run the acceptance suite")
    va.set_defaults(fn=_cmd_verify_all)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.fn(args)
        if payload is not None and not isinstance(payload, int):
            _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: devnull takes the rest, so exit's flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except Exception as exc:  # noqa: BLE001 - defect contract
        print(f"internal defect: {exc!r}", file=sys.stderr)
        return EXIT_DEFECT
    return payload if isinstance(payload, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
