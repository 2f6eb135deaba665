"""The fsg benchmark.

    python3 bench/run.py --workload fields --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 1

Run from the root of a checkout.  One run makes a pass of requests from
the seed (bench/inputs.py), then serves that pass again and again, each
time in a fresh child interpreter (bench/child.py), one request after
the other, until --seconds have passed.  Module-level caches start empty
in every pass, as they do for a user of the command line, and fill
within the pass, as they do for a user of the library.  After the timed
region every answer is checked by bench/oracle.py, which does not use
fsg.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
# No pass starts after this many seconds, so that a run ends within
# 180 s even when a change makes the program many times slower.
RUN_CAP_S = 100
SETUP_SAMPLES = 11
# Passes a run serves at least, even past --seconds.  Each request's
# latency is its mean over the passes, so more passes give steadier
# figures; the counts here also weigh each request in the tail percentile
# (see end_to_end).
MIN_PASSES = {"fields": 6, "groups": 6, "lattice": 6, "cli": 3}
LAYERS = ("fields", "perms", "cayley", "zoo", "characters", "matgroups", "golay",
          "leech", "moonshine", "division", "sporadic", "cli")
SUBCOMMANDS = ("field", "group", "zoo", "chartab", "orders", "census", "golay",
               "leech", "moonshine", "algebra", "sporadic")


class PassFailed(Exception):
    pass


def serve(workload, requests, trace):
    """One pass in a fresh interpreter; adds its set-up time."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("FSG_ENUMERATION_BOUND", "FSG_MAX_FIELD_SIZE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    job = json.dumps({"workload": workload, "trace": trace, "requests": requests})
    start = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")], input=job,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass did not finish within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    if not Path(out["fsg"]).resolve().is_relative_to(SRC.resolve()):
        raise PassFailed(f"child imported fsg from {out['fsg']}, not from {SRC}")
    out["setup_s"] = (out["ready_ns"] - start) / 1e9
    out["traced"] = trace
    return out


def check(workload, requests, passes):
    """Count failed requests and known-defect contract violations; the
    oracle runs once per distinct answer."""
    memo, failed, violations, problems = {}, 0, 0, []
    m24_gens = None
    for p in passes:
        for i, (req, res) in enumerate(zip(requests, p["results"])):
            if res["error"] is not None:
                probs = [f"raised {res['error']}"]
            else:
                key = (i, json.dumps(res["answer"], sort_keys=True))
                if key not in memo:
                    memo[key] = _oracle(workload, req, res["answer"], m24_gens)
                probs = memo[key]
                if workload == "lattice" and req["op"] == "mathieu_m24":
                    m24_gens = tuple(map(tuple, res["answer"].get("gens", ())))
            res["problems"] = probs
            if not probs:
                continue
            if req.get("defect"):
                violations += 1
            else:
                failed += 1
                problems.append(f"request {i} {_describe(req)}: {'; '.join(probs)[:300]}")
    return failed, violations, problems


def _oracle(workload, req, answer, m24_gens):
    answer = json.loads(json.dumps(answer))   # the checkers may edit their copy
    try:
        if workload == "fields":
            return oracle.check_field(req, answer)
        if workload == "groups":
            return oracle.check_group(req, answer)
        if workload == "lattice":
            return oracle.check_lattice(req, answer, m24_gens)
        return oracle.check_cli(req, answer)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"answer is malformed: {exc!r}"]


def _describe(req):
    if "argv" in req:
        return " ".join(req["argv"])
    return json.dumps({k: v for k, v in req.items()
                       if k not in ("words", "nonmembers", "gens", "probes", "inverse_sample")})


# ---------------------------------------------------------------- metrics


def _tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return None, None, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, passes, attempted, failed, violations, setups):
    """A request's latency in a run is its mean over the untraced passes.
    Other tenants of the machine switch its speed between two levels about
    1.5x apart, for spans of a second to a minute.  The mean moves smoothly
    with the share of the run spent at each level, where the fastest or the
    median pass jumps from one level to the other."""
    plain = [p for p in passes if not p["traced"]]
    lat = [statistics.fmean(ns) / 1e6
           for ns in zip(*([r["ns"] for r in p["results"]] for p in plain))]
    # each request counts MIN_PASSES times, so the tail percentile names the
    # same request whatever number of passes the run reached
    tail, pct, _ = _tail(lat * MIN_PASSES[workload])
    metrics = {
        "run_s": (sum(lat) / 1e3, "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] / 1024 for p in plain), "MB"),
        "ok_ratio": (1 - (failed + violations) / attempted, "ratio"),
    }
    weight = f"{len(lat)} requests x {MIN_PASSES[workload]}"
    notes = {"latency_tail_ms": f"p{pct:.1f} of {weight}" if tail is not None else
             f"omitted: {weight}",
             "ok_ratio": f"failed_ratio {(failed + violations) / attempted:.4f} "
                         f"({failed} failed + {violations} known-defect violations "
                         f"of {attempted})"}
    return metrics, notes


def per_layer(workload, requests, passes):
    traced = [p for p in passes if p["traced"]]
    k = len(traced)
    total = {}            # span name -> seconds over the traced passes
    durations = {}        # span name -> list of single durations
    layer_calls, layer_self = dict.fromkeys(LAYERS, 0), dict.fromkeys(LAYERS, 0.0)
    layer_failed = dict.fromkeys(LAYERS, 0)
    counts = {}
    request_s = 0.0
    for p in traced:
        spans = p["spans"]
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            dur = (end - start) / 1e9
            total[name] = total.get(name, 0.0) + dur
            durations.setdefault(name, []).append(dur)
            layer = name.split(".", 1)[0]
            if name == "request":
                request_s += dur
            elif layer in layer_calls:
                layer_calls[layer] += 1
                layer_self[layer] += own / 1e9
        for name, v in p["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for layer, v in p["failed"].items():
            layer_failed[layer] = layer_failed.get(layer, 0) + v

    def s(*names):
        return sum(total.get(n, 0.0) for n in names) / k

    def c(name):
        return counts.get(name, 0) / k

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    def p50(name, scale):
        xs = durations.get(name)
        return statistics.median(xs) * scale if xs else 0.0

    census_entries = sum(json.loads(r["answer"]["stdout"])["count"]
                         for p in traced for req, r in zip(requests, p["results"])
                         if r["answer"] and req.get("argv", [""])[0] == "census"
                         and r["answer"]["exit"] == 0) / k if workload == "cli" else 0
    exits = {}
    violations = 0
    for p in traced:
        for req, r in zip(requests, p["results"]):
            if workload == "cli" and r["answer"] is not None:
                exits[r["answer"]["exit"]] = exits.get(r["answer"]["exit"], 0) + 1
            if req.get("defect") and r.get("problems"):
                violations += 1
    zoo_build = [n for n in total if n.startswith("zoo.") and n != "zoo.holomorph"]
    m = {
        "fields.arith_ops": (c("fields.arith_ops"), "count"),
        "fields.arith_s": (s("fields.arith"), "s"),
        "fields.arith_ns_per_op": (ratio(s("fields.arith"), c("fields.arith_ops"), 1e9), "ns"),
        "fields.make_field_s": (s("fields.make_field"), "s"),
        "fields.generator_s": (s("fields.multiplicative_generator"), "s"),
        "perms.chain_builds": (len(durations.get("perms.group_from_generators", ())) / k, "count"),
        "perms.chain_build_s": (s("perms.group_from_generators"), "s"),
        "perms.chain_orbit_points": (c("perms.chain_orbit_points"), "count"),
        "perms.sifts": (c("perms.sifts"), "count"),
        "perms.sift_us": (ratio(s("perms.sift"), c("perms.sifts"), 1e6), "us"),
        "perms.enumerated_elements": (c("perms.enumerated_elements"), "count"),
        "perms.enumerate_ns_per_element": (ratio(s("perms.element_order_histogram"),
                                                 c("perms.enumerated_elements"), 1e9), "ns"),
        "perms.class_census_s": (s("perms.conjugacy_classes"), "s"),
        "perms.normal_closure_s": (s("perms.normal_closure"), "s"),
        "characters.tables": (c("characters.tables"), "count"),
        "characters.table_s": (s("characters.character_table"), "s"),
        "cayley.entries": (c("cayley.entries"), "count"),
        "cayley.table_s": (s("cayley.CayleyStructure"), "s"),
        "zoo.construct_s": (s(*zoo_build), "s"),
        "zoo.automorphism_s": (s("zoo.holomorph"), "s"),
        "matgroups.census_s": (s("cli.census"), "s"),
        "matgroups.census_entries": (census_entries, "count"),
        "matgroups.order_formula_us": (p50("cli.orders", 1e6), "us"),
        "matgroups.projective_action_s": (s("matgroups.projective_action"), "s"),
        "golay.build_s": (s("golay.build_golay"), "s"),
        "golay.steiner_s": (s("golay.octad_steiner_check"), "s"),
        "golay.m24_s": (s("golay.mathieu_m24"), "s"),
        "leech.census_s": (s("leech.leech_minimal_vectors"), "s"),
        "leech.vectors_checked": (c("leech.vectors_checked"), "count"),
        "leech.theta_s": (s("leech.kissing_number_consistency",
                            "leech.norm6_dodecad_lower_bound"), "s"),
        "moonshine.series_s": (s(*[n for n in total if n.startswith("moonshine.")]), "s"),
        "moonshine.coeffs": (c("moonshine.coeffs"), "count"),
        "division.probe_s": (s("cli.algebra"), "s"),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = (p50(f"cli.{sub}", 1e3), "ms")
    for code in (0, 2, 3, 70):
        m[f"cli.exit_{code}"] = (exits.get(code, 0) / k, "count")
    m["cli.contract_violations"] = (violations / k, "count")
    for layer in LAYERS:
        m[f"{layer}.calls"] = (layer_calls[layer] / k, "count")
        m[f"{layer}.self_s"] = (layer_self[layer] / k, "s")
        m[f"{layer}.failed"] = (layer_failed[layer] / k, "count")
        m[f"{layer}.share"] = (layer_self[layer] / request_s if request_s else 0.0, "ratio")
    # each traced pass against the untraced pass just before it, so that
    # drift in the machine's speed over the run cancels
    m["trace_overhead_ratio"] = (statistics.median(
        _pass_s(t) / _pass_s(u) for u, t in zip(passes[::2], passes[1::2])), "ratio")
    return m


def _pass_s(p):
    return sum(r["ns"] for r in p["results"]) / 1e9


# ------------------------------------------------------------------- main


def run(workload, seed, seconds, trace):
    requests = inputs.generate(workload, seed)
    passes, error = [], None
    start = time.monotonic()
    floor = 2 if trace else 1       # a traced run needs an untraced and a traced pass
    while True:
        elapsed = time.monotonic() - start
        if len(passes) >= floor and (elapsed >= RUN_CAP_S or (
                elapsed >= seconds and len(passes) >= MIN_PASSES[workload])):
            break
        try:
            passes.append(serve(workload, requests, trace and len(passes) % 2 == 1))
        except PassFailed as exc:
            error = str(exc)
            break
    setups = [p["setup_s"] for p in passes]
    while error is None and len(setups) < SETUP_SAMPLES:
        try:
            setups.append(serve(workload, [], False)["setup_s"])
        except PassFailed as exc:
            error = str(exc)
    attempted = len(requests) * max(len(passes), 1)
    if error is not None:
        return {"correct": False, "attempted": attempted, "failed": attempted,
                "metrics": {}}, [f"error: {error}"]
    failed, violations, problems = check(workload, requests, passes)
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)} "
             f"({sum(p['traced'] for p in passes)} traced)  requests/pass {len(requests)}"]
    if trace:
        metrics = per_layer(workload, requests, passes)
    else:
        metrics, notes = end_to_end(workload, passes, attempted, failed, violations,
                                    setups)
    verdict = "correct" if failed == 0 else f"INCORRECT ({failed} failed)"
    for name, (value, unit) in metrics.items():
        note = "" if trace else "  " + notes.get(name, "")
        lines.append(f"  {workload:8s} {name:34s} {value:16.6f} {unit:6s} {verdict}{note}")
    if violations:
        lines.append(f"  {workload}: {violations} known-defect requests broke the exit "
                     "contract (counted in ok_ratio, not in failed)")
    lines += [f"  problem: {p}" for p in problems[:20]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items() if value is not None}}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fsg" / "__init__.py").is_file():
        print(f"error: no fsg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        result, lines = run(w, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[w] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
