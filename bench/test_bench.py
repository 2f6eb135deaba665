"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

import json
import re

import pytest

import inputs
import oracle
import run


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    one = json.dumps(inputs.generate(workload, 7))
    assert one == json.dumps(inputs.generate(workload, 7))
    assert one != json.dumps(inputs.generate(workload, 8))


def test_passes_draw_the_same_number_from_each_stratum():
    for seed in range(5):
        qs = [r["p"] ** r["f"] for r in inputs.generate("fields", seed)]
        assert [sum(q in sizes for q in qs) for _, sizes in inputs.FIELD_STRATA] == \
            [k for k, _ in inputs.FIELD_STRATA]
        assert len(inputs.generate("groups", seed)) == 16


def test_the_seed_changes_the_argv_but_not_the_mix_of_a_cli_pass():
    def mix(seed):
        return sorted(r["argv"][0] for r in inputs.generate("cli", seed) if not r.get("text"))
    assert mix(1) == mix(2) == mix(3)


def test_random_groups_are_transitive():
    for seed in range(40):
        for spec in inputs.generate("groups", seed):
            if spec["kind"] == "random":
                gens = [tuple(g) for g in spec["gens"]]
                assert oracle.orbits(gens, spec["n"]) == [list(range(spec["n"]))]


def test_cli_mix_covers_every_subcommand_and_each_known_defect():
    reqs = inputs.generate("cli", 3)
    subs = {r["argv"][2] if r["argv"][0] == "--format" else r["argv"][0] for r in reqs}
    assert set(run.SUBCOMMANDS) <= subs
    assert sum(1 for r in reqs if r.get("defect")) == 7


def test_field_oracle_flags_a_corrupted_answer():
    req = {"p": 2, "f": 3}
    assert oracle.field_modulus(2, 3) == (1, 0, 1, 1)      # 1 + t^2 + t^3
    inv_t = oracle.field_op(2, 3, "inv", [0, 1, 0], None)
    assert oracle.field_op(2, 3, "mul", [0, 1, 0], inv_t) == [1, 0, 0]
    good = {"modulus": [1, 0, 1, 1], "generator": [0, 0, 1], "gen_order": 7,
            "frob_order": 3, "violations": 0, "inverses": [[[0, 1, 0], inv_t]]}
    assert oracle.check_field(req, good) == []
    for key, bad in (("modulus", [1, 1, 0, 1]), ("generator", [0, 1, 0]),
                     ("inverses", [[[0, 1, 0], [1, 1, 0]]]), ("violations", 1)):
        assert oracle.check_field(req, dict(good, **{key: bad}))


def test_group_oracle_flags_a_corrupted_answer():
    spec = {"kind": "symmetric", "n": 3, "degree": 3, "words": [[0, 1]],
            "nonmembers": [[1, 0, 2]]}
    gens = [[1, 0, 2], [1, 2, 0]]
    elements = sorted(oracle.closure([tuple(g) for g in gens], 3))
    index = {g: i for i, g in enumerate(elements)}
    good = {"order": "6", "degree": 3, "gens": gens, "contains": [True, True],
            "orbits": [[0, 1, 2]], "transitivity": [3, True], "derived_order": 3,
            "classes": [[1, 1], [2, 3], [3, 2]],
            "histogram": {"1": 1, "2": 3, "3": 2}, "center_order": 1, "simple": False,
            "character_table": {"degrees": [1, 1, 2], "class_sizes": [1, 3, 2], "exponent": 6,
                                "values": [[[1, 0, 0, 0, 0, 0]] * 3,
                                           [[1, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0],
                                            [1, 0, 0, 0, 0, 0]],
                                           [[2, 0, 0, 0, 0, 0], [0] * 6,
                                            [-1, 0, 0, 0, 0, 0]]]},
            "cayley_digest": oracle.digest(index[oracle.compose(a, b)]
                                           for a in elements for b in elements)}
    assert oracle.check_group(spec, good) == []
    for key, bad in (("order", "12"), ("contains", [True, False]), ("center_order", 2),
                     ("cayley_digest", "0"), ("simple", True)):
        assert oracle.check_group(spec, dict(good, **{key: bad}))


def test_series_oracle_knows_the_j_coefficients():
    assert oracle.series("j_expansion", 2) == [1, 744, 196884, 21493760]
    assert oracle.series("leech_theta_prefix", 3)[:3] == [1, 0, 196560]
    assert oracle.series("delta_expansion", 3) == [1, -24, 252]


def test_lattice_and_cli_oracles_flag_corrupted_answers():
    shapes = [dict(s) for s in oracle.LEECH_SHAPES]
    assert oracle.check_lattice({"op": "leech_minimal_vectors"}, shapes, None) == []
    shapes[1]["count"] += 1
    assert oracle.check_lattice({"op": "leech_minimal_vectors"}, shapes, None)
    req = {"argv": ["orders", "--family", "PSL", "--n", "2", "--q", "7"], "expect": [0]}
    ans = {"exit": 0, "traceback": False,
           "stdout": '{"exceptions":[],"family":"PSL","n":2,"order":"168","q":7}\n'}
    assert oracle.check_cli(req, ans) == []
    assert oracle.check_cli(req, dict(ans, stdout=ans["stdout"].replace("168", "336")))
    assert oracle.check_cli(req, dict(ans, exit=70))


def test_metric_names_and_counts_fit_the_contract():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_the_run_reports_exactly_the_metrics_benchmark_json_lists():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    result = {"ns": 1_000_000, "answer": None, "maxrss_kb": 1024}
    passes = [{"traced": t, "spans": [], "counts": {}, "failed": {}, "maxrss_kb": 1024,
               "results": [result] * 11} for t in (False, True)]
    e2e, _ = run.end_to_end("fields", passes, 22, 0, 0, [0.1])
    layers = run.per_layer("fields", [{}] * 11, passes)
    for listed, got in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert {(m["name"], m["unit"]) for m in listed} == \
            {(name, unit) for name, (_, unit) in got.items()}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = run._tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == 90.0
    assert run._tail(list(range(10)))[0] is None
