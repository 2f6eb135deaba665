"""CLI surface: output shape, determinism, exit-status contract."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from fsg import cli
from fsg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_orders_psl43(capsys):
    payload = run_json(capsys, "orders", "--family", "PSL", "--n", "4", "--q", "3")
    assert payload["order"] == "6065280"
    assert payload["family"] == "PSL"


def test_orders_validation_exit_2(capsys):
    code, _, err = run(capsys, "orders", "--family", "2G2", "--q", "9")
    assert code == 2
    assert "3^(2m+1)" in err


def test_moonshine_j(capsys):
    payload = run_json(capsys, "moonshine", "--j", "3")
    assert payload["j_coefficients_from_q^-1"] == [
        "1", "744", "196884", "21493760", "864299970"]


def test_moonshine_identities(capsys):
    payload = run_json(capsys, "moonshine", "--identities")
    assert payload["all_pass"]


def test_group_report_alt5(capsys):
    payload = run_json(capsys, "group", "--name", "alt", "--n", "5", "--report")
    assert payload["order"] == "60"
    assert payload["simple"] is True
    assert payload["classes"]["class_sizes"] == [1, 15, 20, 12, 12]


def test_group_from_cycles(capsys):
    payload = run_json(capsys, "group", "--gens", "(0 1);(0 1 2 3)", "--report")
    assert payload["order"] == "24"


def test_group_contains(capsys):
    payload = run_json(capsys, "group", "--name", "alt", "--n", "4",
                       "--contains", "(0 1)")
    assert payload["contains"] is False


def test_group_contains_empty_and_short_image_list(capsys):
    # the empty text is the identity, which every group contains
    payload = run_json(capsys, "group", "--gens", "(0 1)", "--contains", "")
    assert payload["contains"] is True
    # an image list shorter than the degree is padded with fixed points
    payload = run_json(capsys, "group", "--gens", "(0 1);(2 3)", "--contains", "[1 0]")
    assert payload["degree"] == 4 and payload["contains"] is True
    payload = run_json(capsys, "group", "--gens", "(0 1 2 3)", "--contains", "[1 0]")
    assert payload["contains"] is False


def test_field_command(capsys):
    payload = run_json(capsys, "field", "--p", "2", "--f", "2",
                       "--op", "mul", "--a", "0 1", "--b", "0 1")
    assert payload["q"] == 4
    assert payload["op"]["result"] == [1, 1]   # t*t = 1 + t


def test_field_op_calls_the_field_method(capsys):
    from fsg.fields import make_field
    F = make_field(5)
    a, b = F.element(2), F.element(4)
    expected = {"add": F.add(a, b), "sub": F.sub(a, b), "mul": F.mul(a, b),
                "pow": F.pow(a, 4), "neg": F.neg(a), "inv": F.inv(a)}
    assert [x.coeffs for x in expected.values()] == [(1,), (3,), (3,), (1,), (3,), (3,)]
    for op, want in expected.items():
        payload = run_json(capsys, "field", "--p", "5", "--op", op, "--a", "2", "--b", "4")
        assert payload["op"]["result"] == list(want.coeffs), op
    with pytest.raises(SystemExit) as exc:
        main(["field", "--p", "5", "--op", "sqrt", "--a", "2"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_field_bad_prime_exit_2(capsys):
    code, _, err = run(capsys, "field", "--p", "9")
    assert code == 2 and "not prime" in err


def test_field_resource_exit_3(capsys):
    code, _, err = run(capsys, "field", "--p", "2", "--f", "40")
    assert code == 3
    # refused before 3^(10^9) is computed
    code, _, err = run(capsys, "field", "--p", "3", "--f", str(10 ** 9))
    assert code == 3 and "3^1000000000" in err


@pytest.mark.parametrize("argv", [
    "orders --family PSL --n 95 --q 3",          # 4306 digits
    "orders --family PSL --n 10000 --q 3",
    "orders --family POmega_even_plus --n 1000000000 --q 2",
    "orders --family E8 --q " + str(2 ** 4000),
    "orders --family PSL --n 2 --q 1000000000000000003",
    "field --p 1000000000000000003",
])
def test_orders_and_field_refuse_up_front(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 3 and out == ""
    assert "fixed" in err and ("4300" in err or "1000000" in err), err


@pytest.mark.parametrize("argv", [
    "--p 7 --op inv --a 0",
    "--p 7 --op pow --a 0 --b -1",
    "--p 7 --op add --a 1",
    "--p 7 --op mul --b 1",
    "--p 7 --op pow --a 2",
    "--p 5 --op add --a 1 --b 1.5",
    "--p 5 --op sub --a x --b 1",
    "--p 5 --op pow --a 2 --b 1,2",
    "--p 3 --f 2 --frobenius-orbit one",
    "--p -5",
])
def test_field_bad_input_exit_2(capsys, argv):
    code, out, err = run(capsys, "field", *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal defect" not in err


def test_census_command(capsys):
    payload = run_json(capsys, "census", "--bound", "1000")
    assert payload["count"] == 5
    assert payload["entries"][0]["order"] == "60"


def test_golay_fast(capsys):
    payload = run_json(capsys, "golay", "--steiner", "--fast")
    assert payload["weight_distribution"] == {
        "0": 1, "8": 759, "12": 2576, "16": 759, "24": 1}
    assert payload["steiner"]["octad_count"] == 759


def test_sporadic_command(capsys):
    payload = run_json(capsys, "sporadic")
    assert payload["count"] == 26
    assert payload["entries"][0]["symbol"] == "M11"


def test_algebra_probe(capsys):
    payload = run_json(capsys, "algebra", "--probe", "O", "--samples", "5")
    assert payload["alternative"] is True


def test_chartab(capsys):
    payload = run_json(capsys, "chartab", "--name", "sym", "--n", "4")
    assert payload["degrees"] == [1, 1, 2, 3, 3]
    assert payload["column_orthogonality"] is True


def test_zoo_partitions(capsys):
    payload = run_json(capsys, "zoo", "--partitions", "10")
    assert payload["partition_count"] == "42"


def test_json_round_trip_stability(capsys):
    code, first, _ = run(capsys, "orders", "--family", "G2", "--q", "2")
    code, second, _ = run(capsys, "orders", "--family", "G2", "--q", "2")
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == first.strip()


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text", "zoo", "--partitions", "8")
    assert code == 0
    assert "partition_count: 22" in out


def test_projective_named_groups(capsys):
    payload = run_json(capsys, "group", "--name", "psl2", "--n", "7", "--report")
    assert payload["order"] == "168"
    assert payload["simple"] is True
    payload = run_json(capsys, "group", "--name", "pgl2", "--n", "9")
    assert payload["order"] == "720"
    for q in ("6", "1"):
        code, out, err = run(capsys, "group", "--name", "psl2", "--n", q)
        assert (code, out) == (2, "")
        assert "not a prime power" in err and "Traceback" not in err


def test_zoo_aut_and_holomorph(capsys):
    payload = run_json(capsys, "zoo", "--aut", "quaternion")
    assert (payload["aut_order"], payload["out_order"]) == (24, 6)
    payload = run_json(capsys, "zoo", "--holomorph", "v")
    assert payload["holomorph_order"] == "24"


def test_leech_theta_via_cli(capsys):
    payload = run_json(capsys, "leech", "--theta-terms", "3")
    assert payload["theta_coefficients_by_norm"]["4"] == "196560"
    payload = run_json(capsys, "leech", "--theta-terms", "0")
    assert payload == {"theta_coefficients_by_norm": {"0": "1"}}
    code, out, err = run(capsys, "leech", "--theta-terms", "-1")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, lowest, message", [
    (["moonshine", "--j"], -1, "the j expansion needs num_terms >= -1"),
    (["moonshine", "--cube-root"], 0, "the cube root needs num_terms >= 0"),
    (["moonshine", "--delta"], 1, "the delta expansion needs num_terms >= 1"),
    (["leech", "--theta-terms"], 0, "the theta prefix needs num_terms >= 0"),
])
def test_series_term_count_lower_rule(capsys, argv, lowest, message):
    # the lowest count lists exactly the series' first term; below it, exit 2
    # with the series' own rule, however far below
    [first_only] = run_json(capsys, *argv, str(lowest)).values()
    assert len(first_only) == 1
    for count in (lowest - 1, lowest - 2, -10 ** 6):
        code, out, err = run(capsys, *argv, str(count))
        assert (code, out, err) == (2, "", f"error: {message}\n"), count


def test_degree_pads_the_generators_and_refuses_a_negative_value(capsys):
    # --degree pads to at least that many points, and a value below what the
    # generators need is widened; a negative one used to exit 0 as degree 6
    for degree, expected in (("0", 6), ("3", 6), ("6", 6), ("9", 9)):
        payload = run_json(capsys, "group", "--gens", "(0 5)", "--degree", degree)
        assert (payload["degree"], payload["order"]) == (expected, "2"), degree
    for degree in ("-1", "-5"):
        for argv in (["--gens", "(0 5)"], ["--name", "sym", "--n", "3"]):
            code, out, err = run(capsys, "group", *argv, "--degree", degree)
            assert (code, out, err) == (2, "", "error: --degree takes n >= 0\n"), argv


@pytest.mark.parametrize("flag", ["--gens", "--contains"])
def test_malformed_cycle_notation_exit_2(capsys, flag):
    for text in ("(0 1", "(0 x)", "[1, x]"):
        code, out, err = run(capsys, "group", "--name", "sym", "--n", "3", flag, text)
        assert code == 2 and out == "", text
        assert err.startswith("error: cannot parse permutation"), err


def test_zoo_partitions_bound(capsys):
    payload = run_json(capsys, "zoo", "--partitions", "3000")
    assert payload["partition_count"].startswith("4960251427975371844")
    code, out, err = run(capsys, "zoo", "--partitions", "5001")
    assert code == 3 and out == "" and "fixed bound" in err
    code, out, err = run(capsys, "zoo", "--partitions", "-1")
    assert code == 2 and out == "" and "--partitions takes n >= 1" in err


def test_permutation_degree_bound(capsys):
    from fsg.perms import PARSE_DEGREE_BOUND
    top = PARSE_DEGREE_BOUND - 1
    payload = run_json(capsys, "group", "--gens", f"(0 {top})")
    assert payload["degree"] == PARSE_DEGREE_BOUND and payload["order"] == "2"
    for argv in (["--gens", f"(0 {top + 1})"], ["--gens", "[1 0]", "--degree", str(top + 2)],
                 ["--gens", "(0 " + "9" * 5000 + ")"]):
        code, out, err = run(capsys, "group", *argv)
        assert code == 3 and out == "" and "fixed" in err, argv


@pytest.mark.parametrize("name", ["sym", "cyclic", "clifford"])
@pytest.mark.parametrize("n", [10 ** 20, 100_001])
def test_named_group_degree_bound(capsys, name, n):
    # the degree is worked out from the parameter before anything is built:
    # sym at 10**20 used to exit 70 with OverflowError, and at 10**8 it was
    # killed while allocating 10**8-point permutations
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "--name", name, "--n", str(n))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "fixed permutation degree bound 100000" in err, err


def test_named_group_degree_bound_counts_the_action_points(capsys):
    # clifford(16) acts on 2^17 points although its parameter is small
    code, out, err = run(capsys, "group", "--name", "clifford", "--n", "16")
    assert code == 3 and out == "" and "fixed" in err
    assert run_json(capsys, "group", "--name", "clifford", "--n", "3")["degree"] == 16


def test_report_on_a_sparse_high_degree_group(capsys):
    # orbits are one pass over the points: at degree 5000 this took 20 s
    # (2-core x86) when each orbit was found by a min() over the points left
    # and got a stabilizer chain of its own
    start = time.perf_counter()
    payload = run_json(capsys, "group", "--gens", "(0 4999)", "--report")
    assert time.perf_counter() - start < 2
    assert payload["order"] == "2" and payload["simple"] is True
    assert payload["orbits"] == [[0, 4999]] + [[x] for x in range(1, 4999)]


# One argv per resource bound the CLI can reach, and what its refusal names:
# the setting that moves the bound, or that the bound is fixed.
BOUND_ARGV = [
    (["group", "--name", "sym", "--n", "10", "--report"], "FSG_ENUMERATION_BOUND"),
    (["field", "--p", "2", "--f", "21"], "FSG_MAX_FIELD_SIZE"),
    (["field", "--p", "1000000000000000003"], "fixed"),         # trial division
    (["group", "--gens", "(0 100000)"], "fixed"),               # permutation degree
    (["group", "--name", "psl3", "--n", "89"], "fixed"),        # projective points
    (["chartab", "--name", "sym", "--n", "6"], "fixed"),        # character tables
    (["zoo", "--aut", "sym", "--n", "5"], "fixed"),             # automorphisms
    (["zoo", "--partitions", "5001"], "fixed"),
    (["orders", "--family", "PSL", "--n", "10000", "--q", "2"], "fixed"),
    (["census", "--bound", "10000001"], "fixed"),
    (["moonshine", "--delta", "10001"], "fixed"),
    (["moonshine", "--j", "1001"], "fixed"),
    (["moonshine", "--cube-root", "1001"], "fixed"),
    (["leech", "--theta-terms", "1001"], "fixed"),
    (["group", "--name", "sym", "--n", "100001"], "fixed"),     # named-group degree
    (["group", "--name", "cyclic", "--n", "100000"], "fixed"),  # chain images
    (["group", "--name", "clifford", "--n", "15"], "fixed"),    # chain images, up front
    (["algebra", "--probe", "O", "--samples", "1001"], "fixed"),
]


@pytest.mark.parametrize("argv, names", BOUND_ARGV, ids=[" ".join(a) for a, _ in BOUND_ARGV])
def test_every_refusal_names_its_setting_or_says_fixed(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and names in err, err


# Each q-series flag at its documented bound, which finishes within a budget
# of at least 5x its time on a 2-core x86 (delta 1.0 s, j 0.6 s, cube root
# 1.2 s, theta 0.7 s, partitions 0.2 s), and one past it, which is refused
# with that flag's own bound.  At 10^4 terms delta took 21 s with five
# squarings, and theta's 1000 terms were refused by the j it asked for.
SERIES_BOUNDS = [
    (["moonshine", "--delta"], 10 ** 4, 5, "delta expansion capped at the fixed bound of 10000"),
    (["moonshine", "--j"], 1000, 3, "j expansion capped at the fixed bound of 1000"),
    (["moonshine", "--cube-root"], 1000, 6, "cube root capped at the fixed bound of 1000"),
    (["leech", "--theta-terms"], 1000, 4, "theta prefix capped at the fixed bound of 1000"),
    (["zoo", "--partitions"], 5000, 1, "partition counts stop at the fixed bound n = 5000"),
]


@pytest.mark.parametrize("argv, bound, budget, refusal", SERIES_BOUNDS,
                         ids=[a[-1] for a, *_ in SERIES_BOUNDS])
def test_series_bound_sweep(capsys, argv, bound, budget, refusal):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, str(bound))
    assert time.perf_counter() - start < budget
    assert code == 0 and err == "" and out
    code, out, err = run(capsys, *argv, str(bound + 1))
    assert (code, out) == (3, "") and refusal in err and "Traceback" not in err, err


def test_chain_image_bound_refuses_in_bounded_time(capsys):
    # a 100,000-cycle used not to finish in 60 s, and clifford(15) ran out
    # of memory with exit 70
    for n, name in ((100000, "cyclic"), (15, "clifford")):
        start = time.perf_counter()
        code, _, err = run(capsys, "group", "--name", name, "--n", str(n))
        assert code == 3 and "fixed" in err
        assert time.perf_counter() - start < 2


def test_large_alternating_groups_are_refused_in_bounded_time(capsys):
    # A_300's chain passes the image bound; the deterministic pass ran for
    # more than 5 min before reaching it, and chartab built A_100 (about 40 s)
    # before checking its order bound
    for argv, budget in ((("group", "--name", "alt", "--n", "300"), 30),
                         (("chartab", "--name", "alt", "--n", "100"), 3)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "fixed" in err, argv
        assert time.perf_counter() - start < budget, argv


def test_enumeration_setting_caps_character_tables(capsys, monkeypatch):
    monkeypatch.setenv("FSG_ENUMERATION_BOUND", "100")
    for argv in (["chartab", "--name", "sym", "--n", "5"],
                 ["group", "--name", "sym", "--n", "5", "--report"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "FSG_ENUMERATION_BOUND" in err, argv
    assert run_json(capsys, "chartab", "--name", "sym", "--n", "4")["group_order"] == "24"


# zoo --aut at each named family's largest member of order <= 64, and
# zoo --holomorph at those that are abelian.  Each finishes within a budget
# of at least 5x its time on a 2-core x86 (dihedral 32 and dicyclic 16 about
# 0.4 s, the rest under 0.1 s) or is refused with exit 3 by a fixed bound;
# without the candidate bound, clifford 5 did not finish.  The largest
# members that finish, clifford 4 and clifford_even 5 (1,760,000 candidates,
# about 6 s each), stay out of tier-1.  psl3 and pgl3 have no member of
# order <= 64.
AUT_SWEEP = [
    (["--aut", "cyclic", "--n", "64"], 0, 1),
    (["--aut", "dihedral", "--n", "32"], 0, 3),
    (["--aut", "dicyclic", "--n", "16"], 0, 3),
    (["--aut", "clifford", "--n", "5"], 3, 2),
    (["--aut", "clifford_even", "--n", "6"], 3, 2),
    (["--aut", "symmetric", "--n", "4"], 0, 1),
    (["--aut", "alternating", "--n", "5"], 0, 1),
    (["--aut", "vierergruppe"], 0, 1),
    (["--aut", "quaternion"], 0, 1),
    (["--aut", "frobenius21"], 0, 1),
    (["--aut", "psl2", "--n", "5"], 0, 1),
    (["--aut", "pgl2", "--n", "4"], 0, 1),
    (["--holomorph", "cyclic", "--n", "64"], 0, 1),
    (["--holomorph", "vierergruppe"], 0, 1),
]


@pytest.mark.parametrize("argv, expected, budget", AUT_SWEEP,
                         ids=[" ".join(a) for a, *_ in AUT_SWEEP])
def test_automorphism_bound_sweep(capsys, argv, expected, budget):
    start = time.perf_counter()
    code, out, err = run(capsys, "zoo", *argv)
    assert time.perf_counter() - start < budget
    assert "Traceback" not in err
    if expected == 0:
        assert code == 0 and err == "" and json.loads(out)
    else:
        assert (code, out) == (3, "") and "fixed bound of 2000000" in err, err


def test_character_tables_ignore_the_field_size_setting(capsys, monkeypatch):
    # D_50 lifts over F_101; its root of unity comes from the prime field's
    # primitive root without make_field, which would refuse 101 here
    from fsg.characters import _lifting_prime
    from fsg.errors import ResourceLimitError
    from fsg.fields import make_field
    assert _lifting_prime(50, 100) == 101
    argv = ("chartab", "--name", "dihedral", "--n", "50")
    monkeypatch.delenv("FSG_MAX_FIELD_SIZE", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("FSG_MAX_FIELD_SIZE", "100")
    with pytest.raises(ResourceLimitError):
        make_field(101)
    assert run(capsys, *argv) == unset and unset[0] == 0


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("argv", [["sporadic"],
                                  ["chartab", "--name", "dihedral", "--n", "50"]])
def test_closed_stdout_exits_141_quietly(argv):
    # 141 = 128 + SIGPIPE, what a shell reports for a producer the signal kills
    write_end = _closed_pipe()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        done = subprocess.run([sys.executable, "-m", "fsg.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_closed_stdout_during_verify_all(capsys, monkeypatch):
    import fsg.verify
    monkeypatch.setattr(fsg.verify, "acceptance_checks", lambda: [
        {"name": "stub", "passed": True, "seconds": 0.0, "detail": "x" * 100}])
    write_end = _closed_pipe()
    stdout = os.fdopen(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["verify-all"]) == 141
    finally:
        monkeypatch.undo()
        stdout.close()
    assert capsys.readouterr().err == ""


STUB_CHECKS = [{"name": "order law", "passed": True, "detail": "exact", "seconds": 0.25},
               {"name": "census", "passed": False, "detail": "5 != 6", "seconds": 1.5}]


@pytest.mark.parametrize("checks, code", [(STUB_CHECKS[:1], 0), (STUB_CHECKS, 70)])
def test_verify_all_prints_one_json_object_by_default(capsys, monkeypatch, checks, code):
    import fsg.verify
    monkeypatch.setattr(fsg.verify, "acceptance_checks", lambda: checks)
    got, out, err = run(capsys, "verify-all")
    assert (got, err) == (code, "")
    assert json.loads(out) == {"checks": checks, "passed": 1, "total": len(checks)}
    assert run(capsys, "--format", "json", "verify-all") == (got, out, err)


@pytest.mark.parametrize("checks, code", [(STUB_CHECKS[:1], 0), (STUB_CHECKS, 70)])
def test_verify_all_prints_its_table_under_format_text(capsys, monkeypatch, checks, code):
    import fsg.verify
    monkeypatch.setattr(fsg.verify, "acceptance_checks", lambda: checks)
    table = ["order law  pass  (0.25s)  exact", "census     FAIL  (1.50s)  5 != 6"]
    if code == 0:
        table = ["order law  pass  (0.25s)  exact"]
    got, out, err = run(capsys, "--format", "text", "verify-all")
    assert (got, err) == (code, "")
    assert out == "\n".join(table + [f"1/{len(checks)} checks passed"]) + "\n"


def test_closed_stdout_during_verify_all_text(capsys, monkeypatch):
    import fsg.verify
    monkeypatch.setattr(fsg.verify, "acceptance_checks", lambda: STUB_CHECKS)
    write_end = _closed_pipe()
    stdout = os.fdopen(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["--format", "text", "verify-all"]) == 141
    finally:
        monkeypatch.undo()
        stdout.close()
    assert capsys.readouterr().err == ""


PARSER_SEQUENCE = [
    ("orders", "--family", "PSL", "--n", "4", "--q", "3"),
    ("census", "--bound", "10000", "--with-primes"),
    ("group", "--name", "alt", "--n", "5", "--report"),
    ("field", "--p", "2", "--f", "2", "--op", "mul", "--a", "0 1", "--b", "0 1"),
    ("chartab", "--name", "sym", "--n", "4"),
    ("zoo", "--partitions", "10"),
    ("golay", "--steiner", "--mathieu"),
    ("leech", "--norm6"),
    ("moonshine", "--j", "3"),
    ("algebra", "--probe", "O", "--samples", "100"),
    ("sporadic",),
    ("--format", "text", "zoo", "--partitions", "10"),
    ("orders", "--family", "2G2", "--q", "9"),         # ValidationError, exit 2
    ("moonshine", "--delta", "100000"),                # ResourceLimitError, exit 3
    ("orders", "--family", "PSL", "--q", "x"),         # argparse rejects it
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_alike(capsys):
    """The parser is built once per process, and a call's stdout, stderr
    and exit code do not depend on the calls that used it before."""
    assert cli.build_parser() is cli.build_parser()
    forward = {argv: _outcome(capsys, argv) for argv in PARSER_SEQUENCE}
    backward = {argv: _outcome(capsys, argv) for argv in reversed(PARSER_SEQUENCE)}
    assert forward == backward
    assert [forward[argv][0] for argv in PARSER_SEQUENCE[-4:]] == [0, 2, 3, 2]
    assert "invalid int value: 'x'" in forward[PARSER_SEQUENCE[-1]][2]


@pytest.mark.parametrize("argv, golden", [
    (["--help"], "help-fsg.txt"),
    (["group", "--help"], "help-group.txt"),
])
def test_help_text_is_unchanged(capsys, monkeypatch, argv, golden):
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(capsys, argv) == (
        0, (GOLDEN / golden).read_text(), "")
