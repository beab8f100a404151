import functools
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lowdeg import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_adv_fixture_matches_chi_square(capsys):
    code, out, _ = run_cli(["adv", "--model", "corr-er", "--n", "3", "--q", "1/3",
                            "--rho", "1/2", "--D", "3", "--exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["value_squared"]["numerator"] == 5
    assert payload["value_squared"]["denominator"] == 4
    # full degree reproduces the chi-square identity value
    code, out, _ = run_cli(["adv", "--model", "corr-er", "--n", "3", "--q", "1/3",
                            "--rho", "1/2", "--D", "6", "--exact"], capsys)
    payload = json.loads(out)
    assert (payload["value_squared"]["numerator"], payload["value_squared"]["denominator"]) == (85, 64)


def test_xi_table_has_two_entries(capsys):
    code, out, _ = run_cli(["xi", "--n", "6", "--k", "2", "--eps", "3/10",
                            "--lambda", "1", "--D", "3", "--exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["table"]) == 2  # the empty class and the 3-cycle
    assert payload["norm"] >= 1.0


def test_xi_past_the_class_budget_is_a_structured_error(capsys):
    # 7-edge leafless classes fit on 5 of the 6 vertices
    code, out, err = run_cli(["xi", "--n", "6", "--k", "2", "--eps", "3/10",
                              "--lambda", "1", "--D", "7"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "leafless class edges: requested 7, budget 6", "schema_version": 1,
                               "where": "certificate.leafless_classes", "requested": 7, "budget": 6}


def test_dual_check(capsys):
    code, out, _ = run_cli(["dual-check", "--n", "4", "--k", "2", "--eps", "1/5",
                            "--lambda", "1", "--delta", "1/100", "--D", "3", "--exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_exactly_zero"] is True
    assert payload["duality_holds"] is True


def test_dual_check_float_params_skip_duality(capsys):
    code, out, _ = run_cli(["dual-check", "--n", "4", "--k", "2", "--eps", "1/5",
                            "--lambda", "1", "--delta", "1/100", "--D", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] <= 1e-9
    assert "duality_holds" not in payload


def test_hidden_command(tmp_path, capsys):
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps({"outcomes": ["x", "y"], "null": ["1/2", "1/2"],
                                "alt": ["1/5", "4/5"]}), encoding="utf-8")
    code, out, _ = run_cli(["hidden", "--M", "4", "--base-spec", str(base_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_residual"] == 0.0
    assert payload["composite_value_squared"]["numerator"] == 109


def test_hidden_takes_the_base_advantage_once(tmp_path, capsys, monkeypatch):
    from lowdeg import advantage as adv

    calls = []
    kernel = adv.advantage_gram_schmidt

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(adv, "advantage_gram_schmidt", counting)
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps({"outcomes": ["x", "y"], "null": ["1/2", "1/2"],
                                     "alt": ["1/5", "4/5"]}), encoding="utf-8")
    assert run_cli(["hidden", "--M", "4", "--base-spec", str(base_file)], capsys)[0] == 0
    assert len(calls) == 1


def test_sample_outputs_and_determinism(tmp_path, capsys):
    args = ["sample", "--model", "corr-er", "--n", "6", "--q", "1/4", "--rho", "1/3",
            "--seed", "5", "--trials", "2", "--exact", "--out"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + [str(d1)], capsys)[0] == 0
    assert run_cli(args + [str(d2)], capsys)[0] == 0
    files1 = sorted(p.name for p in d1.iterdir())
    assert "trial0000_A.edges" in files1 and "trial0000_meta.json" in files1
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    meta = json.loads((d1 / "trial0000_meta.json").read_text())
    assert sorted(meta["pi_star"]) == list(range(6))
    header = (d1 / "trial0000_G.edges").read_text().splitlines()[0]
    assert header.startswith("6 ")


def test_sample_without_trials_is_a_structured_error(tmp_path, capsys):
    for trials in ("0", "-1"):
        code, out, err = run_cli(["sample", "--model", "er", "--n", "4", "--q", "1/2",
                                  "--trials", trials, "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "need at least one trial", "schema_version": 1}
    assert not (tmp_path / "out").exists()


def test_sample_modified_model(tmp_path, capsys):
    code, _, _ = run_cli(["sample", "--model", "mod-sbm", "--n", "8", "--lambda", "1",
                          "--k", "2", "--eps", "1/10", "--s", "1/2", "--D", "2",
                          "--delta", "1/100", "--N", "3", "--seed", "1", "--trials", "1",
                          "--exact", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "trial0000_Gprime.edges").exists()


def test_sample_block_model_writes_the_graph_and_its_labels(tmp_path, capsys):
    from lowdeg import graph_core as gc
    from lowdeg import models as md

    code, _, _ = run_cli(["sample", "--model", "sbm", "--n", "8", "--lambda", "3/2", "--k", "3",
                          "--eps", "1/10", "--seed", "4", "--exact", "--out", str(tmp_path)], capsys)
    assert code == 0
    params = md.ModelParams(n=8, lam=Fraction(3, 2), k=3, eps=Fraction(1, 10))
    sigma, graph = md.sample_sbm(params, 4)
    written = gc.read_edge_list((tmp_path / "trial0000_graph.edges").read_text(encoding="utf-8"))
    assert written.edges == graph.edges and written.n_vertices == 8
    meta = json.loads((tmp_path / "trial0000_meta.json").read_text(encoding="utf-8"))
    assert meta["sigma_star"] == list(sigma)
    assert len(meta["sigma_star"]) == 8 and set(meta["sigma_star"]) <= set(range(3))


def test_otter_command(capsys):
    code, out, _ = run_cli(["otter", "--max-n", "30"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"][:9] == [1, 1, 2, 4, 9, 20, 48, 115, 286]
    assert 0.33 < payload["estimate"] < 0.35


def test_bounds_audit_csv(tmp_path, capsys):
    out_csv = tmp_path / "audit.csv"
    code, out, _ = run_cli(["bounds-audit", "--suite", "P-sum", "--out", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "instance,lhs,rhs,slack,holds,regime"
    assert len(lines) == 3
    assert "." in lines[1].split(",")[1]  # decimal separator


def test_reduce_command(capsys):
    code, out, _ = run_cli(["reduce", "--model", "corr-er", "--estimator", "identity",
                            "--n", "8", "--q", "1/4", "--rho", "1/3", "--lambda-mix", "1/2",
                            "--trials", "10", "--seed", "2", "--exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert 0 <= payload["overlap_mean"] <= 1
    assert payload["classification"] in ("strong-detect candidate", "one-sided candidate", "powerless")


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_leaves_the_global_random_state_alone(capsys):
    state = random.getstate()
    code, _, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert random.getstate() == state


def test_error_paths(tmp_path, capsys):
    code, _, err = run_cli(["adv", "--model", "corr-er", "--n", "9", "--q", "1/3",
                            "--rho", "1/2", "--exact"], capsys)
    assert code == 2
    assert "error" in err
    with pytest.raises(SystemExit):
        cli.main(["adv", "--model", "corr-er", "--n", "3", "--condition", "nonsense"])


def test_condition_outside_the_vertex_range_is_a_structured_error(capsys):
    for cond in ("pi(0)=1", "pi(4)=1", "pi(1)=0", "pi(1)=4"):
        code, out, err = run_cli(["adv", "--model", "corr-er", "--n", "3", "--q", "1/3",
                                  "--rho", "1/2", "--D", "2", "--exact", "--condition", cond], capsys)
        assert code == 2 and out == ""
        assert "1 <= i, j <= n = 3" in json.loads(err)["error"]


def test_certificate_commands_without_lambda_are_structured_errors(capsys):
    for argv in (["xi", "--D", "3"], ["xi", "--D", "2"], ["dual-check", "--D", "3"]):
        code, out, err = run_cli([*argv, "--n", "4", "--k", "2", "--eps", "1/5", "--exact"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"].endswith("needs lam")


def test_reduce_rates_are_the_shares_of_the_printed_statistics(capsys):
    code, out, _ = run_cli(["reduce", "--model", "corr-er", "--estimator", "random", "--n", "4",
                            "--q", "1/2", "--rho", "1/2", "--trials", "40", "--seed", "3",
                            "--exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    null, alt = payload["statistic_under_null"], payload["statistic_under_alternative"]
    assert len(null) == len(alt) == 40
    assert payload["q_accept_rate"] == sum(x <= 0.5 for x in null) / 40
    assert payload["p_reject_rate"] == sum(x > 0.5 for x in alt) / 40


@pytest.mark.parametrize("estimator", ["identity", "greedy", "random"])
def test_reduce_planted_statistic_and_overlap_come_from_one_estimate(estimator, capsys):
    # per draw the planted statistic is (1 - lam) + lam * n * overlap
    code, out, _ = run_cli(["reduce", "--model", "corr-er", "--estimator", estimator,
                            "--n", "10", "--q", "1/4", "--rho", "1/3", "--lambda-mix", "1/2",
                            "--trials", "20", "--seed", "3", "--exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["planted_statistic_mean"] - (0.5 + 0.5 * 10 * payload["overlap_mean"])) <= 1e-12


def test_reduce_overlaps_describe_the_planted_draws_the_test_judges(capsys):
    from lowdeg import models as md
    from lowdeg import reduction as rd

    code, out, _ = run_cli(["reduce", "--model", "corr-er", "--estimator", "greedy", "--n", "8",
                            "--q", "1/4", "--rho", "1/3", "--trials", "6", "--seed", "5",
                            "--exact"], capsys)
    assert code == 0
    overlaps = json.loads(out)["overlaps"]
    params = md.ModelParams(n=8, q=Fraction(1, 4), rho=Fraction(1, 3))
    p_sampler, _ = rd.correlated_er_samplers(params)
    estimator = rd.ESTIMATORS["greedy"](5)
    for t, got in enumerate(overlaps):
        samp = md.sample_correlated_er(params, 2 * 5, t)
        assert p_sampler(2 * 5, t) == (samp.left, samp.right)
        assert got == float(rd.overlap(estimator(samp.left, samp.right), samp.pi_star)), t


def test_unparsable_probability_is_a_structured_error(capsys):
    for q in ("1/0", "abc"):
        for exact in (["--exact"], []):
            code, out, err = run_cli(["adv", "--model", "corr-er", "--n", "3", "--q", q,
                                      "--rho", "1/2", "--D", "2", *exact], capsys)
            assert code == 2 and out == ""
            assert set(json.loads(err)) == {"error", "schema_version"}


def test_hidden_weight_with_zero_denominator_is_a_structured_error(tmp_path, capsys):
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps({"outcomes": [0, 1], "null": ["1/2", "1/2"],
                                     "alt": ["1/0", "4/5"]}), encoding="utf-8")
    code, out, err = run_cli(["hidden", "--M", "2", "--base-spec", str(base_file)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "'1/0' has a zero denominator", "schema_version": 1}


def _params_file(tmp_path, **strings):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"n": 10 ** 140, "q": "1/4", "rho": "1/3", "D": 3,
                                "delta": "1/100", "N": 3, **strings}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("n,rows", [(2, 1), (3, 3)])
def test_bounds_audit_b1_below_four_vertices_audits_the_fixtures_that_fit(n, rows, tmp_path, capsys):
    path = tmp_path / "b1.json"
    path.write_text(json.dumps({"n": n, "q": "1/4", "rho": "1/3", "D": 2}), encoding="utf-8")
    code, out, _ = run_cli(["bounds-audit", "--suite", "B1", "--params", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == f"suite B1: {rows} audits, 0 failures" and len(lines) == rows + 1
    assert all(line.endswith(",True,event-vacuous") for line in lines[:-1])


def test_bounds_audit_param_with_zero_denominator_is_a_structured_error(tmp_path, capsys):
    code, out, err = run_cli(["bounds-audit", "--suite", "P-sum",
                              "--params", _params_file(tmp_path, q="1/0")], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "'1/0' has a zero denominator", "schema_version": 1}


def test_bounds_audit_params_read_decimal_strings_exactly(tmp_path, capsys):
    outs = []
    for strings in ({}, {"q": "0.25", "delta": "0.01"}):
        code, out, _ = run_cli(["bounds-audit", "--suite", "P-sum",
                                "--params", _params_file(tmp_path, **strings)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]



def test_malformed_condition_is_a_usage_error(capsys):
    for cond in ("x", "pi(x)=1", "pi(1)=1=3", "pi(1)junk=1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["adv", "--model", "corr-er", "--n", "3", "--q", "1/3", "--rho", "1/2",
                      "--exact", "--condition", cond])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.rstrip().endswith("error: --condition must look like 'pi(1)=1'")


def _raw_params_file(tmp_path, payload):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_bounds_audit_params_with_an_unknown_key_is_a_structured_error(tmp_path, capsys):
    code, out, err = run_cli(["bounds-audit", "--suite", "P-sum", "--params",
                              _raw_params_file(tmp_path, {"n": 10, "q": "1/4", "bogus": 1})], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--params file has unknown key(s) bogus", "schema_version": 1}


def test_bounds_audit_params_not_an_object_is_a_structured_error(tmp_path, capsys):
    code, out, err = run_cli(["bounds-audit", "--suite", "P-sum", "--params",
                              _raw_params_file(tmp_path, [10, "1/4"])], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--params file must hold a JSON object, not list",
                               "schema_version": 1}


def test_bounds_audit_params_without_a_suite_field_is_a_structured_error(tmp_path, capsys):
    code, out, err = run_cli(["bounds-audit", "--suite", "P-sum", "--params",
                              _raw_params_file(tmp_path, {"n": 10})], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "suite P-sum reads n, D, delta; the parameters lack D, delta",
                               "schema_version": 1}
    code, out, err = run_cli(["bounds-audit", "--suite", "B1", "--params",
                              _raw_params_file(tmp_path, {"n": 3, "q": "1/4", "D": 2})], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == ("suite B1 reads n, p, q, s, rho, D; "
                                        "the parameters lack p, s, rho")


def test_exact_rayleigh_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["adv", "--model", "corr-er", "--n", "3", "--q", "1/3", "--rho", "1/2",
                  "--D", "2", "--exact", "--method", "rayleigh"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: lowdeg adv")
    assert "error: --method rayleigh is a float route; it cannot be --exact" in out.err


def test_adv_rayleigh_matches_the_exact_product_basis_value(capsys):
    code, out, _ = run_cli(["adv", "--model", "corr-er", "--n", "3", "--q", "1/3", "--rho", "1/2",
                            "--D", "3", "--method", "rayleigh"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "rayleigh"
    assert abs(payload["value_squared"] - 5 / 4) <= 1e-9


def test_adv_corr_sbm_without_s_is_a_structured_error(capsys):
    code, out, err = run_cli(["adv", "--model", "corr-sbm", "--n", "3", "--k", "2", "--lambda", "1",
                              "--eps", "3/10", "--rho", "1/2", "--D", "2", "--exact",
                              "--method", "gram-schmidt"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "the block-model matching joint needs s, a child's edge-keep probability",
        "schema_version": 1}


_SBM = ["--n", "10", "--lambda", "3/2", "--k", "2", "--eps", "1/10", "--s", "1/2"]
_PRUNED = ["--D", "2", "--N", "4", "--delta", "1/100"]


def _without(argv, option):
    at = argv.index(option)
    return argv[:at] + argv[at + 2:]


# (argv, the JSON error, or None for exit 0 with value_squared 1); a path
# argument "{tmp}" is the test's temporary directory
_MISSING_FIELD_ROWS = [
    *[(["sample", "--model", model, *_without(_SBM, "--s"), *extra],
       "the correlated block model needs s, a child's edge-keep probability")
      for model, extra in (("corr-sbm", []), ("mod-sbm", _PRUNED))],
    *[(["sample", "--model", model, *_without(_SBM, option), *extra], f"the block model needs {field}")
      for model, extra in (("corr-sbm", []), ("mod-sbm", _PRUNED))
      for option, field in (("--lambda", "lam"), ("--eps", "eps"), ("--k", "k"))],
    (["sample", "--model", "er", "--n", "10"], "the ER model needs q"),
    *[(["adv", "--model", "corr-sbm", *_without(["--n", "3", "--k", "2", "--lambda", "1", "--eps", "2/5",
                                                 "--s", "1/2", "--D", "2", "--exact"], option)],
       f"the block model needs {field}")
      for option, field in (("--k", "k"), ("--lambda", "lam"), ("--eps", "eps"))],
    (["xi", "--n", "4", "--lambda", "1", "--k", "2", "--eps", "2/5", "--exact"],
     "the dual certificate needs D"),
    (["dual-check", "--n", "4", "--lambda", "1", "--k", "2", "--eps", "2/5", "--exact"],
     "the linear system needs D"),
    *[(["adv", "--model", "corr-er", "--n", "3", "--q", "1", "--rho", "1/2", "--D", "2", "--exact",
        "--method", method], None) for method in ("product-basis", "gram-schmidt")],
    (["hidden", "--M", "2", "--base-spec", "{tmp}/absent.json"],
     "--base-spec file '{tmp}/absent.json' cannot be read: No such file or directory"),
    (["hidden", "--M", "2", "--base-spec", "{tmp}"], "--base-spec file '{tmp}' cannot be read: Is a directory"),
    (["bounds-audit", "--suite", "P-sum", "--params", "{tmp}/absent.json"],
     "--params file '{tmp}/absent.json' cannot be read: No such file or directory"),
    (["bounds-audit", "--suite", "P-sum", "--params", "{tmp}"], "--params file '{tmp}' cannot be read: Is a directory"),
    (["bounds-audit", "--suite", "P-sum", "--out", "{tmp}"], "--out '{tmp}' cannot be written: Is a directory"),
    (["adv", "--model", "corr-er", "--n", "3", "--q", "1/3", "--rho", "1/2", "--D", "2", "--exact",
      "--out", "{tmp}"], "--out '{tmp}' cannot be written: Is a directory"),
    (["otter", "--max-n", "8", "--out", "{tmp}/absent/otter.json"],
     "--out '{tmp}/absent/otter.json' cannot be written: No such file or directory"),
]


def test_missing_fields_and_unreadable_files_are_structured_errors(tmp_path, capsys):
    """Each row used to end in a traceback (exit 1): a TypeError from a
    missing model field, a ZeroDivisionError in the product basis at q = 1,
    or an OSError reading the JSON file."""
    for argv, error in _MISSING_FIELD_ROWS:
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if argv[0] == "sample":
            argv += ["--out", str(tmp_path / "out")]
        code, out, err = run_cli(argv, capsys)
        if error is None:  # q = 1: no direction has null variance, and both routes give 1
            assert code == 0 and err == "", argv
            got = json.loads(out)["value_squared"]
            assert (got["numerator"], got["denominator"]) == (1, 1), argv
        else:
            assert code == 2 and out == "", argv
            assert json.loads(err) == {"error": error.replace("{tmp}", str(tmp_path)),
                                       "schema_version": 1}


def test_sample_out_naming_a_file_is_a_structured_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, out, err = run_cli(["sample", "--model", "er", "--n", "4", "--q", "1/2", "--out", str(taken)],
                             capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"--out '{taken}' cannot be written: File exists",
                               "schema_version": 1}


# README-like commands, small enough that every variant of the sweep runs
# in about a millisecond
SWEEP_COMMANDS = [
    "sample --model corr-er --n 4 --q 1/4 --rho 1/3 --seed 7 --trials 1 --exact --out samples",
    "sample --model corr-sbm --n 4 --lambda 3/2 --k 2 --eps 1/10 --s 1/2 --exact",
    "sample --model mod-sbm --n 6 --lambda 3/2 --k 2 --eps 1/10 --s 1/2 --D 2 --N 4 --delta 1/100",
    "adv --model corr-er --n 3 --q 1/3 --rho 1/2 --D 2 --exact --method gram-schmidt --out adv.json",
    "adv --model corr-er --n 3 --q 1/3 --rho 1/2 --D 2 --exact --condition pi(1)=1",
    "adv --model corr-sbm --n 3 --k 2 --lambda 1 --eps 2/5 --s 1/2 --D 2 --exact",
    "xi --n 4 --k 2 --eps 3/10 --lambda 1 --D 3 --exact --kernel exact --out xi.json",
    "dual-check --n 3 --k 2 --eps 1/5 --lambda 1 --delta 1/100 --D 2 --exact",
    "hidden --M 2 --D 1 --base-spec base.json --out hidden.json",
    "bounds-audit --suite P-sum --params params.json --slack 2 --out audits.csv",
    "reduce --model corr-er --estimator greedy --n 4 --q 1/4 --rho 1/3 --lambda-mix 1/2 --trials 2"
    " --seed 3 --threshold 0.5 --exact",
    "otter --max-n 6 --out otter.json",
]
SWEEP_VALUES = ["0", "-1", "1/0", "abc", "3/2", "1", "2", "0.5"]


def _sweep_variants(argv):
    """argv with each option dropped, and with each option's value replaced
    by each of SWEEP_VALUES."""
    for i, token in enumerate(argv):
        if token.startswith("--"):
            has_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
            yield argv[:i] + argv[i + 1 + has_value:]
            if has_value:
                yield from (argv[:i + 1] + [value] + argv[i + 2:] for value in SWEEP_VALUES)


def test_every_swept_call_ends_in_exit_0_2_or_3(tmp_path, capsys, monkeypatch):
    """Malformed calls end in a result (0), a structured or usage error (2)
    or a failed audit (3), never in a traceback; no variant is excluded."""
    monkeypatch.chdir(tmp_path)
    # one parser for all calls: building it costs more than most variants
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    (tmp_path / "base.json").write_text(json.dumps(
        {"outcomes": ["x", "y"], "null": ["1/2", "1/2"], "alt": ["1/5", "4/5"]}), encoding="utf-8")
    (tmp_path / "params.json").write_text(json.dumps({"n": 10 ** 60, "D": 3, "delta": "1/100"}),
                                          encoding="utf-8")
    codes, bad = [], []
    for command in SWEEP_COMMANDS:
        argv = shlex.split(command)
        assert cli.main(argv) == 0, command
        for variant in _sweep_variants(argv):
            try:
                code = cli.main(variant)
            except SystemExit as exc:  # argparse refuses a usage error this way
                code = exc.code
            except Exception as exc:
                code = type(exc).__name__
            capsys.readouterr()
            codes.append(code)
            if code not in (0, 2, 3):
                bad.append((variant, code))
    assert bad == []
    assert len(codes) == 674 and {0, 2, 3} <= set(codes)


def test_sample_pruned_model_refuses_a_non_positive_edge_factor(tmp_path, capsys, monkeypatch):
    from lowdeg import models as md

    monkeypatch.setattr(md, "_log_upsilon_factors", lambda params: (1.0, -1.0))
    code, out, err = run_cli(["sample", "--model", "mod-sbm", *_SBM, *_PRUNED,
                              "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("the edge factor le = -1 is not positive")


def test_adv_corr_sbm_at_four_vertices(capsys):
    argv = ["adv", "--model", "corr-sbm", "--n", "4", "--k", "2", "--lambda", "1", "--eps", "2/5",
            "--s", "1/2", "--exact", "--D"]
    for D, want in (("2", Fraction(58, 49)), ("3", Fraction(6344518, 5359375))):
        code, out, _ = run_cli(argv + [D], capsys)
        assert code == 0
        got = json.loads(out)["value_squared"]
        assert Fraction(got["numerator"], got["denominator"]) == want, D
    argv[argv.index("4")] = "5"
    code, out, err = run_cli(argv + ["2"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "matching-joint atoms: requested 125829120, budget 4194304",
                               "schema_version": 1, "where": "measures._child_subsampling_joint",
                               "requested": 125829120, "budget": 4194304}


def test_bounds_audit_param_not_a_number_is_a_structured_error(tmp_path, capsys):
    code, out, err = run_cli(["bounds-audit", "--suite", "P-sum", "--params",
                              _raw_params_file(tmp_path, {"n": 10, "q": [1], "rho": "1/3"})], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--params q [1] is not a number or a rational string",
                               "schema_version": 1}


def test_bounds_audit_params_read_a_vertex_count_string_as_an_integer(tmp_path, capsys):
    """n, k, D and N are integers: "6" and "12/2" audit what 6 does."""
    outs = []
    for n in (6, "6", 6.0, "12/2"):
        code, out, err = run_cli(["bounds-audit", "--suite", "A1", "--params",
                                  _raw_params_file(tmp_path, {"n": n})], capsys)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs == [outs[0]] * 4


@pytest.mark.parametrize("suite,bad,shown", [
    ("B3", {"n": 6.5, "D": 2}, "n 6.5"),
    ("B1", {"n": 3, "D": 2.5}, "D 2.5"),
    ("A4", {"n": 6, "D": 2, "N": 3, "k": "5/2", "lam": 1}, 'k "5/2"'),
])
def test_bounds_audit_params_with_a_fractional_count_is_a_structured_error(suite, bad, shown, tmp_path, capsys):
    payload = {"q": "1/4", "rho": "1/3", "delta": "1/100", **bad}
    code, out, err = run_cli(["bounds-audit", "--suite", suite, "--params",
                              _raw_params_file(tmp_path, payload)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"--params {shown} is not an integer", "schema_version": 1}


def test_reduce_nan_threshold_is_a_structured_error(capsys):
    """A NaN threshold accepts and rejects nothing; it is refused, not reported as powerless."""
    code, out, err = run_cli(["reduce", "--n", "4", "--q", "1/4", "--rho", "1/3", "--trials", "2",
                              "--threshold", "nan"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--threshold must be a number, not nan", "schema_version": 1}


@pytest.mark.parametrize("slack,shown", [("nan", "nan"), ("-1", "-1.0"), ("0", "0.0"),
                                         ("inf", "inf")])
def test_bounds_audit_slack_must_be_positive_and_finite(slack, shown, capsys):
    """A malformed slack is a structured error (exit 2), not a suite of failed bounds (exit 3)."""
    code, out, err = run_cli(["bounds-audit", "--suite", "P-sum", "--slack", slack], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"--slack must be a positive finite number, not {shown}",
                               "schema_version": 1}


def test_hidden_base_spec_without_alt_is_a_structured_error(tmp_path, capsys):
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps({"outcomes": [0, 1], "null": ["1/2", "1/2"]}), encoding="utf-8")
    code, out, err = run_cli(["hidden", "--M", "2", "--base-spec", str(base_file)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--base-spec file lacks alt", "schema_version": 1}


THREE_OUTCOME_BASE = {"outcomes": ["a", "b", "c"], "null": ["1/3", "1/2", "1/6"],
                      "alt": ["1/4", "1/4", "1/2"]}


def _base_spec(tmp_path, **fields):
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps({**THREE_OUTCOME_BASE, **fields}), encoding="utf-8")
    return str(base_file)


def test_hidden_at_many_slots_is_the_diluted_chi_square(tmp_path, capsys):
    code, out, _ = run_cli(["hidden", "--M", "64", "--D", "8", "--base-spec",
                            _base_spec(tmp_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    chi2 = Fraction(13, 16)  # 1/48 + 1/8 + 2/3
    assert payload["base_value_squared"]["numerator"] == 29
    composite = payload["composite_value_squared"]
    assert Fraction(composite["numerator"], composite["denominator"]) == 1 + chi2 / 64
    assert payload["identity_residual"] == 0.0


def test_hidden_degree_below_one_is_a_structured_error(tmp_path, capsys):
    for degree in ("0", "-3"):
        code, out, err = run_cli(["hidden", "--M", "4", "--D", degree, "--base-spec",
                                  _base_spec(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "D must be at least 1", "schema_version": 1}


def test_hidden_base_spec_outcomes_not_an_array_is_a_structured_error(tmp_path, capsys):
    code, out, err = run_cli(["hidden", "--M", "2", "--base-spec",
                              _base_spec(tmp_path, outcomes=5)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--base-spec outcomes 5 is not a JSON array",
                               "schema_version": 1}


def test_hidden_base_spec_weight_not_a_number_is_a_structured_error(tmp_path, capsys):
    code, out, err = run_cli(["hidden", "--M", "2", "--base-spec",
                              _base_spec(tmp_path, null=[None, "1/2", "1/2"])], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--base-spec null weight null is not a number or a "
                                        "rational string", "schema_version": 1}


def test_hidden_base_spec_nan_weight_is_a_structured_error(tmp_path, capsys):
    spec = _base_spec(tmp_path, outcomes=[0, 1], null=[float("nan"), 1.0], alt=[0.2, 0.8])
    code, out, err = run_cli(["hidden", "--M", "2", "--base-spec", spec], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "weights sum to nan, not 1", "schema_version": 1}


def test_adv_exact_gram_schmidt_stays_exact_past_the_size_cutoff(capsys):
    argv = ["adv", "--model", "corr-er", "--n", "3", "--q", "1/3", "--rho", "1/2", "--D", "2",
            "--exact", "--condition", "pi(1)=1"]
    code, out, _ = run_cli([*argv, "--method", "gram-schmidt"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(isinstance(v, dict) for v in payload["per_class_contributions"].values())
    code, out, _ = run_cli(argv, capsys)  # the product-basis route
    assert payload["value_squared"] == json.loads(out)["value_squared"]


def test_adv_gram_schmidt_is_exact_iff_its_inputs_are_rational(capsys):
    # 4,096 atoms and 79 monomials: the n=4 conditioned law on the superset-sum
    # table, in 17 orbits, exact or float
    argv = ["adv", "--model", "corr-er", "--n", "4", "--D", "2", "--method", "gram-schmidt",
            "--condition", "pi(1)=1"]
    code, out, _ = run_cli([*argv, "--q", "1/4", "--rho", "7/20"], capsys)
    assert code == 0
    assert json.loads(out)["value_squared"] == {"numerator": 249, "denominator": 200,
                                                "value": 1.245}
    code, out, _ = run_cli([*argv, "--q", "0.25", "--rho", "0.35"], capsys)
    assert code == 0
    assert abs(json.loads(out)["value_squared"] - 1.245) <= 1e-12


def test_adv_at_four_vertices_and_degree_four_prints_the_readme_values(capsys):
    argv = ["adv", "--model", "corr-er", "--n", "4", "--q", "1/4", "--rho", "7/20", "--D", "4",
            "--exact"]
    for condition, want in (([], (92201, 80000)), (["--condition", "pi(1)=1"], (52201, 40000))):
        for method in ("gram-schmidt", "product-basis"):
            code, out, _ = run_cli([*argv, *condition, "--method", method], capsys)
            assert code == 0
            got = json.loads(out)["value_squared"]
            assert (got["numerator"], got["denominator"]) == want, (condition, method)


def test_otter_output_is_strict_json(capsys):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    code, out, _ = run_cli(["otter", "--max-n", "1"], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=refuse)
    assert payload["estimate"] is None and payload["raw_ratio"] is None
    assert payload["counts"] == [1] and payload["converged"] is False


def test_dual_check_accepts_float_delta_at_its_cap(capsys):
    code, out, _ = run_cli(["dual-check", "--n", "3", "--k", "3", "--eps", "0.2",
                            "--lambda", "1", "--delta", "0.01", "--D", "3"], capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-9


DUAL_CHECK_K3 = ["dual-check", "--n", "4", "--k", "3", "--eps", "2/5", "--lambda", "1",
                 "--delta", "1/100", "--D", "3", "--exact"]
# sha256 of DUAL_CHECK_K3's stdout; a change that moves a printed digit must update it
DUAL_CHECK_K3_PIN = "d4d7e4fa3a43754d88f7e6fabe3919ef84725ee9ff742ccf67bfef232650028c"


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def test_dual_check_reports_the_sandwich_at_three_communities(capsys):
    from fractions import Fraction

    from lowdeg import certificate as ct
    from lowdeg.params import ModelParams

    code, out, _ = run_cli(DUAL_CHECK_K3, capsys)
    assert code == 0 and stdout_digest(out) == DUAL_CHECK_K3_PIN
    payload = json.loads(out)
    pr = ModelParams(n=4, lam=Fraction(1), k=3, eps=Fraction(2, 5), delta=Fraction(1, 100))
    exact, dual_norm = ct.duality_gap(pr, 3)
    assert (payload["reversed_advantage"], payload["dual_norm"]) == (exact, dual_norm)
    assert payload["duality_holds"] is True and 1 < exact <= dual_norm
    # beyond the reversed advantage's envelope only the linear system is reported
    code, out, _ = run_cli([*DUAL_CHECK_K3[:-2], "4", "--exact"], capsys)
    assert code == 0 and "duality_holds" not in json.loads(out)


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lowdeg.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lowdeg" in proc.stdout


def readme_cli_commands():
    if not README.exists():
        return []
    commands = []
    for line in README.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("lowdeg "):
            commands.append(line)
    return commands


def output_digest(stdout: str, root: Path, inputs=()) -> str:
    """sha256 of stdout, then of each file under root (not the inputs) by
    relative path, in sorted order: name, length and bytes."""
    digest = hashlib.sha256(stdout.encode("utf-8"))
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name not in inputs):
        data = path.read_bytes()
        digest.update(f"\0{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


# output_digest of each README command's stdout and written files.  A change
# that moves any printed digit or written byte must update its pin here.
README_OUTPUT_PINS = {
    "lowdeg sample --model corr-er --n 12 --q 1/4 --rho 1/3 --seed 7 --trials 2 --exact --out samples":
        "488bc1d2cd24818c92bbd7822d4783c852d0c9ee5f8f87253581bc2ade119100",
    "lowdeg adv --model corr-er --n 3 --q 1/3 --rho 1/2 --D 3 --exact":
        "777c57a27eb7c1ab3fd0110ddd78b613be8eacdcf0b11f1e2cc9c5298f581cea",
    "lowdeg adv --model corr-er --n 3 --q 1/3 --rho 1/2 --D 2 --exact --condition pi(1)=1":
        "b4b7a79eec2bb8e267b027135d3cc32b2fb185a44ba013416e1ff8f1b3f07c71",
    "lowdeg xi --n 6 --k 2 --eps 3/10 --lambda 1 --D 3 --exact":
        "5517929186a7776bb46ff0e562ba629fb4d2775be88f6d84ca3d02aa3d2f4070",
    "lowdeg dual-check --n 4 --k 2 --eps 1/5 --lambda 1 --delta 1/100 --D 3 --exact":
        "bab7a857b3f38a5cee3b67f92b44d56a26d8a9f815c3d153f1b4d05acd121995",
    "lowdeg hidden --M 4 --base-spec base.json":
        "10178fde8645f5d97e938a75e144eb356e3ee130202037bfacf35bfd0a5f9a61",
    "lowdeg bounds-audit --suite P-sum --out audits.csv":
        "f1f1d53ed20b7e8e62e34ba02f66077cabd76d3adba3f4b114e1e168888d7ef3",
    "lowdeg reduce --model corr-er --estimator greedy --n 10 --q 1/4 --rho 1/3 --lambda-mix 1/2 --trials 20 --seed 3 --exact":
        "9a944fd0d0455bf3b566fb87fc80764454c0294927dabe5d033bd9dc33b4000a",
    "lowdeg otter --max-n 50":
        "db006ab36eea95e730246768e81ef570fe76426693908e558da7d873a4dde9b9",
    "lowdeg verify":
        "6f9736b43a2ae172aa61be672767039eba7db06df7c64fefda7ac529972ce52e",
}


@pytest.mark.parametrize("command", readme_cli_commands() or [None])
def test_readme_fixtures_run_verbatim(command, tmp_path, capsys, monkeypatch):
    if command is None:
        pytest.skip("README not written yet")
    monkeypatch.chdir(tmp_path)
    if "--base-spec" in command:
        (tmp_path / "base.json").write_text(json.dumps(
            {"outcomes": ["x", "y"], "null": ["1/2", "1/2"], "alt": ["1/5", "4/5"]}),
            encoding="utf-8")
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert output_digest(stdout, tmp_path, inputs={"base.json"}) == README_OUTPUT_PINS[command]


def test_hidden_command_array_outcomes(tmp_path, capsys):
    """JSON array outcomes become tuples; the values match integer outcomes,
    and an outcome that stays unhashable is a structured error."""
    payloads = []
    for outcomes in ([[0, 1], [1, 0]], [0, 1]):
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps({"outcomes": outcomes, "null": ["1/2", "1/2"],
                                         "alt": ["1/5", "4/5"]}), encoding="utf-8")
        code, out, _ = run_cli(["hidden", "--M", "2", "--base-spec", str(base_file)], capsys)
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0] == payloads[1]
    base_file.write_text(json.dumps({"outcomes": [{"a": 0}, [1, 0]], "null": ["1/2", "1/2"],
                                     "alt": ["1/5", "4/5"]}), encoding="utf-8")
    code, out, err = run_cli(["hidden", "--M", "2", "--base-spec", str(base_file)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "outcome {'a': 0} is not hashable"


SRC = Path(cli.__file__).resolve().parents[1]
# Runs one CLI command in a fresh interpreter and reports on stderr whether
# numpy and the dual certificate were imported by the time it returned.
IMPORT_PROBE = ("import sys\nfrom lowdeg.cli import main\ncode = main(sys.argv[1:])\n"
                "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
                "print('certificate loaded:', 'lowdeg.certificate' in sys.modules,"
                " file=sys.stderr)\n"
                "raise SystemExit(code)")


def run_in_subprocess(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def readme_command(name, condition=False):
    return next(shlex.split(c)[1:] for c in readme_cli_commands()
                if shlex.split(c)[1] == name and ("--condition" in c) == condition)


# Commands probed besides the README's: the exact Gram-Schmidt route (its
# superset-sum table and fraction-free LDL^T), the float one, and xi at 24
# communities (label averages by label class).
EXACT_COMMANDS = {"xi-k24": ["xi", "--n", "40", "--k", "24", "--eps", "1/100", "--lambda", "1",
                             "--D", "6", "--exact"],
                  "adv-gram-schmidt": ["adv", "--model", "corr-er", "--n", "3", "--q", "1/3",
                                       "--rho", "1/2", "--D", "3", "--exact",
                                       "--method", "gram-schmidt"],
                  "adv-gram-schmidt-float": ["adv", "--model", "corr-er", "--n", "3",
                                             "--q", "0.25", "--rho", "0.5", "--D", "3",
                                             "--method", "gram-schmidt"]}
# stdout_digest of each EXACT_COMMANDS entry, pinned like README_OUTPUT_PINS
EXACT_OUTPUT_PINS = {
    "xi-k24": "f888d617e5e200af8ba51ddd5457224066c81530268bb9c44252c4677267a234",
    "adv-gram-schmidt": "31e3d02e09f251995751ff936a8eb090690bdaf52936a607d16b44358e76cf98",
    "adv-gram-schmidt-float": "323d4e479a9275aa0fbe67b188f576807fdd8ce670f9538e8de68c6eb519b330",
}


@pytest.mark.parametrize("name,condition", [
    ("adv", False), ("adv", True), ("hidden", False), ("xi", False), ("dual-check", False),
    ("otter", False), ("verify", False), ("adv-gram-schmidt", False),
    ("adv-gram-schmidt-float", False), ("bounds-audit", False), ("xi-k24", False)])
def test_exact_commands_do_not_import_numpy(name, condition, tmp_path):
    (tmp_path / "base.json").write_text(json.dumps(
        {"outcomes": [0, 1], "null": ["1/2", "1/2"], "alt": ["1/5", "4/5"]}), encoding="utf-8")
    proc = run_in_subprocess(EXACT_COMMANDS.get(name) or readme_command(name, condition), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "numpy loaded: False" in proc.stderr
    if name in EXACT_COMMANDS:
        assert stdout_digest(proc.stdout) == EXACT_OUTPUT_PINS[name]


@pytest.mark.parametrize("name,condition,loaded", [
    ("adv", False, False), ("adv", True, False), ("hidden", False, False), ("xi", False, True)])
def test_only_the_certificate_commands_import_it(name, condition, loaded, tmp_path):
    (tmp_path / "base.json").write_text(json.dumps(
        {"outcomes": [0, 1], "null": ["1/2", "1/2"], "alt": ["1/5", "4/5"]}), encoding="utf-8")
    proc = run_in_subprocess(readme_command(name, condition), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert f"certificate loaded: {loaded}" in proc.stderr  # xi: the probe can see it


def test_dual_check_at_three_communities_does_not_import_numpy(tmp_path):
    proc = run_in_subprocess(DUAL_CHECK_K3, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "numpy loaded: False" in proc.stderr
    assert stdout_digest(proc.stdout) == DUAL_CHECK_K3_PIN
    assert json.loads(proc.stdout)["duality_holds"] is True


def test_sampling_commands_run_behind_the_import_boundary(tmp_path):
    for name in ("sample", "reduce"):
        proc = run_in_subprocess(readme_command(name), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "numpy loaded: True" in proc.stderr  # the probe can see numpy
    proc = run_in_subprocess(["reduce", "--estimator", "bogus", "--n", "4", "--q", "1/4",
                              "--rho", "1/3"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: lowdeg reduce")
    assert "argument --estimator: invalid choice: 'bogus'" in proc.stderr
    proc = run_in_subprocess(["bounds-audit", "--suite", "bogus"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: lowdeg bounds-audit")
    assert "argument --suite: invalid choice: 'bogus'" in proc.stderr
