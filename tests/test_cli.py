import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdts
from rdts.cli import _COMMANDS, _config_keys, _json_default, _json_pieces, _write, build_parser, main
from rdts.compression import Infeasible
from rdts.information import DegenerateInformation
from rdts.tolerances import CERT_TOL, RATIO_CEILING_TOL


def run(argv):
    return main(argv)


def test_bounds_linear_json(tmp_path):
    out = tmp_path / "b.json"
    code = run(
        ["bounds", "--which", "linear", "--d", "10", "--T", "10000",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "linear"
    assert abs(doc["value"] - 1953.5) < 0.1


def test_bounds_csv_format(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bounds", "--which", "entropy", "--gamma-bar", "1.0",
                "--entropy-nats", "0.6931471805599453", "--T", "4",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,value,inputs"
    assert lines[1].startswith("entropy,1.665109")


@pytest.mark.parametrize("argv", [
    ("regret", "--model", "linear_binary", "--d", "3", "--T", "5", "--runs", "2"),
    ("regret", "--model", "glm", "--beta", "1", "--eta", "0.05", "--d", "3",
     "--T", "5", "--runs", "2"),
    ("ir-sweep", "--model", "logistic", "--d-list", "3", "--beta-list", "1", "--instances", "1"),
], ids=["regret-linear", "regret-glm", "ir-sweep"])
def test_many_action_runs_hold_no_m_by_n_table(argv, tmp_path):
    # Thompson sampling plays only realized actions, at most m of the n, so
    # no command needs a table of all m * n mean rewards
    m, n = 500, 20_000
    tracemalloc.start()
    try:
        code = run([*argv, "--n", str(n), "--m", str(m), "--seed", "1",
                    "--out", str(tmp_path / "out.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < m * n * 8, peak


def _traced_peak(argv):
    """``main(argv)``'s exit code and the peak of the memory it traces."""
    tracemalloc.start()
    try:
        code = run(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ("--model", "linear_binary"),
    ("--model", "logistic", "--realized"),
], ids=["linear_binary", "logistic-realized"])
def test_many_action_binary_runs_hold_one_outcome_array(argv, tmp_path):
    # a binary model's outcome table is its (R, m, 2) weights: the rollout
    # reads likelihoods from them, and the support indexes and values are
    # views, so the run stays far below the 84 MB that copies of them took
    code, peak = _traced_peak(["regret", *argv, "--d", "3", "--n", "20000", "--m", "2000",
                               "--T", "50", "--runs", "10", "--seed", "1",
                               "--out", str(tmp_path / "out.csv")])
    assert code == 0
    assert peak < 50e6, peak


def test_audit_guard_refuses_before_building_the_outcome_table(tmp_path, capsys):
    # m * R * 2 already exceeds 1e6, so the guard refuses without the
    # outcome table, whose merged glm supports take about 47 MB here
    code, peak = _traced_peak(["audit", "--model", "glm", "--d", "3", "--n", "500",
                               "--m", "6000", "--T", "2", "--runs", "1",
                               "--out", str(tmp_path / "a.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "GuardExceeded", "message": "m * R * |outcomes| exceeds the exact-audit guard"}
    assert peak < 5e6, peak


def test_ir_sweep_csv_contract(tmp_path):
    out = tmp_path / "s.csv"
    code = run(
        ["ir-sweep", "--d-list", "2,3", "--beta-list", "1", "--n", "8",
         "--m", "8", "--instances", "4", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,beta,instance_id,numerator,denominator_nats,ratio,bound_d_over_2,violated"
    assert len(lines) == 1 + 2 * 4
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[7] in ("true", "false")
        assert float(cols[5]) <= float(cols[6]) + RATIO_CEILING_TOL


def test_ir_sweep_determinism_across_threads(tmp_path):
    args = ["ir-sweep", "--d-list", "2,4", "--beta-list", "0.1,10", "--n", "10",
            "--m", "10", "--instances", "3", "--seed", "99"]
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / f"{name}.csv"
        assert run(args + ["--threads", threads, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_ir_sweep_svg(tmp_path):
    svg = tmp_path / "fig.svg"
    assert run(["ir-sweep", "--d-list", "2", "--beta-list", "1", "--n", "6",
                "--m", "6", "--instances", "2", "--seed", "1",
                "--out", str(tmp_path / "s.csv"), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "stroke-dasharray" in text


def test_regret_csv_contract(tmp_path):
    out = tmp_path / "r.csv"
    code = run(
        ["regret", "--model", "linear_binary", "--d", "2", "--n", "8", "--m", "8",
         "--T", "10", "--runs", "20", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_regret,cum_regret,std_err,bound_value"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert float(last[2]) <= float(last[4])


def test_partition_json_contract(tmp_path):
    out = tmp_path / "p.json"
    code = run(
        ["partition", "--model", "linear_binary", "--d", "2", "--n", "10",
         "--m", "10", "--epsilon", "0.2", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "K", "epsilon", "max_intra_cell_distortion", "formula_bound",
        "I_theta_psi_nats",
    }
    assert doc["max_intra_cell_distortion"] <= doc["epsilon"] + CERT_TOL
    assert doc["K"] <= doc["formula_bound"]


def test_partition_logistic_needs_delta(capsys):
    assert run(["partition", "--model", "logistic", "--builder", "logistic",
                "--epsilon", "0.05", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"


def test_partition_logistic_at_saturating_beta(tmp_path):
    # at beta=100 means round to 1.0; the margin comes from inner products
    out = tmp_path / "p.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["partition", "--model", "logistic", "--builder", "logistic",
                    "--beta", "100", "--delta", "0.02", "--epsilon", "0.02", "--d", "2",
                    "--n", "100", "--m", "100", "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["max_intra_cell_distortion"] <= doc["epsilon"] + CERT_TOL


def test_cover_at_zero_link_slope(tmp_path):
    # beta = 1000 saturates the link at the one inner product: C(phi) is 0
    # in floats, and the cover's radius is infinite rather than a division by 0
    argv = ["--model", "logistic", "--beta", "1000", "--d", "1", "--n", "1", "--m", "1",
            "--seed", "1"]
    out = tmp_path / "p.json"
    assert run(["partition", *argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["K"], doc["max_intra_cell_distortion"], doc["formula_bound"]) == (1, 0.0, 1.0)
    assert run(["audit", *argv, "--T", "3", "--runs", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_glm_regret_at_zero_link_slope(tmp_path):
    # beta = 1000 saturates the glm link at the one inner product: C(phi) is 0
    # in floats, every mean reward is equal, and regret and bound are both 0
    out = tmp_path / "r.csv"
    assert run(["regret", "--model", "glm", "--beta", "1000", "--eta", "0.05", "--d", "1",
                "--n", "1", "--m", "1", "--seed", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows
    assert all(float(r["cum_regret"]) == 0.0 == float(r["bound_value"]) for r in rows)


def test_linear_and_glm_builder_names_are_refused(tmp_path, capsys):
    # leaving --builder unset runs the one cover builder for every model;
    # logistic, the one other builder, is the flag's only value
    argv = ["partition", "--model", "linear_binary", "--d", "3", "--n", "20",
            "--m", "30", "--epsilon", "0.2", "--seed", "8", "--out", str(tmp_path / "p.json")]
    for name in ("linear", "glm"):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--builder", name])
        assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"builder": "linear"}))
    assert run([*argv, "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "--builder" in err["message"]
    assert run(argv) == 0


def test_partition_config_may_leave_delta_unset(tmp_path):
    argv = ["partition", "--model", "linear_binary", "--d", "2", "--n", "10", "--m", "10",
            "--seed", "4"]
    cfg, plain, configured = tmp_path / "cfg.json", tmp_path / "a.json", tmp_path / "b.json"
    cfg.write_text(json.dumps({"delta": None}))
    assert run([*argv, "--out", str(plain)]) == 0
    assert run([*argv, "--config", str(cfg), "--out", str(configured)]) == 0
    assert configured.read_bytes() == plain.read_bytes()


def test_regret_with_no_periods_writes_the_header_only(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["regret", "--model", "linear_binary", "--d", "2", "--n", "5", "--m", "5",
                "--T", "0", "--runs", "2", "--out", str(out)]) == 0
    assert out.read_text() == "t,mean_regret,cum_regret,std_err,bound_value\n"


@pytest.mark.parametrize("argv", [
    ["ir-sweep", "--instances", "-1", "--d-list", "2", "--n", "5", "--m", "5"],
    ["bounds", "--which", "partition-count", "--model", "nope"],
    ["bounds", "--which", "logistic"],
], ids=["ir-sweep-instances", "bounds-model", "bounds-logistic-no-delta"])
def test_out_of_range_values_are_exit_2(argv, capsys):
    assert run(argv) == 2
    json.loads(capsys.readouterr().err)


def test_empty_beta_list_is_a_config_error_like_an_empty_d_list(tmp_path, capsys):
    argv = ["ir-sweep", "--instances", "1", "--n", "5", "--m", "5", "--out", str(tmp_path / "s.csv")]
    for lists in (["--d-list", ","], ["--d-list", "2", "--beta-list", ","]):
        assert run([*argv, "--model", "logistic", *lists]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    # linear_binary reads no beta list
    assert run([*argv, "--model", "linear_binary", "--d-list", "2", "--beta-list", ","]) == 0


@pytest.mark.parametrize("model", ["glm", "linear_binary"])
def test_logistic_builder_on_another_model_is_a_config_error(model, capsys):
    assert run(["partition", "--builder", "logistic", "--model", model, "--delta", "0.1",
                "--d", "2", "--n", "10", "--m", "10"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "--model" in err["message"]


def test_ir_sweep_refuses_glm_through_its_model_choices(tmp_path, capsys):
    argv = ["ir-sweep", "--d-list", "2", "--instances", "1", "--n", "5", "--m", "5"]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--model", "glm"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "glm"}))
    assert run([*argv, "--config", str(cfg)]) == 2
    assert "--model" in json.loads(capsys.readouterr().err)["message"]


def test_epsilon_too_large_is_config_error(capsys):
    code = run(["bounds", "--which", "partition-count", "--model", "logistic",
                "--d", "2", "--epsilon", "0.4", "--beta", "2.0", "--delta", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "EpsilonTooLarge"


def test_logistic_ladder_at_a_subnormal_epsilon(capsys):
    # phi(1) - phi(delta) over a subnormal epsilon is infinite: the count
    # bound reads s_0 alone and evaluates, the layered builder refuses
    common = ["--model", "logistic", "--d", "2", "--beta", "5", "--delta", "0.01",
              "--epsilon", "1e-310"]
    assert run(["bounds", "--which", "partition-count", *common]) == 0
    assert "partition-count,inf," in capsys.readouterr().out
    assert run(["partition", "--builder", "logistic", "--n", "20", "--m", "50", "--seed", "3",
                *common]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_audit_json_and_exit_code(tmp_path):
    out = tmp_path / "a.json"
    code = run(
        ["audit", "--model", "linear_binary", "--d", "2", "--n", "8", "--m", "6",
         "--T", "5", "--runs", "1", "--epsilon", "0.3", "--seed", "11",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["mean_cumulative_regret"] <= doc["bound_value"] + 1e-8
    assert len(doc["periods"]) == 5


def test_audit_guard_counts_realized_actions(tmp_path):
    # the audit holds m x R tables: at most 30 of the 20000 actions are
    # realized, so m * R * |outcomes| is far below the guard, although
    # m * n * |outcomes| = 1.2e6 is above it
    argv = ["audit", "--model", "linear_binary", "--d", "3", "--n", "20000", "--m", "30",
            "--T", "4", "--runs", "2", "--out", str(tmp_path / "a.json")]
    assert run(argv) == 0


# at beta = 1000 the posterior holds masses below 1e-100, so the products of
# marginals in some I(psi; Y_a) terms fall below the smallest normal float, and
# the logistic link's exp overflows for every inner product below about -0.71
SATURATED_AUDIT = ["audit", "--model", "logistic", "--beta", "1000", "--d", "2", "--n", "5",
                   "--m", "5", "--T", "3", "--runs", "2", "--seed", "1"]


def test_audit_at_saturated_beta_keeps_information_finite(tmp_path):
    out = tmp_path / "a.json"
    assert run([*SATURATED_AUDIT, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    # a binary outcome carries at most ln 2 nats
    for row in doc["periods"]:
        for key in ("info_compressed", "info_psi_compressed", "info_psi_ts"):
            assert 0.0 <= row[key] <= math.log(2), (row["run"], row["t"], key)


def test_audit_at_saturated_beta_emits_no_runtime_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*SATURATED_AUDIT, "--out", str(tmp_path / "a.json")]) == 0


@pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--T", "-1")])
def test_audit_rejects_empty_rollout(flag, value, capsys):
    code = run(["audit", "--model", "linear_binary", "--d", "2", "--n", "8", "--m", "6",
                "--seed", "11", flag, value])
    assert code == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "ValueError", "message": "need T >= 0 and runs >= 1"}


@pytest.mark.parametrize("argv", [
    ["ir-sweep", "--beta-list", "nan", "--d-list", "2", "--instances", "1", "--n", "5",
     "--m", "5"],
    ["audit", "--model", "glm", "--eta", "nan", "--n", "8", "--m", "6", "--T", "2",
     "--runs", "1"],
    ["regret", "--model", "logistic", "--beta", "inf", "--n", "5", "--m", "5", "--T", "2",
     "--runs", "1"],
    ["bounds", "--which", "compressed", "--gamma-bar", "nan", "--info-nats", "1",
     "--T", "10"],
    ["bounds", "--which", "logistic", "--beta", "inf", "--delta", "0.5", "--T", "10"],
], ids=["ir-sweep-beta", "audit-eta", "regret-beta", "bounds-gamma", "bounds-logistic-beta"])
def test_non_finite_inputs_are_config_errors(argv, capsys):
    assert run(argv) == 2
    json.loads(capsys.readouterr().err)


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 10, "T": 10000, "which": "linear", "format": "json"}))
    out = tmp_path / "o.json"
    assert run(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["value"] - 1953.5) < 0.1
    # a command-line flag beats the file value
    out2 = tmp_path / "o2.json"
    assert run(["bounds", "--config", str(cfg), "--d", "3", "--T", "500",
                "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["inputs"]["d"] == 3


def test_bad_config_file_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert run(["bounds", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert run(["bounds", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("error", [Infeasible, DegenerateInformation])
@pytest.mark.parametrize("argv, target", [
    (["audit", "--d", "2", "--n", "5", "--m", "5", "--T", "2"], "build_partition_glm"),
    (["ir-sweep", "--n", "5", "--m", "5", "--d-list", "2", "--instances", "1"], "ts_info_ratio"),
], ids=["audit", "ir-sweep"])
def test_arithmetic_error_is_exit_2_with_one_json_line(monkeypatch, capsys, tmp_path,
                                                       argv, target, error):
    # an arithmetic failure is reported like a config error, not as a
    # traceback with exit 1 ("criteria violated")
    def failing(*args, **kwargs):
        raise error("no answer for this input")

    monkeypatch.setattr(f"rdts.cli.{target}", failing)
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error.__name__, "message": "no answer for this input"}


@pytest.mark.parametrize("argv, doc", [
    (["regret", "--model", "linear_binary", "--d", "2", "--n", "6", "--m", "6"], {"T": 2.5}),
    (["ir-sweep", "--n", "6", "--m", "6", "--instances", "1"], {"d_list": [2, 3]}),
    (["regret", "--d", "2", "--n", "6", "--m", "6", "--T", "3"], {"runs": True}),
    (["regret", "--d", "2", "--n", "6", "--m", "6", "--T", "3"], {"realized": "yes"}),
    (["bounds"], {"format": "xml"}),
])
def test_ill_typed_config_value_is_exit_2(tmp_path, capsys, argv, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and next(iter(doc)).replace("_", "-") in err["message"]


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    argv = ["regret", "--model", "linear_binary", "--d", "2", "--n", "5", "--m", "5"]
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({"rusn": 3, "T": 4}))
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "rusn" in err["message"]
    assert not out.exists()
    # a key that names another subcommand's flag is still ignored
    cfg.write_text(json.dumps({"runs": 3, "T": 4, "which": "glm", "d_list": "2"}))
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def _action_fields(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.help, a.nargs)
            for a in parser._actions]


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_one_subcommand_parser_equals_the_full_trees(name):
    full_parser, full = build_parser()
    parser, flagged = build_parser([name])
    assert _action_fields(flagged[name]) == _action_fields(full[name])
    assert flagged[name].format_help() == full[name].format_help()
    # every subcommand stays registered, the others without their flags
    assert parser.format_help() == full_parser.format_help()
    assert list(flagged) == list(full)
    assert all(len(p._actions) == 1 for other, p in flagged.items() if other != name)


def test_config_keys_are_the_full_trees_flags():
    _, full = build_parser()
    assert _config_keys() == {a.dest for p in full.values() for a in p._actions}


def test_unknown_bound_is_exit_2(capsys):
    assert run(["bounds", "--which", "nope"]) == 2


def test_every_subcommand_is_byte_deterministic(tmp_path):
    cases = [
        ["ir-sweep", "--d-list", "2", "--beta-list", "1", "--n", "6", "--m", "6",
         "--instances", "2"],
        ["regret", "--model", "linear_binary", "--d", "2", "--n", "6", "--m", "6",
         "--T", "5", "--runs", "10"],
        ["partition", "--model", "linear_binary", "--d", "2", "--n", "8", "--m", "8",
         "--epsilon", "0.2"],
        ["bounds", "--which", "linear", "--d", "5", "--T", "100", "--format", "json"],
        ["audit", "--model", "linear_binary", "--d", "2", "--n", "6", "--m", "5",
         "--T", "3", "--runs", "1", "--epsilon", "0.3"],
    ]
    for idx, argv in enumerate(cases):
        a = tmp_path / f"{idx}_a"
        b = tmp_path / f"{idx}_b"
        assert run(argv + ["--seed", "21", "--out", str(a)]) == run(
            argv + ["--seed", "21", "--out", str(b)]
        )
        assert a.read_bytes() == b.read_bytes()


def _csv_value(cell):
    try:
        return json.loads(cell)
    except ValueError:
        return cell


@pytest.mark.parametrize(
    "argv",
    [
        ["ir-sweep", "--d-list", "2,3", "--beta-list", "1,10", "--n", "6", "--m", "6",
         "--instances", "2"],
        ["regret", "--model", "glm", "--beta", "2", "--d", "2", "--n", "6", "--m", "6",
         "--T", "5", "--runs", "3"],
        ["partition", "--model", "linear_binary", "--d", "2", "--n", "8", "--m", "8",
         "--epsilon", "0.2"],
        ["bounds", "--which", "logistic", "--d", "2", "--T", "50", "--beta", "2",
         "--delta", "0.5"],
        ["audit", "--model", "linear_binary", "--d", "2", "--n", "6", "--m", "5",
         "--T", "3", "--runs", "2", "--epsilon", "0.3"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_and_json_carry_the_same_values(argv, tmp_path):
    outs = {fmt: tmp_path / f"out.{fmt}" for fmt in ("csv", "json")}
    codes = [run(argv + ["--seed", "9", "--format", fmt, "--out", str(path)])
             for fmt, path in outs.items()]
    assert codes[0] == codes[1]
    with open(outs["csv"], newline="") as fh:
        header, *lines = csv.reader(fh)
    csv_rows = [list(zip(header, map(_csv_value, line))) for line in lines]
    doc = json.loads(outs["json"].read_text())
    if argv[0] == "audit":
        doc = doc["periods"]
    json_rows = [list(row.items()) for row in (doc if isinstance(doc, list) else [doc])]
    assert json_rows and csv_rows == json_rows


_SMALL_RUNS = {
    "ir-sweep": ["--d-list", "2", "--beta-list", "1,100", "--n", "6", "--m", "6",
                 "--instances", "2"],
    "regret": ["--model", "glm", "--d", "2", "--n", "6", "--m", "6", "--T", "5",
               "--runs", "3"],
    "partition": ["--model", "logistic", "--builder", "logistic", "--beta", "20",
                  "--delta", "0.01", "--epsilon", "0.02", "--d", "2", "--n", "8",
                  "--m", "12"],
    "bounds": ["--which", "logistic", "--d", "2", "--T", "50", "--beta", "2",
               "--delta", "0.5"],
    "audit": ["--model", "glm", "--d", "2", "--n", "8", "--m", "8", "--T", "4",
              "--runs", "2"],
}


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_subcommand_never_imports_numpy_ma(command):
    # a flag-less np.unique imports numpy.ma on first use, which costs time and memory
    script = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from rdts.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rdts.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, command, *_SMALL_RUNS[command], "--seed", "3"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr


# JSON scalars as rdts documents hold them, numpy's included, and strings
# that hold the text between two indented items or are not ASCII
_BOUNDARY = '"},\n      {"'
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=6),
    st.sampled_from([_BOUNDARY, "},\n", "é ☃ \u2028", ""]),
)
_JSON_KEYS = st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.booleans(), st.none())
_FLAT_ROWS = st.lists(
    st.dictionaries(_JSON_KEYS, _JSON_SCALARS, min_size=1, max_size=4), min_size=1, max_size=4
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | _FLAT_ROWS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
        _FLAT_ROWS,
    ),
    max_leaves=20,
)


def _written(doc) -> str:
    """What ``_write`` prints for the JSON document ``doc`` (not None)."""
    out = StringIO()
    with redirect_stdout(out):
        _write(SimpleNamespace(format="json", out=None), [], [], doc)
    return out.getvalue()


@given(_JSON_DOCS)
@settings(max_examples=150, deadline=None)
def test_json_writer_is_json_dumps_with_indent_2(doc):
    assert "".join(_json_pieces(doc)) == json.dumps(doc, indent=2, default=_json_default)


@pytest.mark.parametrize(
    "value", [np.bool_(True), np.float32(0.5), np.float64("nan"), np.int8(-3), np.uint64(7)]
)
def test_json_default_returns_only_scalars(value):
    # the JSON writer encodes a container whose values are all scalars in one
    # C-encoder call, so a container from the default would lose its indent
    assert type(_json_default(value)) in (bool, int, float)


@pytest.mark.parametrize(
    "doc",
    [{"a": object()}, [{"a": 1}, {"b": object()}], {"p": [{"a": 1}], "q": [object()]},
     {(1, 2): 1}, {"p": [1], (1, 2): 1}, np.zeros(2)],
)
def test_json_writer_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, default=_json_default)
    with pytest.raises(TypeError):
        _written(doc)


def test_json_writer_detects_circular_references():
    loop = [1]
    loop.append(loop)
    nested = {"a": [{"b": 1}], "c": {}}
    nested["c"]["d"] = nested
    for doc in (loop, {"x": loop}, nested):
        with pytest.raises(ValueError, match="Circular"):
            json.dumps(doc, indent=2, default=_json_default)
        with pytest.raises(ValueError, match="Circular"):
            _written(doc)
    shared = {"a": 1.5}
    assert _written([shared, [shared]]) == json.dumps([shared, [shared]], indent=2) + "\n"
