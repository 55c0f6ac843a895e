import csv
import json
import warnings

import pytest

from rdts.cli import main
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


def test_epsilon_too_large_is_config_error(capsys):
    code = run(["bounds", "--which", "partition-count", "--model", "logistic",
                "--d", "2", "--epsilon", "0.4", "--beta", "2.0", "--delta", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "EpsilonTooLarge"


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
], ids=["ir-sweep-beta", "audit-eta", "regret-beta", "bounds-gamma"])
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
