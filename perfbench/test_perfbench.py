"""Tests of the benchmark itself: output checks, failure accounting, tracing.

Run from the repository root with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rdts.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "regret-linear": workloads.regret_linear(T=15, runs=3, n=8, m=8),
    "ir-sweep": workloads.ir_sweep(instances=2, n=12, m=12, d_list=(2, 5), beta_list=(1.0, 100.0)),
    "audit-glm": workloads.audit_glm(T=3, runs=2, n=10, m=10),
    "partition-large": workloads.partition_large(n=40, m=200),
}


def cli_output(workload, tmp_path, seed=3) -> bytes:
    out = tmp_path / "out"
    argv = [*workload.argv, "--seed", str(workload.cli_seed(seed)), "--out", str(out)]
    assert rdts.cli.main(argv) == 0
    return out.read_bytes()


def replace_line(text: bytes, index: int, edit) -> bytes:
    lines = text.decode().split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines).encode()


def set_field(text: bytes, column: int, value: str, index: int = -2) -> bytes:
    """Overwrite one CSV cell; ``index`` -2 is the last data row."""
    def edit(line):
        cols = line.split(",")
        cols[column] = value
        return ",".join(cols)
    return replace_line(text, index, edit)


def edit_json(text: bytes, edit) -> bytes:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc).encode()


TAMPERS = {
    "regret-linear": [
        lambda t: set_field(t, 2, "1e9"),  # cum_regret above the bound and the sum
        lambda t: set_field(t, 1, "0.5", index=3),  # running sum broken
        lambda t: replace_line(t, -2, lambda line: ""),  # a row missing
    ],
    "ir-sweep": [
        lambda t: set_field(t, 5, "100.0"),  # ratio above d/2 and != num/den
        lambda t: set_field(t, 3, "0.0"),  # numerator no longer gives the ratio
        lambda t: set_field(t, 2, "0"),  # a cell twice, another missing
    ],
    "audit-glm": [
        lambda t: edit_json(t, lambda d: d.update(passed=False)),
        lambda t: edit_json(t, lambda d: d["periods"][-1].update(entropy_cap=False)),
        lambda t: edit_json(t, lambda d: d["periods"].pop()),
    ],
    "partition-large": [
        lambda t: edit_json(t, lambda d: d.update(max_intra_cell_distortion=1.0)),
        lambda t: edit_json(t, lambda d: d.update(K=0)),
        lambda t: edit_json(t, lambda d: d.update(I_theta_psi_nats=50.0)),
    ],
}


@pytest.mark.parametrize("name", list(SMALL))
def test_check_accepts_real_output_and_rejects_tampered(name, tmp_path):
    workload = SMALL[name]
    text = cli_output(workload, tmp_path)
    assert workload.check(text) is None
    for tamper in TAMPERS[name]:
        assert workload.check(tamper(text)) is not None


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.Runner(run.time.perf_counter() + run.DEADLINE_S)


def test_tampered_output_counts_as_failed_invocation(runner):
    workload = SMALL["regret-linear"]
    clean = run.run_workload(runner, workload, seed=5, seconds=0, trace=False)
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] == run.MIN_REPS
    tampered = dataclasses.replace(
        workload, check=lambda text: workload.check(set_field(text, 2, "1e9"))
    )
    bad = run.run_workload(runner, tampered, seed=5, seconds=0, trace=False)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] == run.MIN_REPS
    assert all(f.startswith("check: ") for f in bad["failures"])


def test_unexpected_exit_code_counts_as_failed(runner):
    w = SMALL["audit-glm"]
    workload = dataclasses.replace(w, argv=(*w.argv, "--epsilon", "0"))
    result = run.run_workload(runner, workload, seed=5, seconds=0, trace=False)
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert all(f.startswith("exit code 2") for f in result["failures"])


def test_digest_disagreement_fails_the_odd_repetition():
    reps = [{"sha256": "a"}, {"sha256": "b"}, {"sha256": "a"}, {"failure": "x"}]
    assert run.mark_digest_disagreements(reps) == "a"
    assert [("failure" in r) for r in reps] == [False, True, False, True]


def test_time_metrics_are_host_adjusted():
    # host twice as slow as the reference speed: raw times halve when adjusted
    slow = run.REFERENCE_S["memory"] * 2
    reps = [{"wall_s": 2.0, "cpu_s": 1.8, "setup_s": 0.4, "peak_rss_mb": 50.0,
             "ref_kernel": "memory", "ref_s": [slow * 0.9, slow * 1.1]} for _ in range(3)]
    gated, raw = run.summaries(reps)
    assert gated["wall_s"]["median"] == pytest.approx(1.0)
    assert gated["cpu_s"]["median"] == pytest.approx(0.9)
    assert gated["setup_s"]["median"] == pytest.approx(0.2)
    assert gated["peak_rss_mb"]["median"] == 50.0
    assert raw["wall_s"]["median"] == 2.0 and "peak_rss_mb" not in raw


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(1, 21))) == (50, 10)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # ir-sweep stays runnable by name but is not a gated workload
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in workloads.WORKLOADS if n != "ir-sweep"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    names = spans.per_layer_metric_names(spans.load_layers())
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in names]


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    root = ["cli.main", None, 0.0, 10.0]
    a = ["model.sample_instance", root, 1.0, 5.0]  # two workers overlap on [3, 5]
    b = ["model.sample_instance", root, 3.0, 7.0]
    c = ["model.outcome_support", a, 2.0, 3.0]
    tracer.spans = [root, a, b, c]
    layers = {"model": {"functions": ["sample_instance", "outcome_support"], "extra": {}},
              "cli": {"functions": ["main"], "extra": {}}}
    out = tracer.summary(layers)
    assert out["cli.main.self_s"] == pytest.approx(4.0)
    assert out["model.sample_instance.self_s"] == pytest.approx(3.0 + 4.0)
    assert out["model.outcome_support.self_s"] == pytest.approx(1.0)
    assert out["model.sample_instance.calls"] == 2


def test_worker_thread_spans_nest_under_the_open_root():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("outer", outer)()
    root, child = sorted(tracer.spans, key=lambda s: s[2])
    assert root[0] == "outer" and root[1] is None
    assert child[0] == "inner" and child[1] is root


def test_install_rebinds_every_namespace_and_restores():
    from rdts import inference, information, model, policy

    original = model.outcome_support
    tracer = spans.install(spans.load_layers())
    try:
        wrapped = model.outcome_support
        assert wrapped is not original
        for module in (inference, information, policy):
            assert module.outcome_support is wrapped
    finally:
        tracer.restore()
    for module in (model, inference, information, policy):
        assert module.outcome_support is original


def traced_counts(workload, tmp_path) -> dict:
    layers = spans.load_layers()
    tracer = spans.install(layers)
    try:
        cli_output(workload, tmp_path)
    finally:
        tracer.restore()
    return {k: v for k, v in tracer.summary(layers).items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", ["regret-linear", "audit-glm", "ir-sweep"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = traced_counts(SMALL[name], tmp_path)
    assert first == traced_counts(SMALL[name], tmp_path)
    assert first["cli.main.calls"] == 1
    if name == "audit-glm":
        assert first["model.outcome_support.repeat_frac"] > 0
        assert first["information.info_gain_about_statistic.calls"] > 0
    if name == "ir-sweep":
        assert first["information.ts_info_ratio.calls"] == 2 * 2 * 2
        assert first["inference.BeliefState.calls"] == 2 * 2 * 2


def test_partition_seed_meets_the_margin():
    assert workloads.WORKLOADS["partition-large"].cli_seed(1) == 1
    # seed 14's m=6000 instance has a parameter with best inner product < 0.02
    assert workloads.WORKLOADS["partition-large"].cli_seed(14) == 14 + 2**32


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ir-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
