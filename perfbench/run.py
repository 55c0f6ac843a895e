#!/usr/bin/env python3
"""rdts benchmark: closed loop, one client, one CLI invocation per process.

Usage::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition is a fresh ``child.py`` process that times ``import
rdts.cli`` (``setup_s``) and one ``rdts.cli.main(argv)`` call (``wall_s``,
``cpu_s``, ``peak_rss_mb``). Repetitions run back to back until ``--seconds``
have passed. Every output is checked and hashed; a repetition fails if it
exits with a non-zero code, raises, fails its workload's check or hashes
differently from the run's majority. BLAS/OpenMP threads are capped at
``nproc`` in each child's environment only.

On a shared VM the speed the host gives one process drifts by up to a third
over tens of seconds, in wall and CPU time alike, so the time metrics are
host-adjusted: each repetition's raw time is
scaled by ``REFERENCE_S`` over the time the workload's reference kernel took
in the same process just before and after the call (``child.KERNELS``). The
report and the record keep the raw medians too. Every run also checks,
untimed, that a small ``ir-sweep`` grid gives the same bytes with
``--threads 1`` and ``--threads 2``.

``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of ``layers.json`` instead of the end-to-end ones. A
human-readable report precedes the last stdout line, one JSON object; the
full record, with per-repetition digests and the environment, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
from workloads import THREAD_CHECK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# every run, with its set-up, must end well inside 180 s
DEADLINE_S = 165.0
MIN_REPS = 2
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# time metrics reported host-adjusted; peak_rss_mb does not depend on speed
ADJUSTED = ("wall_s", "cpu_s", "setup_s")
# each reference kernel's typical time on a 2-vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4: adjusted times read as seconds on such a host at that speed
REFERENCE_S = {"interpreter": 0.06, "memory": 0.11}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


class Runner:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline  # perf_counter time by which a workload's run must end
        self.env = child_env()
        OUT.mkdir(exist_ok=True)

    def child(self, mode: str, argv: list[str], tag: str) -> dict:
        """Run one child to completion; failures come back as a record."""
        record_path = OUT / f"{tag}.{os.getpid()}.record.json"
        record_path.unlink(missing_ok=True)
        timeout = max(1.0, self.time_left())
        cmd = [sys.executable, str(HERE / "child.py"), str(record_path), mode, *argv]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"failure": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not record_path.exists():
            return {"failure": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        with open(record_path) as fh:
            record = json.load(fh)
        record_path.unlink()
        if proc.stderr.strip():
            record["stderr"] = proc.stderr.strip()[-500:]
        if not Path(record["rdts_file"]).resolve().is_relative_to(SRC):
            record["failure"] = f"imported rdts from {record['rdts_file']}, not {SRC}"
        return record

    def invocation(self, workload, argv: list[str], traced: bool) -> dict:
        out_path = OUT / f"{workload.name}.{os.getpid()}.out"
        out_path.unlink(missing_ok=True)
        mode = f"{'trace' if traced else 'time'}:{workload.reference}"
        record = self.child(mode, [*argv, "--out", str(out_path)], workload.name)
        record["traced"] = traced
        if "failure" in record:
            return record
        if record.get("error"):
            record["failure"] = "raised: " + record["error"].strip().splitlines()[-1]
        elif record["exit_code"] != 0:
            record["failure"] = f"exit code {record['exit_code']}: {record.get('stderr', '')}"
        elif not out_path.exists():
            record["failure"] = "no output written"
        if out_path.exists():
            text = out_path.read_bytes()
            out_path.unlink()
            record["sha256"] = hashlib.sha256(text).hexdigest()
            if "failure" not in record:
                reason = workload.check(text)
                if reason is not None:
                    record["failure"] = "check: " + reason
        return record

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


def mark_digest_disagreements(reps: list[dict]) -> str | None:
    """Fail every repetition whose output hash differs from the majority's."""
    digests = Counter(r["sha256"] for r in reps if "sha256" in r)
    if not digests:
        return None
    majority = digests.most_common(1)[0][0]
    for r in reps:
        if "sha256" in r and r["sha256"] != majority and "failure" not in r:
            r["failure"] = f"output sha256 {r['sha256'][:12]} != majority {majority[:12]}"
    return majority


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return int(100 * rank / len(ordered)), ordered[rank - 1]


def host_factor(record: dict) -> float:
    """REFERENCE_S over the reference kernel's mean time around the call."""
    return REFERENCE_S[record["ref_kernel"]] / statistics.fmean(record["ref_s"])


def summaries(reps: list[dict]) -> tuple[dict, dict]:
    """Gated summaries (times host-adjusted) and raw summaries of the times."""
    gated = {m: summarize([r[m] * host_factor(r) if m in ADJUSTED else r[m] for r in reps])
             for m in END_TO_END}
    raw = {m: summarize([r[m] for r in reps]) for m in ADJUSTED}
    return gated, raw


def summarize(values: list[float]) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_percentile": tail[0] if tail else None,
        "tail_value": tail[1] if tail else None,
    }


def run_workload(runner: Runner, workload, seed: int, seconds: float, trace: bool) -> dict:
    cli_seed = workload.cli_seed(seed)
    argv = [*workload.argv, "--seed", str(cli_seed)]
    result: dict = {"workload": workload.name, "seed": seed, "cli_seed": cli_seed,
                    "argv": argv, "trace": trace}
    outs = [runner.invocation(w, [*w.argv, "--seed", str(seed)], traced=False)
            for w in THREAD_CHECK]
    result["threads_sha256"] = [o.get("sha256") for o in outs]
    result["threads_identical"] = (
        all("failure" not in o for o in outs) and outs[0]["sha256"] == outs[1]["sha256"])
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        reps.append(runner.invocation(workload, argv, traced=trace and len(reps) % 2 == 0))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(reps) >= MIN_REPS:
            break
        # stop early rather than overrun the deadline with one more repetition
        if runner.time_left() < 1.5 * elapsed / len(reps):
            break
    result["measured_s"] = time.perf_counter() - start
    result["sha256"] = mark_digest_disagreements(reps)
    result["attempted"] = len(reps)
    result["failed"] = sum("failure" in r for r in reps)
    result["failures"] = sorted({r["failure"] for r in reps if "failure" in r})
    timed = [r for r in reps if "wall_s" in r and "failure" not in r]
    untraced = [r for r in timed if not r["traced"]]
    result["summary"], result["raw_summary"] = summaries(untraced) if untraced else ({}, {})
    if trace:
        result["layers"] = layer_metrics([r for r in timed if r["traced"]], untraced)
        if result["layers"] is None:
            result["failures"].append("no per-layer metrics: counts differ between traced "
                                      "repetitions, or no traced/untraced pair completed")
    result["correct"] = (result["failed"] == 0 and len(untraced) > 0
                         and result["threads_identical"]
                         and (not trace or result["layers"] is not None))
    result["repetitions"] = reps
    return result


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict | None:
    """Per-layer metrics: counts from one traced repetition, medians otherwise.

    Counts must repeat exactly across repetitions at one seed; if they do
    not, the run is not correct (``None``).
    """
    if not traced or not untraced:
        return None
    names = spans.per_layer_metric_names(spans.load_layers())
    exact = [n for n in names if not n.endswith("_s") and n != "trace_overhead_frac"]
    if any(r["layers"][n] != traced[0]["layers"][n] for r in traced for n in exact):
        return None
    out = {n: statistics.median(r["layers"][n] for r in traced) for n in names
           if n in traced[0]["layers"]}
    out["trace_overhead_frac"] = (
        statistics.median(r["wall_s"] * host_factor(r) for r in traced)
        / statistics.median(r["wall_s"] * host_factor(r) for r in untraced) - 1.0)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    return "frac" if name.endswith("_frac") else "count"


def report(result: dict, env: dict) -> list[str]:
    lines = [
        f"== {result['workload']}  seed={result['seed']} (cli --seed {result['cli_seed']})"
        f"  trace={int(result['trace'])}  repetitions={result['attempted']}"
        f" in {result['measured_s']:.1f} s",
        f"   env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']['name']} "
        f"{env['blas']['version']}, nproc {env['nproc']}, child thread caps {nproc()}",
    ]
    rows = [(name, "adjusted" if name in ADJUSTED else "", s)
            for name, s in result["summary"].items()]
    rows += [(name, "raw", s) for name, s in result["raw_summary"].items()]
    for name, kind, s in rows:
        unit = END_TO_END[name]
        tail = (f"p{s['tail_percentile']} {s['tail_value']:.4f} {unit}"
                if s["tail_percentile"] is not None else "no tail percentile (n < 11)")
        lines.append(f"   {name:<12} {kind:<8} median {s['median']:.4f} {unit:<4} {tail:<24}"
                     f" n={s['n']}")
    lines.append(f"   {'failed_frac':<12} {result['failed'] / result['attempted']:.4f}"
                 f"      ({result['failed']}/{result['attempted']} invocations failed)")
    lines += [f"     failure: {f}" for f in result["failures"]]
    agree = sum(r.get("sha256") == result["sha256"] for r in result["repetitions"])
    lines.append(f"   sha256       {result['sha256']}  ({agree}/{result['attempted']} agree)")
    lines.append(f"   ir-sweep threads 1 vs 2 byte-identical: {result['threads_identical']}")
    for name, value in (result.get("layers") or {}).items():
        lines.append(f"   {name:<52} {value:.6g} {unit_of(name)}")
    return lines


def environment(runner: Runner) -> dict:
    """Interpreter, numpy and BLAS set-up as a child sees it; also warms up."""
    record = runner.child("env", [], "env")
    if "failure" in record:
        raise RuntimeError(record["failure"])
    env = record["env"]
    env["nproc"] = nproc()
    return env


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rdts" / "cli.py").is_file():
        sys.stderr.write(f"rdts sources not found at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    runner = Runner(started + DEADLINE_S)
    env = environment(runner)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for i, name in enumerate(names):
        if i > 0:  # with --workload all, each workload gets a full deadline
            runner.deadline = time.perf_counter() + DEADLINE_S
        result = run_workload(runner, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["env"] = env
        results.append(result)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        print("\n".join(report(result, env)))
        print(f"   record: {path.relative_to(ROOT)}")

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        if args.trace:
            values = {n: (v, unit_of(n)) for n, v in (result["layers"] or {}).items()}
        else:
            values = {n: (s["median"], END_TO_END[n]) for n, s in result["summary"].items()}
        metrics.update({prefix + n: {"value": v, "unit": u} for n, (v, u) in values.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
