"""Reproducible experiment runner.

Subcommands: ``ir-sweep`` (information-ratio sweep over random instances),
``regret`` (Monte Carlo regret vs. the closed-form bound), ``partition``
(builder diagnostics), ``bounds`` (bound evaluators), ``audit`` (inequality
chain audit). Outputs are byte-identical for a fixed (config, seed).

Every subcommand writes one table or document through ``_write``, which
honours ``--format csv|json``. The default format is each subcommand's
natural one: CSV for ``ir-sweep``, ``regret`` and ``bounds``; JSON for
``partition`` and ``audit``. The JSON form of a table is a list of row
objects; the CSV form of a document is one row, except ``audit``, whose CSV
holds its ``periods`` rows. JSON output is exactly ``json.dumps(doc,
indent=2)`` plus a newline: ASCII-escaped, with ``NaN`` and ``Infinity``
spelled as Python's ``json`` spells them.

Each flag carries its default. ``--config`` names a JSON object whose keys
that match the subcommand's own flags (by argparse dest) replace those
defaults; flags given on the command line still win. Keys that name a flag
of another subcommand are ignored, and a key that names no subcommand's
flag is a config error. ``--threads`` is
accepted and ignored: cells run in order in one thread, so it changes
neither the output nor the speed.

Exit codes: 0 success / criteria met, 1 criteria violated, 2 config error.
Exit 2 also covers the two arithmetic failures an input can cause, an
infeasible two-point representative (``compression.Infeasible``) and a
positive regret with no information gain
(``information.DegenerateInformation``): like a config error, each is
reported as one JSON line ``{"error": ..., "message": ...}`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .compression import (
    Infeasible,
    best_action_margins,
    build_partition_glm,
    build_partition_logistic,
    realized_link_slope,
    statistic_mutual_information,
)
from .inference import BeliefState
from .information import DegenerateInformation, ts_info_ratio
from .model import (
    GLM,
    LINEAR_BINARY,
    LOGISTIC,
    OutcomeModel,
    sample_instance,
)
from .policy import audit_regret_chain, simulate_ts
from .tolerances import RATIO_CEILING_TOL


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    # floats first, as most cells are: neither bool nor np.bool_ is a float
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _json_default(value):
    # returns only scalars: ``_json_pieces`` hands containers whose values are
    # all scalars to the C encoder whole, and a container returned here would
    # be encoded there without indentation
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _json_pieces(doc) -> list[str]:
    """The text of ``json.dumps(doc, indent=2, default=_json_default)``, in
    pieces, produced by json's C encoder.

    ``json`` encodes in pure Python whenever ``indent`` is set. Here a
    container whose values are all scalars is one C-encoder call whose item
    separator is a comma, a newline and the items' indent; only the newlines
    after its opening and before its closing bracket are added. Other
    nesting recurses, with json's circular-reference check.
    """
    pieces: list[str] = []
    encoders: dict[int, json.JSONEncoder] = {}
    open_ids: set[int] = set()

    def encoder(depth: int) -> json.JSONEncoder:
        if depth not in encoders:
            encoders[depth] = json.JSONEncoder(
                separators=(",\n" + "  " * depth, ": "), default=_json_default
            )
        return encoders[depth]

    def key_text(key) -> str:
        # json's rule: a str key as is; a float, int, bool or None key as the
        # string of its JSON text
        if not isinstance(key, str):
            if not (key is None or isinstance(key, (int, float))):
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                )
            key = encoder(0).encode(key)
        return encoder(0).encode(key)

    def emit(value, depth: int) -> None:
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple))):
            pieces.append(encoder(depth).encode(value))
            return
        types = set(map(type, value.values() if is_dict else value))
        brackets = "{}" if is_dict else "[]"
        pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        if not value:
            pieces.append(brackets)
        elif not any(issubclass(t, (dict, list, tuple)) for t in types):
            text = encoder(depth + 1).encode(value)
            pieces.extend((text[0], inner, text[1:-1], pad, text[-1]))
        else:
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(value))
            pieces.append(brackets[0])
            for n, item in enumerate(value.items() if is_dict else value):
                pieces.append(inner if n == 0 else "," + inner)
                if is_dict:
                    pieces.extend((key_text(item[0]), ": "))
                    item = item[1]
                emit(item, depth + 1)
            pieces.extend((pad, brackets[1]))
            open_ids.discard(id(value))

    emit(doc, 0)
    return pieces


def _write(args, header: list[str], rows, doc=None) -> None:
    """Write ``header`` and ``rows`` as CSV (a field holding ``,`` or ``"``
    is quoted) or, under ``--format json``, ``doc`` (by default one object
    per row) to ``--out`` or stdout.

    The JSON text is exactly ``json.dumps(doc, indent=2)`` plus a newline:
    ASCII-escaped, with non-finite floats spelled ``NaN``, ``Infinity`` and
    ``-Infinity`` as Python's ``json`` spells them. ``_json_pieces`` builds
    it through json's C encoder, and the pieces are written in order."""
    if args.format == "json":
        if doc is None:
            doc = [dict(zip(header, row)) for row in rows]
        pieces = _json_pieces(doc)
        pieces.append("\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        pieces = [buf.getvalue()]
    if args.out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)


def _parse_list(text: str, conv) -> list:
    return [conv(tok) for tok in text.split(",") if tok.strip()]


def _make_model(kind: str, beta: float, eta: float) -> OutcomeModel:
    """``kind``'s model given only the parameters it uses (OutcomeModel
    rejects an unknown kind)."""
    return OutcomeModel(
        kind=kind, beta=None if kind == LINEAR_BINARY else beta, eta=eta if kind == GLM else None
    )


def _svg_scatter(path: str, points: list[tuple[float, float]], slope: float) -> None:
    """Flat ratio-vs-d scatter with the dashed slope line, no dependencies."""
    width, height, pad = 640, 480, 50
    xs = [p[0] for p in points] or [1.0]
    ys = [p[1] for p in points] or [1.0]
    x_max = max(max(xs), 1.0) * 1.05
    y_max = max(max(ys), slope * x_max) * 1.05

    def sx(x: float) -> float:
        return pad + (width - 2 * pad) * x / x_max

    def sy(y: float) -> float:
        return height - pad - (height - 2 * pad) * y / y_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(x_max)}" y2="{sy(slope * x_max)}" '
        'stroke="black" stroke-dasharray="6,4"/>',
    ]
    for x, y in points:
        parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="2" fill="steelblue"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_ir_sweep(args) -> int:
    kind = args.model
    d_list = _parse_list(args.d_list, int)
    beta_list = _parse_list(args.beta_list, float) if kind == LOGISTIC else [0.0]
    if args.instances < 0 or args.n < 1 or args.m < 1 or not d_list or not beta_list:
        raise ConfigError("invalid sweep grid")
    # one seed per grid cell, spawned in grid order
    children = iter(
        np.random.SeedSequence(args.seed).spawn(len(d_list) * len(beta_list) * args.instances)
    )
    rows = []
    for d in d_list:
        for beta in beta_list:
            for inst_id in range(args.instances):
                rng = np.random.default_rng(next(children))
                model = _make_model(kind, beta, 0.0)
                instance = sample_instance(rng, d, args.n, args.m, model)
                belief = BeliefState(rng.dirichlet(np.ones(args.m)))
                report = ts_info_ratio(instance, belief)
                violated = report.ratio > d / 2.0 + RATIO_CEILING_TOL
                rows.append((d, beta, inst_id, report.numerator, report.denominator,
                             report.ratio, d / 2.0, violated))
    # sorted by (d, beta, instance) whatever the order of --d-list and --beta-list
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    header = [
        "d",
        "beta",
        "instance_id",
        "numerator",
        "denominator_nats",
        "ratio",
        "bound_d_over_2",
        "violated",
    ]
    _write(args, header, rows)
    if args.svg:
        _svg_scatter(args.svg, [(r[0], r[5]) for r in rows], 0.5)
    return 1 if any(r[7] for r in rows) else 0


def cmd_regret(args) -> int:
    model = _make_model(args.model, args.beta, args.eta)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    instance = sample_instance(rng, args.d, args.n, args.m, model)
    prior = BeliefState.uniform(args.m)
    trace = simulate_ts(
        instance, prior, args.T, args.runs, rng, realized_rewards=args.realized
    )
    # the instance's constant in the bound is computed once, not per row
    if args.model == GLM:
        slope = realized_link_slope(instance)
    elif args.model == LOGISTIC:
        delta = float(np.min(np.abs(best_action_margins(instance))))
        if delta <= 0:
            raise ConfigError("logistic bound needs a positive margin")

    def bound_at(t: int) -> float:
        if args.model == LINEAR_BINARY:
            return bounds_mod.linear_bound(args.d, t)
        if args.model == GLM:
            return bounds_mod.glm_bound(args.d, t, slope)
        return bounds_mod.logistic_bound(args.d, t, args.beta, delta)[0]

    rows = [
        (t, r, cum, se, bound_at(t))
        for t, r, cum, se in trace.csv_rows()
    ]
    _write(args, ["t", "mean_regret", "cum_regret", "std_err", "bound_value"], rows)
    if not rows:
        return 0
    return 0 if rows[-1][2] <= rows[-1][4] else 1


def cmd_partition(args) -> int:
    model = _make_model(args.model, args.beta, args.eta)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    instance = sample_instance(rng, args.d, args.n, args.m, model)
    if args.builder == "logistic":
        if args.model != LOGISTIC:
            raise ConfigError("logistic builder needs --model logistic")
        if args.delta is None:
            raise ConfigError("logistic builder needs --delta")
        partition = build_partition_logistic(instance, args.epsilon, args.delta)
        formula = bounds_mod.partition_count_bounds(
            args.d, args.epsilon, LOGISTIC, beta=args.beta, delta=args.delta
        )
    else:
        # the one cover builder; at the linear model's C(phi) = 1/2 the glm
        # count (2 C(phi) / epsilon + 1)^d is the linear (1 / epsilon + 1)^d
        partition = build_partition_glm(instance, args.epsilon)
        formula = bounds_mod.partition_count_bounds(
            args.d, args.epsilon, GLM, c_phi_value=realized_link_slope(instance)
        )
    belief = BeliefState.uniform(args.m)
    report = {
        "K": partition.K,
        "epsilon": partition.epsilon,
        "max_intra_cell_distortion": float(partition.distortion.max(initial=0.0)),
        "formula_bound": formula,
        "I_theta_psi_nats": statistic_mutual_information(belief, partition),
    }
    _write(args, list(report), [report.values()], report)
    return 0


def cmd_bounds(args) -> int:
    which = args.which
    if which == "linear":
        value = bounds_mod.linear_bound(args.d, args.T)
        inputs = {"d": args.d, "T": args.T}
    elif which == "glm":
        value = bounds_mod.glm_bound(args.d, args.T, args.c_phi)
        inputs = {"d": args.d, "T": args.T, "c_phi": args.c_phi}
    elif which == "logistic":
        if args.delta is None:
            raise ConfigError("logistic bound needs --delta")
        value, simplified = bounds_mod.logistic_bound(
            args.d, args.T, args.beta, args.delta
        )
        inputs = {
            "d": args.d,
            "T": args.T,
            "beta": args.beta,
            "delta": args.delta,
            "simplified": simplified,
        }
    elif which == "entropy":
        value = bounds_mod.entropy_bound(args.gamma_bar, args.entropy_nats, args.T)
        inputs = {"gamma_bar": args.gamma_bar, "H": args.entropy_nats, "T": args.T}
    elif which == "compressed":
        value = bounds_mod.compressed_bound(
            args.gamma_bar, args.info_nats, args.epsilon, args.T
        )
        inputs = {
            "gamma_bar": args.gamma_bar,
            "I": args.info_nats,
            "epsilon": args.epsilon,
            "T": args.T,
        }
    elif which == "partition-count":
        value = bounds_mod.partition_count_bounds(
            args.d,
            args.epsilon,
            args.model,
            c_phi_value=args.c_phi,
            beta=args.beta,
            delta=args.delta,
        )
        inputs = {"d": args.d, "epsilon": args.epsilon, "kind": args.model}
    else:
        raise ConfigError(f"unknown bound {which!r}")
    report = {"name": which, "value": value, "inputs": inputs}
    _write(args, list(report), [report.values()], report)
    return 0


def cmd_audit(args) -> int:
    model = _make_model(args.model, args.beta, args.eta)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    instance = sample_instance(rng, args.d, args.n, args.m, model)
    partition = build_partition_glm(instance, args.epsilon)
    prior = BeliefState.uniform(args.m)
    report = audit_regret_chain(instance, prior, partition, args.T, rng, runs=args.runs)
    periods = report.rows
    _write(
        args,
        list(periods[0]) if periods else [],
        [p.values() for p in periods],
        {
            "passed": report.passed,
            "gamma_bar": report.gamma_bar,
            "epsilon": report.epsilon,
            "info_prior_nats": report.info_prior_nats,
            "mean_cumulative_regret": report.mean_cumulative_regret,
            "bound_value": report.bound_value,
            "periods": periods,
        },
    )
    return 0 if report.passed else 1


_MODELS = (LINEAR_BINARY, GLM, LOGISTIC)

# flags several subcommands share: name -> add_argument keywords
_SHARED = {
    "d": dict(type=int, default=2),
    "n": dict(type=int, default=100),
    "m": dict(type=int, default=100),
    "T": dict(type=int, default=100),
    "runs": dict(type=int, default=100),
    "beta": dict(type=float, default=1.0),
    "eta": dict(type=float, default=0.05),
    "epsilon": dict(type=float, default=0.1),
    "delta": dict(type=float, default=None),
}

# the flag table, from which both the parsers and --config's known keys come:
# subcommand -> (function, summary, default --format, --model choices (None:
# any), shared flags, its own flags as (option string, add_argument keywords))
_COMMANDS = {
    "ir-sweep": (
        cmd_ir_sweep, "information-ratio sweep over random instances", "csv",
        (LOGISTIC, LINEAR_BINARY), "n m", (
            ("--d-list", dict(dest="d_list", type=str,
                              default="2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20")),
            ("--beta-list", dict(dest="beta_list", type=str, default="0.1,1,10,100")),
            ("--instances", dict(type=int, default=100)),
            ("--svg", dict(type=str, default=None)),
        ),
    ),
    "regret": (
        cmd_regret, "Monte Carlo regret vs. the closed-form bound", "csv", _MODELS,
        "d n m T runs beta eta", (("--realized", dict(action="store_true")),),
    ),
    "partition": (
        cmd_partition, "build a partition and report diagnostics", "json", _MODELS,
        "d n m epsilon delta beta eta", (
            ("--builder", dict(type=str, default=None, choices=["logistic"],
                               help="logistic: the layered builder (needs --delta); unset: "
                                    "the one cover builder, at radius epsilon / (2 C(phi))")),
        ),
    ),
    "bounds": (
        cmd_bounds, "evaluate a closed-form bound", "csv", None, "d T beta delta epsilon", (
            ("--which", dict(type=str, default="linear")),
            ("--c-phi", dict(dest="c_phi", type=float, default=0.5)),
            ("--gamma-bar", dict(dest="gamma_bar", type=float, default=0.0)),
            ("--entropy-nats", dict(dest="entropy_nats", type=float, default=0.0)),
            ("--info-nats", dict(dest="info_nats", type=float, default=0.0)),
        ),
    ),
    "audit": (
        cmd_audit, "audit the regret-bound inequality chain", "json", _MODELS,
        "d n m T runs epsilon beta eta", (),
    ),
}


def _flags(name: str) -> list[tuple[str, dict]]:
    """Subcommand ``name``'s flags in the order its help lists them: the ones
    every subcommand has, --model and the shared flags first, then its own."""
    _, _, fmt, models, shared, own = _COMMANDS[name]
    return [
        ("--model", dict(type=str, default=LOGISTIC, choices=models)),
        *((f"--{flag}", _SHARED[flag]) for flag in shared.split()),
        ("--seed", dict(type=int, default=0, help="root RNG seed")),
        ("--out", dict(type=str, default=None, help="output path (default stdout)")),
        ("--format", dict(type=str, default=fmt, choices=["csv", "json"])),
        ("--config", dict(type=str, default=None, help="JSON config file; flags override")),
        ("--threads", dict(type=int, default=1,
                           help="accepted and ignored; changes neither output nor speed")),
        *own,
    ]


def _config_keys() -> set[str]:
    """Every subcommand's flags by argparse dest, and ``help``, the dest of
    each parser's -h."""
    return {"help"} | {
        keywords.get("dest", option[2:].replace("-", "_"))
        for name in _COMMANDS for option, keywords in _flags(name)
    }


def build_parser(
    flagged=tuple(_COMMANDS),
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``rdts`` parser and its subcommand parsers by name. Every
    subcommand is registered, so the top-level help, usage and errors never
    change, but only the subcommands in ``flagged`` get their flags."""
    parser = argparse.ArgumentParser(prog="rdts")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name in flagged:
            for option, keywords in _flags(name):
                p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser, sub.choices


def _config_defaults(command: argparse.ArgumentParser, values: dict) -> dict:
    """The config entries that name one of ``command``'s flags (by dest),
    each converted as argparse converts that flag's command-line text: a
    string is the text, a number its JSON text, and an on/off flag takes a
    bool. A value the flag could not take is a ConfigError."""
    defaults = {}
    for action in command._actions:
        key = action.dest
        if key not in values or key in ("help", "config"):
            continue
        value = values[key]
        if action.nargs == 0:  # an on/off flag
            ok = isinstance(value, bool)
        elif value is None:
            ok = action.default is None
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            try:
                value = action.type(value if isinstance(value, str) else json.dumps(value))
                ok = action.choices is None or value in action.choices
            except ValueError:
                ok = False
        else:
            ok = False
        if not ok:
            flag = action.option_strings[0]
            raise ConfigError(f"config value {values[key]!r} is not valid for {flag}")
        defaults[key] = value
    return defaults


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse runs the first positional argument as the subcommand, and the
    # top-level parser takes no values, so the first argument that names a
    # subcommand is the only one whose flags can be read (or it errs)
    parser, commands = build_parser([arg for arg in argv if arg in _COMMANDS][:1])
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                values = json.load(fh)
            if not isinstance(values, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = sorted(set(values) - _config_keys())
            if unknown:
                raise ConfigError(f"config key {unknown[0]!r} names no flag of any subcommand")
            # the file's keys become this subcommand's defaults, then flags win
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, values))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, Infeasible, DegenerateInformation) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
