"""Command-line front end: prepare | fit | infer | probs | graph | simulate.

Every subcommand accepts ``--config FILE`` (a flat JSON object whose keys
are the long option names with underscores); explicit flags win over the
config file, which wins over built-in defaults.  Exit codes are stable:
0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .errors import DataError, NumericalError
from .fit import FitConfig, FitResult, fit
from .graph import build_network, emit_dot, network_to_json_dict
from .inference import (
    InferenceReport,
    build_report,
    default_groups,
    format_report_tables,
)
from .model import enumerate_pmf, marginal_probability, pairwise_joint, sample
from .params import FvbmParams, flat_labels, flat_length
from .votes import (
    ImputeConfig,
    SplitResolution,
    Vote,
    drop_sparse_columns,
    encode_agreement,
    knn_impute,
    parse_split_records,
    parse_votes,
    read_spin_csv,
    resolve_splits,
    spin_matrix_to_json_dict,
    write_spin_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = jsonio.load(path)
    if not isinstance(cfg, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return cfg


def _effective(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge CLI flags, config-file values, and defaults (in that order)."""
    cfg = _load_config(getattr(args, "config", None))
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    merged = {}
    for key, default in defaults.items():
        cli = getattr(args, key, None)
        if cli is not None and cli is not False:
            merged[key] = cli
        elif key in cfg:
            merged[key] = cfg[key]
        else:
            merged[key] = default
    return merged


def _require(merged: dict, key: str, flag: str):
    if merged[key] is None:
        raise UsageError(f"{flag} is required (flag or config file)")
    return merged[key]


def _default_labels(d: int) -> list[str]:
    return [f"X{i + 1}" for i in range(d)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_PREPARE_DEFAULTS = {
    "splits": None,
    "reference": None,
    "extract_member": None,
    "extract_label": None,
    "k": 3,
    "drop_threshold": 0.5,
    "output": None,
    "json": None,
    "provenance": None,
}


def cmd_prepare(args) -> None:
    opt = _effective(args, _PREPARE_DEFAULTS)
    reference = _require(opt, "reference", "--reference")
    output = Path(_require(opt, "output", "--output"))

    table = parse_votes(args.votes)
    split_cells = [
        (r, c)
        for r, row in enumerate(table.cells)
        for c, v in enumerate(row)
        if v is Vote.SPLIT
    ]
    if split_cells and opt["splits"] is None:
        r, c = split_cells[0]
        raise DataError(
            f"split cell at {table.dates[r]} #{table.numbers[r]} "
            f"(party {table.parties[c]!r}) but no split records file was given"
        )
    resolution = (
        parse_split_records(opt["splits"]) if opt["splits"] else SplitResolution({})
    )
    resolved = resolve_splits(
        table,
        resolution,
        extract_member=opt["extract_member"],
        extract_label=opt["extract_label"],
    )
    kept = drop_sparse_columns(resolved, threshold=float(opt["drop_threshold"]))
    dropped = [p for p in resolved.parties if p not in kept.parties]
    missing = sum(v is Vote.MISSING for row in kept.cells for v in row)
    complete = knn_impute(kept, ImputeConfig(k=int(opt["k"])))
    agreement = encode_agreement(complete, reference)
    write_spin_csv(output, agreement.labels, agreement.values)
    if opt["json"]:
        jsonio.dump(
            spin_matrix_to_json_dict(agreement.labels, agreement.values), opt["json"]
        )

    prov_path = Path(opt["provenance"]) if opt["provenance"] else output.with_suffix(
        output.suffix + ".prov.json"
    )
    jsonio.dump(
        {
            "schema_version": 1,
            "rows": table.n,
            "reference": reference,
            "extract_member": opt["extract_member"],
            "k": int(opt["k"]),
            "drop_threshold": float(opt["drop_threshold"]),
            "split_cells_resolved": len(split_cells),
            "dropped_columns": dropped,
            "imputed_cells": int(missing),
            "columns": agreement.labels,
        },
        prov_path,
    )


_FIT_DEFAULTS = {
    "output": None,
    "tol": 1e-8,
    "max_iter": 1000,
    "init": None,
    "strict": False,
}


def cmd_fit(args) -> None:
    opt = _effective(args, _FIT_DEFAULTS)
    output = _require(opt, "output", "--output")
    labels, data = read_spin_csv(args.data)
    init = (
        FvbmParams.from_json_dict(jsonio.load(opt["init"])) if opt["init"] else None
    )
    config = FitConfig(
        max_iterations=int(opt["max_iter"]),
        objective_tolerance=float(opt["tol"]),
        init=init,
    )
    result = fit(data, config)
    if result.degenerate_columns:
        names = ", ".join(labels[j] for j in result.degenerate_columns)
        message = f"column(s) {names} are constant; their biases have no finite optimum"
        if opt["strict"]:
            raise DataError(message)
        print(f"warning: {message}", file=sys.stderr)
    trace = result.objective_trace
    met = trace.size > 1 and abs(trace[-1] - trace[-2]) < config.objective_tolerance
    large = result.large_step_coordinates()
    if not met:
        where = (
            f"at max_iterations={config.max_iterations}"
            if result.iterations_used == config.max_iterations
            else f"after {result.iterations_used} iterations, where backtracking "
            f"found no step that does not lower the objective,"
        )
        print(
            f"warning: fit stopped {where} without meeting the objective tolerance",
            file=sys.stderr,
        )
    elif large:
        names = flat_labels(labels)
        print(
            f"warning: fit stopped with a large last step (up to "
            f"{np.abs(result.last_step).max():.3g}) on "
            f"{', '.join(names[q] for q in large)}; the estimate does not exist "
            f"(separation or a constant column)",
            file=sys.stderr,
        )
    jsonio.dump(result.to_json_dict(labels), output)


_INFER_DEFAULTS = {
    "output": None,
    "tables": None,
    "fdr": "by",
    "groups": "subtables",
}


def _load_fit(path) -> tuple[FitResult, list[str] | None]:
    obj = jsonio.load(path)
    result = FitResult.from_json_dict(obj)
    labels = obj.get("labels")
    return result, labels


def cmd_infer(args) -> None:
    opt = _effective(args, _INFER_DEFAULTS)
    output = _require(opt, "output", "--output")
    if opt["groups"] not in ("subtables", "single"):
        raise UsageError(f"--groups must be 'subtables' or 'single', got {opt['groups']!r}")
    fit_result, fit_labels = _load_fit(args.fit)
    labels, data = read_spin_csv(args.data)
    d = fit_result.params.d
    if data.shape[1] != d:
        raise DataError(f"fit has d={d} but data has {data.shape[1]} columns")
    if fit_labels is not None and fit_labels != labels:
        raise DataError(
            f"fit labels {fit_labels} do not match data labels {labels}"
        )
    groups = (
        default_groups(d)
        if opt["groups"] == "subtables"
        else {"all": list(range(flat_length(d)))}
    )
    try:
        report = build_report(
            fit_result,
            data,
            groups=groups,
            method=str(opt["fdr"]),
            coordinate_names=flat_labels(labels),
        )
    except DataError as exc:
        raise DataError(f"fit file {args.fit}: {exc}") from exc
    jsonio.dump(report.to_json_dict(labels), output)
    tables_path = (
        Path(opt["tables"]) if opt["tables"] else Path(output).with_suffix(".tables.txt")
    )
    tables_path.write_text(format_report_tables(report, labels), encoding="utf-8")


_PROBS_DEFAULTS = {"output": None, "pair": None}


def cmd_probs(args) -> None:
    opt = _effective(args, _PROBS_DEFAULTS)
    output = _require(opt, "output", "--output")
    fit_result, labels = _load_fit(args.fit)
    params = fit_result.params
    if labels is None:
        labels = _default_labels(params.d)
    table = enumerate_pmf(params)
    marginals = {
        label: marginal_probability(table, j) for j, label in enumerate(labels)
    }
    pairs_out = []
    for spec in opt["pair"] or []:
        names = [s.strip() for s in spec.split(",")]
        if len(names) != 2:
            raise UsageError(f"--pair wants 'A,B', got {spec!r}")
        try:
            j, k = (labels.index(name) for name in names)
        except ValueError:
            raise DataError(f"pair {spec!r} names a column not present in {labels}")
        joint = pairwise_joint(table, j, k)
        pairs_out.append(
            {
                "a": names[0],
                "b": names[1],
                "joint": {
                    "++": float(joint[0, 0]),
                    "+-": float(joint[0, 1]),
                    "-+": float(joint[1, 0]),
                    "--": float(joint[1, 1]),
                },
                "concordance": float(joint[0, 0] + joint[1, 1]),
            }
        )
    jsonio.dump(
        {
            "schema_version": 1,
            "labels": labels,
            "marginals": marginals,
            "pairs": pairs_out,
        },
        output,
    )


_GRAPH_DEFAULTS = {"mode": "raw", "level": 0.05, "dot": None, "json": None}


def cmd_graph(args) -> None:
    opt = _effective(args, _GRAPH_DEFAULTS)
    if opt["dot"] is None and opt["json"] is None:
        raise UsageError("at least one of --dot or --json is required")
    obj = jsonio.load(args.report)
    report = InferenceReport.from_json_dict(obj)
    labels = obj.get("labels")
    if labels is None:
        dims = [
            d for d in range(1, report.n_params + 1) if flat_length(d) == report.n_params
        ]
        if not dims:
            raise DataError(
                f"report has {report.n_params} coordinates, which matches no "
                f"bias-plus-upper-triangle layout"
            )
        labels = _default_labels(dims[0])
    spec = build_network(report, labels, mode=str(opt["mode"]), level=float(opt["level"]))
    if opt["dot"]:
        Path(opt["dot"]).write_text(emit_dot(spec), encoding="utf-8")
    if opt["json"]:
        jsonio.dump(network_to_json_dict(spec), opt["json"])


_SIMULATE_DEFAULTS = {"n": None, "seed": 0, "output": None, "labels": None}


def cmd_simulate(args) -> None:
    opt = _effective(args, _SIMULATE_DEFAULTS)
    output = _require(opt, "output", "--output")
    n = int(_require(opt, "n", "--n"))
    if n < 0:
        raise UsageError(f"--n must be nonnegative, got {n}")
    params = FvbmParams.from_json_dict(jsonio.load(args.params))
    if opt["labels"]:
        labels = [s.strip() for s in str(opt["labels"]).split(",")]
        if len(labels) != params.d:
            raise UsageError(
                f"{len(labels)} labels given for a model with d={params.d}"
            )
    else:
        labels = _default_labels(params.d)
    draws = sample(params, n, seed=int(opt["seed"]))
    write_spin_csv(output, labels, draws)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fvbm",
        description="Fit and analyze fully-visible Boltzmann machines on +/-1 data.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("prepare", help="votes CSV -> +/-1 agreement matrix CSV")
    p.add_argument("votes", help="party-level divisions CSV")
    p.add_argument("--splits", help="member-level records CSV for Split cells")
    p.add_argument("--reference", help="reference (government) party column")
    p.add_argument("--extract-member", dest="extract_member", help="senator to pull out as a separate column")
    p.add_argument("--extract-label", dest="extract_label", help="column label for the extracted member")
    p.add_argument("--k", type=int, help="neighbors for k-NN imputation (default 3)")
    p.add_argument("--drop-threshold", dest="drop_threshold", type=float, help="drop columns with a higher missing fraction (default 0.5)")
    p.add_argument("-o", "--output", help="output +/-1 CSV path")
    p.add_argument("--json", help="also write the matrix as JSON here")
    p.add_argument("--provenance", help="provenance JSON path (default <output>.prov.json)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("fit", help="+/-1 CSV -> fitted parameters JSON")
    p.add_argument("data", help="+/-1 matrix CSV with a header row")
    p.add_argument("-o", "--output", help="output fit JSON path")
    p.add_argument("--tol", type=float, help="objective tolerance (default 1e-8)")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap (default 1000)")
    p.add_argument("--init", help="params JSON to start from (default zeros)")
    p.add_argument("--strict", action="store_true", help="treat degenerate columns as errors")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("infer", help="fit JSON + data CSV -> report JSON (+ text tables)")
    p.add_argument("fit", help="fit JSON from the fit subcommand")
    p.add_argument("data", help="the +/-1 CSV the fit came from")
    p.add_argument("-o", "--output", help="output report JSON path")
    p.add_argument("--tables", help="text tables path (default <output>.tables.txt)")
    p.add_argument("--fdr", choices=["by", "bh"], help="FDR adjustment method (default by)")
    p.add_argument("--groups", choices=["subtables", "single"], help="adjust bias/interaction blocks separately (default) or together")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("probs", help="fit JSON -> exact marginal/joint probabilities")
    p.add_argument("fit", help="fit JSON")
    p.add_argument("-o", "--output", help="output probabilities JSON path")
    p.add_argument("--pair", action="append", help="column pair 'A,B' to report jointly (repeatable)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("graph", help="report JSON -> significance network (DOT/JSON)")
    p.add_argument("report", help="report JSON from the infer subcommand")
    p.add_argument("--mode", choices=["raw", "fdr"], help="p-values driving significance (default raw)")
    p.add_argument("--level", type=float, help="significance / FDR level (default 0.05)")
    p.add_argument("--dot", help="output DOT path")
    p.add_argument("--json", help="output network JSON path")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("simulate", help="params JSON -> seeded exact sample CSV")
    p.add_argument("params", help="params JSON ({d, bias, interaction_upper})")
    p.add_argument("--n", type=int, help="number of rows to draw")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--labels", help="comma-separated column labels")
    p.add_argument("-o", "--output", help="output CSV path")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else 1
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())
