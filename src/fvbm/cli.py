"""Command-line front end: prepare | fit | infer | probs | graph | simulate.

Every subcommand accepts ``--config FILE``, a flat JSON object whose keys
are the long option names with underscores.  Its entries are parsed by the
same argparse declarations as the flags; explicit flags win over the config
file, which wins over the declared defaults.  Exit codes are stable:
0 success, 1 usage error, 2 data error, 3 numerical failure.

Column labels read from a spin CSV, fit file or report file must be d
distinct strings (``params.check_labels``); a record without labels gets
X1..Xd.  Any fault found while an input file is read and parsed is a data
error naming the file (``_naming``); ``FitResult.unconverged_reason`` words
every unconverged fit, in ``fit``'s warning and in ``infer``'s refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .errors import DataError, NumericalError
from .fit import FitConfig, FitResult, fit
from .graph import build_network, check_level, emit_dot
from .inference import (
    InferenceReport,
    build_report,
    default_groups,
    format_report_tables,
)
from .model import _draw_states, concordance, enumerate_pmf, marginal_probability, pairwise_joint
from .params import FvbmParams, check_labels, flat_labels, flat_length
from .votes import (
    ImputeConfig,
    Vote,
    _write_state_csv,
    check_drop_threshold,
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


# The parent of every subcommand parser, and of the pre-pass that finds the file.
_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument(
    "--config",
    metavar="FILE",
    help="JSON object of option values keyed by long option name; flags win",
)


@contextlib.contextmanager
def _naming(source: str):
    """Re-raise a ValueError of the block as a DataError led by ``source``, unless it names it."""
    try:
        yield
    except ValueError as exc:
        if source in str(exc):
            raise
        raise DataError(f"{source}: {exc}") from exc


def _checked(convert, check):
    """An argparse type: the flag's text as ``convert`` reads it, refused
    with ``check``'s message where ``check`` raises a ValueError.

    ``check`` is the library's own range rule, so a value out of range is
    a usage error that names the flag, given as a flag or a config entry.
    """

    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _nonnegative(value: int) -> None:
    if value < 0:
        raise ValueError(f"must be nonnegative, got {value}")


def _config_tokens(action: argparse.Action, value) -> list[str]:
    """The argv tokens that give ``action`` a config file's ``value``.

    ``null`` gives none.  A switch takes only ``true`` or ``false``, and only
    a repeatable option takes a list, one token per item.
    """
    if value is None:
        return []
    flag = action.option_strings[-1]
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise UsageError(f"config key {action.dest!r} must be true or false, got {value!r}")
        return [flag] if value else []
    repeatable = isinstance(action, argparse._AppendAction)
    items = value if repeatable and isinstance(value, list) else [value]
    if any(item is None or isinstance(item, (bool, list, dict)) for item in items):
        kind = "a string or number, or a list of them" if repeatable else "a string or number"
        raise UsageError(f"config key {action.dest!r} must be {kind}, got {value!r}")
    return [f"{flag}={item}" for item in items]


def _parse_args(parser, commands: dict, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with its ``--config`` entries spliced in after the
    subcommand, ahead of the explicit options, which therefore win.

    Config keys are the dests of the subcommand's options.  Flags of a
    repeatable option replace the config's items instead of adding to them.
    """
    found = _Parser(add_help=False, parents=[_CONFIG])
    found.add_argument("-h", "--help", action="store_true")
    known = found.parse_known_args(argv)[0]
    if known.config is None or known.help or not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    with _naming(f"config file {known.config}"):
        cfg = jsonio.load(known.config)
        if not isinstance(cfg, dict):
            raise DataError("it must hold a JSON object")
    actions = {
        a.dest: a
        for a in commands[argv[0]]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        raise UsageError(f"unknown config key(s) for {argv[0]}: {', '.join(unknown)}")
    tokens = {key: _config_tokens(actions[key], value) for key, value in cfg.items()}
    args = parser.parse_args([argv[0], *(t for ts in tokens.values() for t in ts), *argv[1:]])
    for key, ts in tokens.items():
        given = getattr(args, key)
        if isinstance(actions[key], argparse._AppendAction) and len(given or ()) > len(ts):
            setattr(args, key, given[len(ts):])
    return args


def _labels(labels, d: int) -> list[str]:
    """X1..Xd for a record without labels, else ``labels`` if :func:`check_labels` accepts them."""
    return [f"X{i + 1}" for i in range(d)] if labels is None else check_labels(labels, d)


def _read_spins(path) -> tuple[list[str], np.ndarray]:
    """A spin CSV with at least one row, whose column labels are distinct."""
    with _naming(f"spin CSV {path}"):
        labels, data = read_spin_csv(path)
        labels = check_labels(labels, data.shape[1])
        # read_spin_csv's values are +/-1 already; only the row count is new
        if not len(data):
            raise DataError("spin data must contain at least one row")
        return labels, data


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> None:
    if args.extract_label is not None and not args.extract_member:
        raise UsageError("--extract-label needs --extract-member")
    output = Path(args.output)
    with _naming(f"votes CSV {args.votes}"):
        table = parse_votes(args.votes)
    with _naming(f"splits CSV {args.splits}"):
        records = parse_split_records(args.splits) if args.splits else {}
    resolved = resolve_splits(
        table,
        records,
        extract_member=args.extract_member,
        extract_label=args.extract_label,
    )
    kept = drop_sparse_columns(resolved, threshold=args.drop_threshold)
    dropped = [p for p in resolved.parties if p not in kept.parties]
    if args.reference in dropped:
        missing = resolved.cells[:, resolved.parties.index(args.reference)] == Vote.MISSING
        raise DataError(
            f"reference party {args.reference!r} was dropped as sparse: its missing share "
            f"{np.count_nonzero(missing) / resolved.n:.3g} exceeds --drop-threshold {args.drop_threshold}"
        )
    complete = knn_impute(kept, ImputeConfig(k=args.k))
    labels, values = encode_agreement(complete, args.reference)
    write_spin_csv(output, labels, values)
    if args.json:
        jsonio.dump(spin_matrix_to_json_dict(labels, values), args.json)

    prov_path = Path(args.provenance) if args.provenance else output.with_suffix(
        output.suffix + ".prov.json"
    )
    jsonio.dump(
        {
            "schema_version": 1,
            "rows": table.n,
            "reference": args.reference,
            "extract_member": args.extract_member,
            "k": args.k,
            "drop_threshold": args.drop_threshold,
            "split_cells_resolved": int(np.count_nonzero(table.cells == Vote.SPLIT)),
            "dropped_columns": dropped,
            "imputed_cells": int(np.count_nonzero(kept.cells == Vote.MISSING)),
            "columns": labels,
        },
        prov_path,
    )


def cmd_fit(args) -> None:
    labels, data = _read_spins(args.data)
    config = FitConfig(max_iterations=args.max_iter, objective_tolerance=args.tol)
    # With the data read, fit's one data error is an initializer of another dimension.
    with _naming(f"--init file {args.init}") if args.init else contextlib.nullcontext():
        init = FvbmParams.from_json_dict(jsonio.load(args.init)) if args.init else None
        result = fit(data, dataclasses.replace(config, init=init))
    if reason := result.unconverged_reason(flat_labels(labels)):
        if args.strict and result.degenerate_columns:
            raise DataError(reason)
        print(f"warning: unconverged fit: {reason}", file=sys.stderr)
    jsonio.dump(result.to_json_dict(labels), args.output)


def cmd_infer(args) -> None:
    labels, data = _read_spins(args.data)
    with _naming(f"fit file {args.fit}"):
        obj = jsonio.load(args.fit)
        fit_result = FitResult.from_json_dict(obj)
        d = fit_result.params.d
        if data.shape[1] != d:
            raise DataError(f"fit has d={d} but data has {data.shape[1]} columns")
        if obj.get("labels") not in (None, labels):
            raise DataError(f"fit labels {obj['labels']} do not match data labels {labels}")
        groups = (
            default_groups(d)
            if args.groups == "subtables"
            else {"all": list(range(flat_length(d)))}
        )
        report = build_report(
            fit_result,
            data,
            groups=groups,
            method=args.fdr,
            coordinate_names=flat_labels(labels),
        )
    jsonio.dump(report.to_json_dict(labels), args.output)
    tables_path = (
        Path(args.tables) if args.tables else Path(args.output).with_suffix(".tables.txt")
    )
    tables_path.write_text(format_report_tables(report, labels), encoding="utf-8")


def cmd_probs(args) -> None:
    with _naming(f"fit file {args.fit}"):
        obj = jsonio.load(args.fit)
        params = FitResult.from_json_dict(obj).params
        labels = _labels(obj.get("labels"), params.d)
    table = enumerate_pmf(params)  # reads only its pair cells, never the 2^d vector
    marginals = {label: marginal_probability(table, j) for j, label in enumerate(labels)}
    pairs_out = []
    for spec in args.pair or []:
        names = [s.strip() for s in spec.split(",")]
        if len(names) != 2 or names[0] == names[1]:
            raise UsageError(f"--pair wants two distinct columns 'A,B', got {spec!r}")
        if any(name not in labels for name in names):
            raise DataError(f"pair {spec!r} names a column not present in {labels}")
        j, k = (labels.index(name) for name in names)
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
                "concordance": concordance(table, j, k),
            }
        )
    jsonio.dump(
        {
            "schema_version": 1,
            "labels": labels,
            "marginals": marginals,
            "pairs": pairs_out,
        },
        args.output,
    )


def cmd_graph(args) -> None:
    if args.dot is None and args.json is None:
        raise UsageError("at least one of --dot or --json is required")
    with _naming(f"report file {args.report}"):
        obj = jsonio.load(args.report)
        report = InferenceReport.from_json_dict(obj)
        labels = _labels(obj.get("labels"), report.d)
    network = build_network(report, labels, mode=args.mode, level=args.level)
    if args.dot:
        Path(args.dot).write_text(emit_dot(network), encoding="utf-8")
    if args.json:
        jsonio.dump(network, args.json)


def cmd_simulate(args) -> None:
    with _naming(f"params file {args.params}"):
        params = FvbmParams.from_json_dict(jsonio.load(args.params))
    given = [s.strip() for s in args.labels.split(",")] if args.labels else None
    try:
        labels = _labels(given, params.d)
    except DataError as exc:
        raise UsageError(f"--labels: {exc}") from exc
    # the draws go to the file from their state indices, never as +/-1 rows
    states = _draw_states(params, args.n, seed=args.seed)
    _write_state_csv(args.output, labels, states, params.d)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``fvbm`` parser and its subcommand parsers by name, built once.

    Parsing leaves the parsers unchanged, so every call shares them.
    """
    parser = _Parser(
        prog="fvbm",
        description="Fit and analyze fully-visible Boltzmann machines on +/-1 data.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def command(name, help):
        return sub.add_parser(name, parents=[_CONFIG], help=help)

    p = command("prepare", "votes CSV -> +/-1 agreement matrix CSV")
    p.add_argument("votes", help="party-level divisions CSV")
    p.add_argument("--splits", help="member-level records CSV for Split cells")
    p.add_argument("--reference", required=True, help="reference (government) party column")
    p.add_argument("--extract-member", dest="extract_member", help="senator to pull out as a separate column")
    p.add_argument("--extract-label", dest="extract_label", help="column label for the extracted member")
    p.add_argument("--k", type=_checked(int, lambda k: ImputeConfig(k=k)), default=ImputeConfig.k, help="neighbors for k-NN imputation (default %(default)s)")
    p.add_argument("--drop-threshold", dest="drop_threshold", type=_checked(float, check_drop_threshold), default=0.5, help="drop columns with a higher missing fraction (default %(default)s)")
    p.add_argument("-o", "--output", required=True, help="output +/-1 CSV path")
    p.add_argument("--json", help="also write the matrix as JSON here")
    p.add_argument("--provenance", help="provenance JSON path (default <output>.prov.json)")

    p = command("fit", "+/-1 CSV -> fitted parameters JSON")
    p.add_argument("data", help="+/-1 matrix CSV with a header row")
    p.add_argument("-o", "--output", required=True, help="output fit JSON path")
    p.add_argument("--tol", type=_checked(float, lambda tol: FitConfig(objective_tolerance=tol)), default=FitConfig.objective_tolerance, help="objective tolerance (default %(default)s)")
    p.add_argument("--max-iter", dest="max_iter", type=_checked(int, lambda cap: FitConfig(max_iterations=cap)), default=FitConfig.max_iterations, help="iteration cap (default %(default)s)")
    p.add_argument("--init", help="params JSON to start from (default zeros)")
    p.add_argument("--strict", action="store_true", help="treat degenerate columns as errors")

    p = command("infer", "fit JSON + data CSV -> report JSON (+ text tables)")
    p.add_argument("fit", help="fit JSON from the fit subcommand")
    p.add_argument("data", help="the +/-1 CSV the fit came from")
    p.add_argument("-o", "--output", required=True, help="output report JSON path")
    p.add_argument("--tables", help="text tables path (default <output>.tables.txt)")
    p.add_argument("--fdr", choices=["by", "bh"], default="by", help="FDR adjustment method (default %(default)s)")
    p.add_argument("--groups", choices=["subtables", "single"], default="subtables", help="adjust bias/interaction blocks separately or together (default %(default)s)")

    p = command("probs", "fit JSON -> exact marginal/joint probabilities")
    p.add_argument("fit", help="fit JSON")
    p.add_argument("-o", "--output", required=True, help="output probabilities JSON path")
    p.add_argument("--pair", action="append", help="column pair 'A,B' to report jointly (repeatable)")

    p = command("graph", "report JSON -> significance network (DOT/JSON)")
    p.add_argument("report", help="report JSON from the infer subcommand")
    p.add_argument("--mode", choices=["raw", "fdr"], default="raw", help="p-values driving significance (default %(default)s)")
    p.add_argument("--level", type=_checked(float, check_level), default=0.05, help="significance / FDR level (default %(default)s)")
    p.add_argument("--dot", help="output DOT path")
    p.add_argument("--json", help="output network JSON path")

    p = command("simulate", "params JSON -> seeded exact sample CSV")
    p.add_argument("params", help="params JSON ({d, bias, interaction_upper})")
    p.add_argument("--n", type=_checked(int, _nonnegative), required=True, help="number of rows to draw")
    p.add_argument("--seed", type=_checked(int, _nonnegative), default=0, help="RNG seed (default %(default)s)")
    p.add_argument("--labels", help="comma-separated column labels")
    p.add_argument("-o", "--output", required=True, help="output CSV path")

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(parser, commands, argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        # Looked up by name on each call, not bound into the shared parser,
        # so that a wrapper put in place of a ``cmd_*`` function is called.
        globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else 1
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


if __name__ == "__main__":
    entry()
