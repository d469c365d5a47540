"""Span recording around fvbm's public functions, from outside the program.

While a :class:`Recorder` is installed, each traced function is replaced by
a wrapper in every ``fvbm`` module namespace that binds it (the namespace of
the module that calls it), and ``FvbmParams`` methods on the class.  Each
call records a span: name, start, end and the span that caused it.  Private
helpers are not wrapped, so their time counts toward their caller.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# metric prefix -> (module, attribute); "Class.method" names a method.
TRACED = {
    "cli.prepare": ("fvbm.cli", "cmd_prepare"),
    "cli.fit": ("fvbm.cli", "cmd_fit"),
    "cli.infer": ("fvbm.cli", "cmd_infer"),
    "cli.probs": ("fvbm.cli", "cmd_probs"),
    "cli.graph": ("fvbm.cli", "cmd_graph"),
    "cli.simulate": ("fvbm.cli", "cmd_simulate"),
    "votes.parse_votes": ("fvbm.votes", "parse_votes"),
    "votes.parse_split_records": ("fvbm.votes", "parse_split_records"),
    "votes.resolve_splits": ("fvbm.votes", "resolve_splits"),
    "votes.drop_sparse_columns": ("fvbm.votes", "drop_sparse_columns"),
    "votes.knn_impute": ("fvbm.votes", "knn_impute"),
    "votes.encode_agreement": ("fvbm.votes", "encode_agreement"),
    "votes.write_spin_csv": ("fvbm.votes", "write_spin_csv"),
    "votes.read_spin_csv": ("fvbm.votes", "read_spin_csv"),
    "fit.fit": ("fvbm.fit", "fit"),
    "pseudolikelihood.log_pseudolikelihood": ("fvbm.pseudolikelihood", "log_pseudolikelihood"),
    "pseudolikelihood.per_observation_scores": ("fvbm.pseudolikelihood", "per_observation_scores"),
    "pseudolikelihood.pseudo_hessian": ("fvbm.pseudolikelihood", "pseudo_hessian"),
    "inference.build_report": ("fvbm.inference", "build_report"),
    "inference.sandwich_covariance": ("fvbm.inference", "sandwich_covariance"),
    "inference.empirical_info_1": ("fvbm.inference", "empirical_info_1"),
    "inference.empirical_info_2": ("fvbm.inference", "empirical_info_2"),
    "inference.format_report_tables": ("fvbm.inference", "format_report_tables"),
    "model.enumerate_pmf": ("fvbm.model", "enumerate_pmf"),
    "model.sample": ("fvbm.model", "sample"),
    "model.marginal_probability": ("fvbm.model", "marginal_probability"),
    "model.pairwise_joint": ("fvbm.model", "pairwise_joint"),
    "model.concordance": ("fvbm.model", "concordance"),
    "params.from_flat": ("fvbm.params", "FvbmParams.from_flat"),
    "params.to_flat": ("fvbm.params", "FvbmParams.to_flat"),
    "graph.build_network": ("fvbm.graph", "build_network"),
    "graph.emit_dot": ("fvbm.graph", "emit_dot"),
    "jsonio.dump": ("fvbm.jsonio", "dump"),
    "jsonio.load": ("fvbm.jsonio", "load"),
}

# Functions that call other traced functions, so their self time differs
# from their busy time.
WITH_CHILDREN = [
    "cli.prepare",
    "cli.fit",
    "cli.infer",
    "cli.probs",
    "cli.graph",
    "cli.simulate",
    "fit.fit",
    "inference.build_report",
    "inference.sandwich_covariance",
    "inference.empirical_info_1",
    "inference.empirical_info_2",
    "model.sample",
    "model.concordance",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the causing span in the same list


class Recorder:
    """Keeps spans in memory; :meth:`installed` wraps the traced functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = time.perf_counter()

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced function while the block runs, then restore."""
        modules = [m for name, m in sys.modules.items() if name == "fvbm" or name.startswith("fvbm.")]
        saved = []
        try:
            for name, (module_name, attr) in TRACED.items():
                owner = sys.modules[module_name]
                if "." in attr:
                    class_name, method = attr.split(".")
                    cls = getattr(owner, class_name)
                    original = cls.__dict__[method]
                    if isinstance(original, classmethod):
                        replacement = classmethod(self._wrap(name, original.__func__))
                    else:
                        replacement = self._wrap(name, original)
                    saved.append((cls, method, original))
                    setattr(cls, method, replacement)
                    continue
                original = getattr(owner, attr)
                replacement = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, value))
                            setattr(module, key, replacement)
            yield self
        finally:
            for owner, key, value in reversed(saved):
                setattr(owner, key, value)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: busy seconds, call count and self seconds.

    Busy time counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of its direct children.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"busy_s": 0.0, "calls": 0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["self_s"] += duration - children[i]
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            entry["busy_s"] += duration
    return totals
