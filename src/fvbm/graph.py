"""Significance-styled interaction networks in DOT and JSON.

Nodes carry the bias tests: blue for a significant positive bias, red for
a significant negative one, grey otherwise, with opacity scaled by the
bias magnitude relative to the largest one.  Edges carry the interaction
tests: solid when significant, dashed otherwise, blue for positive and
red for negative estimates, with pen width proportional to -log10 of the
edge's p-value (clamped so a p of exactly zero stays finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .inference import InferenceReport
from .params import check_labels, flat_length, upper_indices

THICKNESS_RANGE = (0.1, 10.0)
OPACITY_RANGE = (0.15, 1.0)

_BLUE = "#1f77b4"
_RED = "#d62728"
_GREY = "#7f7f7f"

POSITIVE = "positive-significant"
NEGATIVE = "negative-significant"
NEUTRAL = "insignificant"


@dataclass(frozen=True)
class NodeSpec:
    label: str
    bias: float
    decision: str
    opacity: float


@dataclass(frozen=True)
class EdgeSpec:
    source: str
    target: str
    sign: int
    significant: bool
    thickness: float
    p_value: float


@dataclass(frozen=True)
class NetworkSpec:
    """Renderable description of the interaction network."""

    nodes: list[NodeSpec]
    edges: list[EdgeSpec]
    mode: str
    level: float

    def __post_init__(self) -> None:
        d = len(self.nodes)
        if len(self.edges) != (flat_length(d) - d if d else 0):
            raise ValueError("network must carry one edge per coordinate pair")
        if any(not OPACITY_RANGE[0] <= n.opacity <= OPACITY_RANGE[1] for n in self.nodes):
            raise ValueError("node opacity out of range")
        if any(not THICKNESS_RANGE[0] <= e.thickness <= THICKNESS_RANGE[1] for e in self.edges):
            raise ValueError("edge thickness out of range")


def _clamp(value: float, bounds: tuple[float, float]) -> float:
    return min(max(value, bounds[0]), bounds[1])


def _thickness(p: float) -> float:
    if p <= 0.0:
        return THICKNESS_RANGE[1]
    return _clamp(-math.log10(p), THICKNESS_RANGE)


def check_level(level: float) -> None:
    """Refuse a significance or FDR level outside (0, 1) with a ValueError."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")


def build_network(
    report: InferenceReport,
    labels: list[str],
    mode: str = "raw",
    level: float = 0.05,
) -> NetworkSpec:
    """Derive node and edge styling from an inference report.

    ``mode`` selects which p-values drive the significance decisions:
    ``"raw"`` for the unadjusted Wald p-values at significance level
    ``level``, ``"fdr"`` for the adjusted ones at FDR level ``level``.
    """
    if mode not in ("raw", "fdr"):
        raise ValueError(f"mode must be 'raw' or 'fdr', got {mode!r}")
    check_level(level)
    d = len(check_labels(labels, report.d))
    p_vec = report.p_values if mode == "raw" else report.adjusted_p_values
    biases = report.estimates[:d]
    max_bias = float(max(abs(b) for b in biases))

    nodes = []
    for i, label in enumerate(labels):
        significant = p_vec[i] <= level
        if significant:
            decision = POSITIVE if biases[i] >= 0 else NEGATIVE
        else:
            decision = NEUTRAL
        share = abs(biases[i]) / max_bias if max_bias > 0 else 0.0
        nodes.append(
            NodeSpec(
                label=label,
                bias=float(biases[i]),
                decision=decision,
                opacity=_clamp(share, OPACITY_RANGE),
            )
        )

    rows, cols = upper_indices(d)
    edges = [
        EdgeSpec(
            source=labels[j],
            target=labels[k],
            sign=-1 if estimate < 0 else 1,
            significant=p <= level,
            thickness=_thickness(p),
            p_value=p,
        )
        for j, k, estimate, p in zip(
            rows.tolist(), cols.tolist(), report.estimates[d:].tolist(), p_vec[d:].tolist()
        )
    ]
    return NetworkSpec(nodes=nodes, edges=edges, mode=mode, level=level)


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_color(decision: str) -> str:
    return {POSITIVE: _BLUE, NEGATIVE: _RED, NEUTRAL: _GREY}[decision]


def _alpha_hex(opacity: float) -> str:
    return f"{round(opacity * 255):02x}"


def emit_dot(spec: NetworkSpec) -> str:
    """Deterministic GraphViz text for the network."""
    lines = [
        "graph interaction_network {",
        "  layout=circo;",
        '  node [shape=circle, style=filled, fontname="Helvetica", fixedsize=true, width=1.0];',
    ]
    for node in spec.nodes:
        fill = _node_color(node.decision) + _alpha_hex(node.opacity)
        lines.append(
            f"  {_quote(node.label)} [fillcolor=\"{fill}\", color=\"#333333\"];"
        )
    for edge in spec.edges:
        style = "solid" if edge.significant else "dashed"
        color = _BLUE if edge.sign >= 0 else _RED
        lines.append(
            f"  {_quote(edge.source)} -- {_quote(edge.target)} "
            f"[style={style}, color=\"{color}\", penwidth={edge.thickness:.4f}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def network_to_json_dict(spec: NetworkSpec) -> dict:
    return {
        "schema_version": 1,
        "mode": spec.mode,
        "level": spec.level,
        # Each instance dict holds its fields in declaration order; a copy
        # costs a twentieth of ``dataclasses.asdict``'s deep copy.
        "nodes": [dict(vars(n)) for n in spec.nodes],
        "edges": [dict(vars(e)) for e in spec.edges],
    }
