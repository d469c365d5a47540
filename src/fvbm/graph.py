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

from .inference import InferenceReport
from .params import check_labels, upper_indices

THICKNESS_RANGE = (0.1, 10.0)
OPACITY_RANGE = (0.15, 1.0)

_BLUE = "#1f77b4"
_RED = "#d62728"
_GREY = "#7f7f7f"

POSITIVE = "positive-significant"
NEGATIVE = "negative-significant"
NEUTRAL = "insignificant"


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
) -> dict:
    """The network record of an inference report, as ``fvbm graph --json``
    writes it: ``schema_version``, ``mode``, ``level``, then per node its
    ``label``, ``bias``, ``decision`` and ``opacity``, and per coordinate
    pair, in the flat layout's order, one edge of ``source``, ``target``,
    ``sign``, ``significant``, ``thickness`` and ``p_value``.

    ``mode`` selects which p-values drive the significance decisions:
    ``"raw"`` for the unadjusted Wald p-values at significance level
    ``level``, ``"fdr"`` for the adjusted ones at FDR level ``level``.
    Opacities lie in ``OPACITY_RANGE`` and thicknesses in
    ``THICKNESS_RANGE``.
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
            {
                "label": label,
                "bias": float(biases[i]),
                "decision": decision,
                "opacity": _clamp(share, OPACITY_RANGE),
            }
        )

    rows, cols = upper_indices(d)
    edges = [
        {
            "source": labels[j],
            "target": labels[k],
            "sign": -1 if estimate < 0 else 1,
            "significant": p <= level,
            "thickness": _thickness(p),
            "p_value": p,
        }
        for j, k, estimate, p in zip(
            rows.tolist(), cols.tolist(), report.estimates[d:].tolist(), p_vec[d:].tolist()
        )
    ]
    return {"schema_version": 1, "mode": mode, "level": level, "nodes": nodes, "edges": edges}


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_color(decision: str) -> str:
    return {POSITIVE: _BLUE, NEGATIVE: _RED, NEUTRAL: _GREY}[decision]


def _alpha_hex(opacity: float) -> str:
    return f"{round(opacity * 255):02x}"


def emit_dot(network: dict) -> str:
    """Deterministic GraphViz text for a network record of
    :func:`build_network`, or the same record read back from its JSON."""
    lines = [
        "graph interaction_network {",
        "  layout=circo;",
        '  node [shape=circle, style=filled, fontname="Helvetica", fixedsize=true, width=1.0];',
    ]
    for node in network["nodes"]:
        fill = _node_color(node["decision"]) + _alpha_hex(node["opacity"])
        lines.append(
            f"  {_quote(node['label'])} [fillcolor=\"{fill}\", color=\"#333333\"];"
        )
    for edge in network["edges"]:
        style = "solid" if edge["significant"] else "dashed"
        color = _BLUE if edge["sign"] >= 0 else _RED
        lines.append(
            f"  {_quote(edge['source'])} -- {_quote(edge['target'])} "
            f"[style={style}, color=\"{color}\", penwidth={edge['thickness']:.4f}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"

