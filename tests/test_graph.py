"""Network building and DOT emission."""

import json
import re

import numpy as np
import pytest

import fvbm
from fvbm import jsonio
from fvbm.graph import EdgeSpec, NetworkSpec, NodeSpec

import reference_values as ref
from oracles import listed_network_to_json_dict


def _reference_report() -> fvbm.InferenceReport:
    return fvbm.InferenceReport(
        estimates=ref.FLAT_ESTIMATES,
        standard_errors=ref.FLAT_STDERR,
        z_scores=ref.FLAT_ESTIMATES / ref.FLAT_STDERR,
        p_values=ref.FLAT_P,
        adjusted_p_values=ref.FLAT_P_ADJUSTED,
        adjustment_groups=fvbm.default_groups(8),
    )


def test_raw_mode_reference_counts():
    spec = fvbm.build_network(_reference_report(), ref.PARTIES, mode="raw", level=0.05)
    significant_nodes = sum(n.decision != "insignificant" for n in spec.nodes)
    solid_edges = sum(e.significant for e in spec.edges)
    assert significant_nodes == ref.RAW_SIGNIFICANT_BIASES
    assert solid_edges == ref.RAW_SIGNIFICANT_INTERACTIONS


def test_fdr_mode_reference_counts():
    spec = fvbm.build_network(_reference_report(), ref.PARTIES, mode="fdr", level=0.10)
    significant_nodes = sum(n.decision != "insignificant" for n in spec.nodes)
    solid_edges = sum(e.significant for e in spec.edges)
    assert significant_nodes == ref.FDR_SIGNIFICANT_BIASES
    assert solid_edges == ref.FDR_SIGNIFICANT_INTERACTIONS


def test_decisions_match_thresholding():
    report = _reference_report()
    for mode, level in (("raw", 0.05), ("fdr", 0.10)):
        spec = fvbm.build_network(report, ref.PARTIES, mode=mode, level=level)
        p = report.p_values if mode == "raw" else report.adjusted_p_values
        for i, node in enumerate(spec.nodes):
            assert (node.decision != "insignificant") == (p[i] <= level)
            if node.decision == "positive-significant":
                assert report.estimates[i] >= 0
            if node.decision == "negative-significant":
                assert report.estimates[i] < 0
        for slot, edge in enumerate(spec.edges):
            assert edge.significant == (p[8 + slot] <= level)


def test_all_insignificant_when_p_is_one():
    p = np.ones(fvbm.flat_length(3))
    report = fvbm.InferenceReport(
        estimates=np.linspace(-1, 1, 6),
        standard_errors=np.ones(6),
        z_scores=np.linspace(-1, 1, 6),
        p_values=p,
        adjusted_p_values=p,
        adjustment_groups=fvbm.default_groups(3),
    )
    spec = fvbm.build_network(report, ["A", "B", "C"], mode="raw", level=0.05)
    assert all(n.decision == "insignificant" for n in spec.nodes)
    assert all(not e.significant for e in spec.edges)
    assert all(e.thickness == 0.1 for e in spec.edges)


def test_thickness_monotone_and_clamped():
    from fvbm.graph import _thickness

    assert _thickness(0.0) == 10.0
    assert _thickness(1e-300) == 10.0
    assert _thickness(1.0) == 0.1
    grid = np.logspace(-9, -0.05, 40)
    values = [_thickness(p) for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_opacity_scaling():
    spec = fvbm.build_network(_reference_report(), ref.PARTIES, mode="raw", level=0.05)
    opacities = {n.label: n.opacity for n in spec.nodes}
    biases = dict(zip(ref.PARTIES, np.abs(ref.BIAS_ESTIMATES)))
    assert opacities["AG"] == 1.0  # largest |bias|
    ordered = sorted(ref.PARTIES, key=lambda p: biases[p])
    for a, b in zip(ordered, ordered[1:]):
        assert opacities[a] <= opacities[b]
    assert all(0.15 <= o <= 1.0 for o in opacities.values())


def test_build_network_validation():
    report = _reference_report()
    with pytest.raises(ValueError):
        fvbm.build_network(report, ref.PARTIES, mode="bonferroni", level=0.05)
    with pytest.raises(ValueError):
        fvbm.build_network(report, ref.PARTIES, mode="raw", level=0.0)
    with pytest.raises(fvbm.DataError):
        fvbm.build_network(report, ref.PARTIES[:4], mode="raw", level=0.05)


_NODE_LINE = re.compile(r'^  "[^"]+" \[fillcolor="#[0-9a-f]{8}", color="#333333"\];$')
_EDGE_LINE = re.compile(
    r'^  "[^"]+" -- "[^"]+" \[style=(solid|dashed), color="#[0-9a-f]{6}", '
    r"penwidth=\d+\.\d{4}\];$"
)
_PREAMBLE = re.compile(r"^  (layout=\w+;|node \[[^\]]*\];)$")


def test_emit_dot_grammar_and_counts():
    spec = fvbm.build_network(_reference_report(), ref.PARTIES, mode="fdr", level=0.10)
    text = fvbm.emit_dot(spec)
    lines = text.strip().splitlines()
    assert lines[0] == "graph interaction_network {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if _NODE_LINE.match(line):
            nodes += 1
        elif _EDGE_LINE.match(line):
            edges += 1
        else:
            assert _PREAMBLE.match(line), f"unparsable DOT line: {line!r}"
    assert nodes == 8
    assert edges == 28
    assert text.count("style=solid") == ref.FDR_SIGNIFICANT_INTERACTIONS


def test_emit_dot_edge_styling():
    p = np.array([0.5, 0.5, 0.001])
    report = fvbm.InferenceReport(
        estimates=np.array([0.2, -0.1, 0.9]),
        standard_errors=np.ones(3),
        z_scores=np.array([0.2, -0.1, 0.9]),
        p_values=p,
        adjusted_p_values=p,
        adjustment_groups=fvbm.default_groups(2),
    )
    text = fvbm.emit_dot(fvbm.build_network(report, ["A", "B"], mode="raw", level=0.05))
    assert '"A" -- "B" [style=solid, color="#1f77b4"' in text


def test_emit_dot_deterministic():
    spec = fvbm.build_network(_reference_report(), ref.PARTIES, mode="raw", level=0.05)
    assert fvbm.emit_dot(spec) == fvbm.emit_dot(spec)


def test_network_json_round_trip():
    spec = fvbm.build_network(_reference_report(), ref.PARTIES, mode="fdr", level=0.10)
    obj = json.loads(jsonio.dumps(fvbm.network_to_json_dict(spec)))
    rebuilt = NetworkSpec(
        nodes=[NodeSpec(**n) for n in obj["nodes"]],
        edges=[EdgeSpec(**e) for e in obj["edges"]],
        mode=obj["mode"],
        level=obj["level"],
    )
    assert rebuilt == spec
    # the record holds copies: editing it leaves the network as it was
    fvbm.network_to_json_dict(spec)["nodes"][0]["label"] = "edited"
    assert spec.nodes[0].label == ref.PARTIES[0]


@pytest.mark.parametrize("mode, level", [("raw", 0.05), ("fdr", 0.10)])
def test_network_json_matches_the_field_listing_oracle(mode, level):
    spec = fvbm.build_network(_reference_report(), ref.PARTIES, mode=mode, level=level)
    written = jsonio.dumps(fvbm.network_to_json_dict(spec))
    assert written == jsonio.dumps(listed_network_to_json_dict(spec))
