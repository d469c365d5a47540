"""Tests of the benchmark itself: generators, output checks and span arithmetic."""

import csv
import json

import numpy as np
import pytest

import fvbm
import harness
import spans
import workloads


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    generate = workloads.WORKLOADS[name].generate
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        generate(seed, tmp_path / label)
        runs[label] = _files(tmp_path / label)
    assert runs["a"] == runs["b"]
    assert runs["a"].keys() == runs["c"].keys()
    assert runs["a"] != runs["c"]


def test_ill_posed_columns_flags_constant_identical_and_mirror():
    x = np.array([[1, 1, -1, 1, 1], [1, -1, 1, -1, 1], [1, 1, -1, -1, -1]], dtype=float)
    assert workloads.ill_posed_columns(x) == [
        "column 0 is constant",
        "columns 1 and 2 are mirror images",
    ]
    assert workloads.ill_posed_columns(np.column_stack([x[:, 1], x[:, 1]])) == [
        "columns 0 and 1 are identical"
    ]


def test_wide_input_is_well_posed(tmp_path):
    spec = workloads.generate_wide(3, tmp_path)
    _, x = fvbm.read_spin_csv(spec["data"])
    assert x.shape == (2000, 24)
    assert workloads.ill_posed_columns(x) == []


def test_senate_member_breaks_with_party_on_every_split_row(tmp_path):
    spec = workloads.generate_senate(3, tmp_path)
    with open(spec["votes"], newline="") as handle:
        rows = list(csv.reader(handle))
    split_keys = {(r[0], r[1]) for r in rows[1:] if "Split" in r}
    assert len(split_keys) == spec["split_cells"] == 32
    votes = {}
    with open(spec["splits"], newline="") as handle:
        for date, number, senator, vote in list(csv.reader(handle))[1:]:
            votes.setdefault((date, number), {})[senator] = vote
    assert votes.keys() == split_keys
    for record in votes.values():
        assert record["burston"] == record["hanson"] != record["culleton"]


def _senate_pass(tmp_path):
    workload = workloads.WORKLOADS["senate-pipeline"]
    (tmp_path / "inputs").mkdir()
    (tmp_path / "out").mkdir()
    spec = workload.generate(5, tmp_path / "inputs")
    _, codes = harness.run_chain(workload.chain(spec, tmp_path / "out"))
    return workload, spec, tmp_path / "out", codes


def test_corrupted_p_value_counts_as_failed_pass(tmp_path):
    workload, spec, outdir, codes = _senate_pass(tmp_path)
    assert codes == [0] * 5
    assert harness.check_pass(workload, spec, outdir, codes, None) == []
    reference = harness.artefact_hashes(outdir)

    report_path = outdir / "report.json"
    report = json.loads(report_path.read_text())
    q = int(np.argmax(report["p_values"]))
    report["p_values"][q] *= 0.5
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    alone = harness.check_pass(workload, spec, outdir, codes, None)
    assert alone == [f"report coordinate {q}: z or p-value inconsistent with estimate/SE"]
    failures = harness.check_pass(workload, spec, outdir, codes, reference)
    assert "report.json differs from the first pass" in failures

    tally = harness.Tally()
    tally.record(0.5, [])
    tally.record(0.6, failures)
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 1, 0.5)


def test_nonzero_exit_code_fails_the_pass(tmp_path):
    workload = workloads.WORKLOADS["wide-fit-infer"]
    seconds, codes = harness.run_chain([["fit", str(tmp_path / "absent.csv"), "-o", str(tmp_path / "f.json")]])
    assert codes == [2]
    assert harness.check_pass(workload, {}, tmp_path, codes, None) == ["step 1 exited with code 2"]


def test_self_time_on_hand_built_span_tree():
    tree = [
        spans.Span("cli.fit", 0.0, 10.0, None),
        spans.Span("fit.fit", 1.0, 9.0, 0),
        spans.Span("log_pl", 2.0, 3.0, 1),
        spans.Span("log_pl", 5.0, 6.5, 1),
        spans.Span("jsonio.dump", 9.0, 9.5, 0),
        spans.Span("outer", 20.0, 30.0, None),
        spans.Span("outer", 22.0, 26.0, 5),  # recursive: busy time counts once
    ]
    totals = spans.layer_totals(tree)
    assert totals["cli.fit"] == {"busy_s": 10.0, "calls": 1, "self_s": 1.5}
    assert totals["fit.fit"] == {"busy_s": 8.0, "calls": 1, "self_s": 5.5}
    assert totals["log_pl"] == {"busy_s": 2.5, "calls": 2, "self_s": 2.5}
    assert totals["jsonio.dump"] == {"busy_s": 0.5, "calls": 1, "self_s": 0.5}
    assert totals["outer"] == {"busy_s": 10.0, "calls": 2, "self_s": 10.0}


def test_recorder_links_callers_and_restores_functions():
    params = fvbm.FvbmParams(bias=[0.2, -0.1, 0.0], interaction=np.zeros((3, 3)))
    x = fvbm.sample(params, 200, seed=1)
    original = fvbm.inference.empirical_info_1
    original_from_flat = vars(fvbm.FvbmParams)["from_flat"]
    recorder = spans.Recorder()
    with recorder.installed():
        fvbm.inference.sandwich_covariance(params, x)
        fvbm.FvbmParams.from_flat(3, params.to_flat())
    assert fvbm.inference.empirical_info_1 is original
    assert vars(fvbm.FvbmParams)["from_flat"] is original_from_flat
    names = [(s.name, None if s.parent is None else recorder.spans[s.parent].name) for s in recorder.spans]
    assert names == [
        ("inference.sandwich_covariance", None),
        ("inference.empirical_info_1", "inference.sandwich_covariance"),
        ("pseudolikelihood.pseudo_hessian", "inference.empirical_info_1"),
        ("inference.empirical_info_2", "inference.sandwich_covariance"),
        ("pseudolikelihood.per_observation_scores", "inference.empirical_info_2"),
        ("params.to_flat", None),
        ("params.from_flat", None),
    ]
    assert all(s.end >= s.start for s in recorder.spans)
