"""CLI subcommands, exit codes, and pipeline composition."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvbm
from fvbm import cli
from fvbm.cli import main
from fvbm.fit import STOP_RULES

from oracles import (
    COVARIANCE_RTOL,
    eigh_sandwich_covariance,
    loop_write_spin_csv,
    random_params,
    relative_covariance_error,
    table_sample,
)

_VOTES = """date,number,GOV,AAA,BBB,CCC
1/1,1,Yes,No,Yes,Split
1/1,2,No,No,-,No
2/1,1,Yes,Yes,Yes,Yes
2/1,2,Yes,No,No,Split
3/1,1,No,Yes,-,No
3/1,2,Yes,Yes,No,Yes
4/1,1,No,No,Yes,No
4/1,2,Yes,Yes,Yes,Yes
"""

_SPLITS = """date,number,senator,vote
1/1,1,burton,Yes
1/1,1,cull,No
1/1,1,hans,Yes
2/1,2,burton,No
2/1,2,cull,Yes
2/1,2,hans,No
"""


def _well_posed_votes(rows: int = 160) -> tuple[str, str]:
    """Seeded divisions and split records shaped like ``_VOTES``.

    Each party follows the previous column with a fixed agreement rate,
    about 5% of party cells are ``-``, and CCC splits on about 10% of the
    rows, where cull votes against burton and hans.  At 160 rows the
    prepared matrix has a finite maximum pseudolikelihood estimate, which
    the 8 rows of ``_VOTES`` do not.
    """
    rng = np.random.default_rng(2016)
    votes = ["date,number,GOV,AAA,BBB,CCC"]
    splits = ["date,number,senator,vote"]
    for r in range(rows):
        line = [rng.random() < 0.5]
        for agree in (0.7, 0.6, 0.4):
            line.append(line[-1] if rng.random() < agree else not line[-1])
        cells = ["Yes" if v else "No" for v in line]
        for c in (1, 2, 3):
            if rng.random() < 0.05:
                cells[c] = "-"
        date, number = f"{r // 4 + 1}/1", str(r % 4 + 1)
        if rng.random() < 0.1:
            party = "Yes" if line[3] else "No"
            rebel = "No" if line[3] else "Yes"
            cells[3] = "Split"
            for senator, vote in (("burton", party), ("cull", rebel), ("hans", party)):
                splits.append(f"{date},{number},{senator},{vote}")
        votes.append(",".join([date, number, *cells]))
    return "\n".join(votes) + "\n", "\n".join(splits) + "\n"


@pytest.fixture
def well_posed_csvs(tmp_path):
    votes, splits = _well_posed_votes()
    (tmp_path / "wp_votes.csv").write_text(votes, encoding="utf-8")
    (tmp_path / "wp_splits.csv").write_text(splits, encoding="utf-8")
    return tmp_path / "wp_votes.csv", tmp_path / "wp_splits.csv"


@pytest.fixture
def votes_csv(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text(_VOTES, encoding="utf-8")
    return path


@pytest.fixture
def splits_csv(tmp_path):
    path = tmp_path / "splits.csv"
    path.write_text(_SPLITS, encoding="utf-8")
    return path


def _prepare(tmp_path, votes_csv, splits_csv, *extra):
    out = tmp_path / "matrix.csv"
    code = main(
        [
            "prepare",
            str(votes_csv),
            "--splits",
            str(splits_csv),
            "--reference",
            "GOV",
            "--extract-member",
            "cull",
            "-o",
            str(out),
            *extra,
        ]
    )
    return code, out


def test_prepare_end_to_end(tmp_path, votes_csv, splits_csv):
    code, out = _prepare(tmp_path, votes_csv, splits_csv)
    assert code == 0
    labels, values = fvbm.read_spin_csv(out)
    assert labels == ["AAA", "BBB", "CCC", "CULL"]
    assert values.shape == (8, 4)
    assert np.all(np.abs(values) == 1.0)
    prov = json.loads((tmp_path / "matrix.csv.prov.json").read_text())
    assert prov["split_cells_resolved"] == 2
    assert prov["imputed_cells"] == 2
    assert prov["dropped_columns"] == []
    assert prov["k"] == 3


def test_prepare_idempotent(tmp_path, votes_csv, splits_csv):
    _, first = _prepare(tmp_path, votes_csv, splits_csv)
    bytes_first = first.read_bytes()
    code, second = _prepare(tmp_path, votes_csv, splits_csv)
    assert code == 0
    assert second.read_bytes() == bytes_first


def test_prepare_json_mirror(tmp_path, votes_csv, splits_csv):
    json_path = tmp_path / "matrix.json"
    code, out = _prepare(tmp_path, votes_csv, splits_csv, "--json", str(json_path))
    assert code == 0
    obj = json.loads(json_path.read_text())
    csv_labels, csv_values = fvbm.read_spin_csv(out)
    assert obj["labels"] == csv_labels
    np.testing.assert_array_equal(np.array(obj["values"], dtype=np.float64), csv_values)


def test_prepare_split_without_records_fails(tmp_path, votes_csv):
    out = tmp_path / "matrix.csv"
    code = main(
        ["prepare", str(votes_csv), "--reference", "GOV", "-o", str(out)]
    )
    assert code == 2


def test_prepare_missing_reference_is_usage_error(tmp_path, votes_csv, splits_csv):
    code = main(
        ["prepare", str(votes_csv), "--splits", str(splits_csv), "-o", str(tmp_path / "m.csv")]
    )
    assert code == 1


def test_prepare_config_precedence(tmp_path, votes_csv, splits_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 1, "reference": "GOV"}))
    out = tmp_path / "m1.csv"
    code = main(
        [
            "prepare", str(votes_csv), "--splits", str(splits_csv),
            "--extract-member", "cull", "-o", str(out), "--config", str(config),
        ]
    )
    assert code == 0
    prov = json.loads((tmp_path / "m1.csv.prov.json").read_text())
    assert prov["k"] == 1  # from the config file
    out2 = tmp_path / "m2.csv"
    code = main(
        [
            "prepare", str(votes_csv), "--splits", str(splits_csv),
            "--extract-member", "cull", "-o", str(out2),
            "--config", str(config), "--k", "5",
        ]
    )
    assert code == 0
    prov = json.loads((tmp_path / "m2.csv.prov.json").read_text())
    assert prov["k"] == 5  # explicit flag wins


def test_unknown_config_key_is_usage_error(tmp_path, votes_csv, splits_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": "GOV", "bogus": 1}))
    code = main(
        [
            "prepare", str(votes_csv), "--splits", str(splits_csv),
            "-o", str(tmp_path / "m.csv"), "--config", str(config),
        ]
    )
    assert code == 1


def test_missing_input_file_is_data_error(tmp_path):
    code = main(["fit", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "f.json")])
    assert code == 2


def test_fit_on_header_only_csv_is_data_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n", encoding="utf-8")
    assert main(["fit", str(path), "-o", str(tmp_path / "f.json")]) == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def _subprocess_env(**variables) -> dict:
    """This environment plus ``variables``, with this ``fvbm`` importable."""
    src = str(Path(fvbm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, **variables, PYTHONPATH=path)


def test_module_entry_runs_the_cli(tmp_path):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fvbm.cli", *argv],
            env=_subprocess_env(), capture_output=True, text=True, timeout=60,
        )

    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: fvbm")
    missing = run("fit", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "f.json"))
    assert missing.returncode == 2 and not (tmp_path / "f.json").exists()


def _simulate(tmp_path, n=4000, seed=7):
    params = fvbm.FvbmParams(bias=[0.3, -0.2], interaction=[[0, 0.4], [0.4, 0]])
    params_path = tmp_path / "params.json"
    from fvbm import jsonio

    jsonio.dump(params.to_json_dict(), params_path)
    data_path = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", str(params_path), "--n", str(n), "--seed", str(seed),
            "--labels", "P,Q", "-o", str(data_path),
        ]
    )
    return code, params, data_path


def test_simulate_deterministic(tmp_path):
    code, _, path = _simulate(tmp_path)
    assert code == 0
    first = path.read_bytes()
    code, _, path = _simulate(tmp_path)
    assert code == 0
    assert path.read_bytes() == first


def test_simulate_empty(tmp_path):
    params_path = tmp_path / "params.json"
    from fvbm import jsonio

    jsonio.dump(fvbm.FvbmParams.zeros(3).to_json_dict(), params_path)
    out = tmp_path / "empty.csv"
    assert main(["simulate", str(params_path), "--n", "0", "-o", str(out)]) == 0
    assert out.read_text() == "X1,X2,X3\n"


def test_simulate_writes_the_loop_oracle_bytes_of_the_table_sample(tmp_path):
    params = random_params(np.random.default_rng(20), 20, scale=0.1)
    params_path = tmp_path / "params.json"
    fvbm.jsonio.dump(params.to_json_dict(), params_path)
    out, expected = tmp_path / "sim.csv", tmp_path / "expected.csv"
    args = ["simulate", str(params_path), "--n", "5000", "--seed", "23", "-o", str(out)]
    assert main(args) == 0
    labels = [f"X{j + 1}" for j in range(20)]
    loop_write_spin_csv(expected, labels, table_sample(params, 5000, seed=23))
    assert out.read_bytes() == expected.read_bytes()


def test_simulate_fit_recovers_truth(tmp_path):
    code, params, data_path = _simulate(tmp_path, n=10_000)
    fit_path = tmp_path / "fit.json"
    assert main(["fit", str(data_path), "-o", str(fit_path)]) == 0
    fit_obj = json.loads(fit_path.read_text())
    assert fit_obj["labels"] == ["P", "Q"]
    assert fit_obj["converged"] is True
    fitted = fvbm.FvbmParams.from_json_dict(fit_obj["params"])
    labels, data = fvbm.read_spin_csv(data_path)
    se = fvbm.standard_errors(fvbm.sandwich_covariance(fitted, data))
    assert np.all(np.abs(fitted.to_flat() - params.to_flat()) <= 4.0 * se)


def test_full_pipeline_composition(tmp_path, well_posed_csvs):
    _, matrix = _prepare(tmp_path, *well_posed_csvs)
    fit_path = tmp_path / "fit.json"
    report_path = tmp_path / "report.json"
    tables_path = tmp_path / "tables.txt"
    dot_path = tmp_path / "graph.dot"
    net_path = tmp_path / "graph.json"
    probs_path = tmp_path / "probs.json"

    assert main(["fit", str(matrix), "-o", str(fit_path)]) == 0
    assert json.loads(fit_path.read_text())["converged"] is True
    assert (
        main(
            [
                "infer", str(fit_path), str(matrix),
                "-o", str(report_path), "--tables", str(tables_path),
            ]
        )
        == 0
    )
    report_obj = json.loads(report_path.read_text())
    raw = np.array(report_obj["p_values"])
    adjusted = np.array(report_obj["adjusted_p_values"])
    assert np.all(adjusted >= raw - 1e-15)
    assert "B: interactions" in tables_path.read_text()

    assert (
        main(
            [
                "graph", str(report_path), "--mode", "fdr", "--level", "0.10",
                "--dot", str(dot_path), "--json", str(net_path),
            ]
        )
        == 0
    )
    assert dot_path.read_text().startswith("graph interaction_network {")
    net = json.loads(net_path.read_text())
    assert len(net["nodes"]) == 4
    assert len(net["edges"]) == 6

    assert (
        main(["probs", str(fit_path), "-o", str(probs_path), "--pair", "AAA,CULL"]) == 0
    )
    probs = json.loads(probs_path.read_text())
    assert set(probs["marginals"]) == {"AAA", "BBB", "CCC", "CULL"}
    pair = probs["pairs"][0]
    total = sum(pair["joint"].values())
    assert total == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= pair["concordance"] <= 1.0
    fit_obj = json.loads(fit_path.read_text())
    table = fvbm.enumerate_pmf(fvbm.FitResult.from_json_dict(fit_obj).params)
    j, k = (fit_obj["labels"].index(name) for name in ("AAA", "CULL"))
    assert pair["concordance"] == fvbm.concordance(table, j, k)


def test_infer_covariance_matches_eigh_oracle(tmp_path, well_posed_csvs):
    # the prepared well-posed fixture and the simulated P,Q draw
    _, matrix = _prepare(tmp_path, *well_posed_csvs)
    _, _, simulated = _simulate(tmp_path, n=2000)
    for data_path in (matrix, simulated):
        fit_path = tmp_path / "fit.json"
        assert main(["fit", str(data_path), "-o", str(fit_path)]) == 0
        params = fvbm.FitResult.from_json_dict(json.loads(fit_path.read_text())).params
        _, data = fvbm.read_spin_csv(data_path)
        cov = fvbm.sandwich_covariance(params, data)
        expected = eigh_sandwich_covariance(params, data)
        assert relative_covariance_error(cov, expected) <= COVARIANCE_RTOL


def test_fit_and_infer_files_carry_the_in_memory_numbers_bit_for_bit(tmp_path, well_posed_csvs):
    _, matrix = _prepare(tmp_path, *well_posed_csvs)
    fit_path, report_path = tmp_path / "fit.json", tmp_path / "report.json"
    assert main(["fit", str(matrix), "-o", str(fit_path)]) == 0
    assert main(["infer", str(fit_path), str(matrix), "-o", str(report_path)]) == 0

    labels, data = fvbm.read_spin_csv(matrix)
    result = fvbm.fit(data)
    report = fvbm.build_report(
        result, data, groups=fvbm.default_groups(len(labels)), method="by",
        coordinate_names=fvbm.flat_labels(labels),
    )
    written = fvbm.FitResult.from_json_dict(json.loads(fit_path.read_text()))
    assert np.array_equal(written.params.to_flat(), result.params.to_flat())
    report_obj = json.loads(report_path.read_text())
    for key in ("standard_errors", "p_values", "adjusted_p_values"):
        assert np.array_equal(np.array(report_obj[key]), getattr(report, key)), key


def test_simulate_refuses_d_above_the_cap_for_every_n(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    fvbm.jsonio.dump(fvbm.FvbmParams.zeros(fvbm.ENUMERATION_CAP + 1).to_json_dict(), params_path)
    for n in ("1", "0"):
        out = tmp_path / f"sim{n}.csv"
        assert main(["simulate", str(params_path), "--n", n, "-o", str(out)]) == 2
        assert "exceeds the cap of d<=20" in capsys.readouterr().err
        assert not out.exists()


def test_infer_bh_never_exceeds_by(tmp_path, well_posed_csvs):
    _, matrix = _prepare(tmp_path, *well_posed_csvs)
    fit_path = tmp_path / "fit.json"
    main(["fit", str(matrix), "-o", str(fit_path)])
    by_path = tmp_path / "by.json"
    bh_path = tmp_path / "bh.json"
    assert main(["infer", str(fit_path), str(matrix), "-o", str(by_path)]) == 0
    assert (
        main(["infer", str(fit_path), str(matrix), "-o", str(bh_path), "--fdr", "bh"])
        == 0
    )
    by = np.array(json.loads(by_path.read_text())["adjusted_p_values"])
    bh = np.array(json.loads(bh_path.read_text())["adjusted_p_values"])
    assert np.all(bh <= by + 1e-15)
    # text tables are produced alongside the report by default
    assert (tmp_path / "by.tables.txt").exists()


def test_fit_init_and_tolerance_flags(tmp_path):
    _, _, data_path = _simulate(tmp_path, n=2000)
    first = tmp_path / "first.json"
    assert main(["fit", str(data_path), "-o", str(first), "--tol", "1e-12"]) == 0
    params_path = tmp_path / "warm.json"
    from fvbm import jsonio

    jsonio.dump(json.loads(first.read_text())["params"], params_path)
    warm = tmp_path / "warm_fit.json"
    assert (
        main(
            [
                "fit", str(data_path), "-o", str(warm),
                "--init", str(params_path), "--max-iter", "2",
            ]
        )
        == 0
    )
    warm_obj = json.loads(warm.read_text())
    assert warm_obj["converged"] is True
    assert warm_obj["iterations_used"] <= 2
    cold = fvbm.FvbmParams.from_json_dict(json.loads(first.read_text())["params"])
    rewarmed = fvbm.FvbmParams.from_json_dict(warm_obj["params"])
    np.testing.assert_allclose(rewarmed.to_flat(), cold.to_flat(), atol=1e-6)


def test_fit_refuses_an_init_whose_objective_is_not_finite(tmp_path, capsys):
    # m01 = m02 = 1e308 gives an objective of -inf at the start
    data, init, out = tmp_path / "spins.csv", tmp_path / "init.json", tmp_path / "fit.json"
    fvbm.write_spin_csv(data, ["a", "b", "c"], np.random.default_rng(5).choice([-1.0, 1.0], (50, 3)))
    init.write_text(json.dumps({"d": 3, "bias": [0, 0, 0], "interaction_upper": [1e308, 1e308, 0]}))
    capsys.readouterr()
    with warnings.catch_warnings():
        # a warning would reach a user's stderr ahead of the message
        warnings.simplefilter("error")
        code = main(["fit", str(data), "--init", str(init), "--max-iter", "3", "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: --init file {init}: the log-pseudolikelihood at the initializer "
        f"is -inf; start from parameters where it is finite\n"
    )
    assert not out.exists()


def test_fit_strict_degenerate_column(tmp_path):
    path = tmp_path / "flat.csv"
    fvbm.write_spin_csv(path, ["a", "b"], np.column_stack([np.ones(10), -np.ones(10)]))
    assert main(["fit", str(path), "-o", str(tmp_path / "f.json")]) == 0
    assert main(["fit", str(path), "-o", str(tmp_path / "f.json"), "--strict"]) == 2


def test_infer_dimension_mismatch_is_data_error(tmp_path):
    _, _, data_path = _simulate(tmp_path, n=100)
    fit_path = tmp_path / "fit.json"
    assert main(["fit", str(data_path), "-o", str(fit_path)]) == 0
    wide = tmp_path / "wide.csv"
    fvbm.write_spin_csv(
        wide, ["a", "b", "c"], np.random.default_rng(1).choice([-1.0, 1.0], (10, 3))
    )
    code = main(["infer", str(fit_path), str(wide), "-o", str(tmp_path / "r.json")])
    assert code == 2


def test_infer_singular_information_is_numerical_error(tmp_path):
    path = tmp_path / "degenerate.csv"
    fvbm.write_spin_csv(path, ["a", "b"], np.ones((10, 2)))
    # a hand-written record that claims convergence, so that infer gets as
    # far as the information matrix, which is singular on this data
    record = fvbm.FitResult(
        params=fvbm.FvbmParams.zeros(2),
        objective_trace=np.zeros(1),
        iterations_used=0,
        converged=True,
    )
    fit_path = tmp_path / "fit.json"
    fvbm.jsonio.dump(record.to_json_dict(["a", "b"]), fit_path)
    code = main(["infer", str(fit_path), str(path), "-o", str(tmp_path / "r.json")])
    assert code == 3


def test_infer_refuses_unconverged_fit(tmp_path, votes_csv, splits_csv, capsys):
    # the 8-row fixture has no finite estimate: Newton meets the objective
    # tolerance with steps of order one
    _, matrix = _prepare(tmp_path, votes_csv, splits_csv)
    fit_path = tmp_path / "fit.json"
    capsys.readouterr()
    assert main(["fit", str(matrix), "-o", str(fit_path)]) == 0
    warning = capsys.readouterr().err
    assert "large last step" in warning
    assert "AAA:CULL" in warning
    assert "does not exist" in warning
    assert "max_iterations" not in warning
    # a tolerance stop is not a cut-off fit, so the sentence drops that clause
    assert "cut off" not in warning
    assert json.loads(fit_path.read_text())["converged"] is False
    report_path = tmp_path / "report.json"
    code = main(["infer", str(fit_path), str(matrix), "-o", str(report_path)])
    assert code == 2
    error = capsys.readouterr().err
    assert str(fit_path) in error
    assert "unconverged" in error and "large" in error and "cut off" not in error
    assert not report_path.exists()
    _assert_one_reason(warning, error, fit_path)


def _assert_one_reason(warning, refusal, fit_path):
    """``fit``'s warning and ``infer``'s refusal give the same reason."""
    prefix = f"data error: fit file {fit_path}: refusing inference on an unconverged fit: "
    assert refusal.startswith(prefix)
    assert warning == f"warning: unconverged fit: {refusal[len(prefix):]}"


def test_fit_warns_when_the_iteration_cap_is_hit(tmp_path, capsys):
    _, _, data_path = _simulate(tmp_path, n=2000)
    capsys.readouterr()
    fit_path = tmp_path / "fit.json"
    assert main(["fit", str(data_path), "-o", str(fit_path), "--max-iter", "1"]) == 0
    warning = capsys.readouterr().err
    assert "stopped at max_iterations=1 without meeting the objective tolerance" in warning
    code = main(["infer", str(fit_path), str(data_path), "-o", str(tmp_path / "r.json")])
    assert code == 2
    _assert_one_reason(warning, capsys.readouterr().err, fit_path)


def test_graph_requires_an_output(tmp_path, votes_csv, splits_csv):
    _, matrix = _prepare(tmp_path, votes_csv, splits_csv)
    fit_path = tmp_path / "fit.json"
    report_path = tmp_path / "report.json"
    main(["fit", str(matrix), "-o", str(fit_path)])
    main(["infer", str(fit_path), str(matrix), "-o", str(report_path)])
    assert main(["graph", str(report_path)]) == 1


# ---------------------------------------------------------------------------
# --config entries go through the flags' own declarations
# ---------------------------------------------------------------------------


@pytest.fixture
def chain_files(tmp_path):
    """A 4-row votes CSV, a degenerate spin CSV, a well-posed one, its fit and its report."""
    votes = tmp_path / "votes4.csv"
    votes.write_text("date,number,GOV,P1\n1/1,1,Yes,No\n1/1,2,No,-\n1/1,3,Yes,Yes\n1/1,4,No,No\n")
    flat = tmp_path / "flat.csv"
    fvbm.write_spin_csv(flat, ["a", "b"], np.column_stack([np.ones(10), -np.ones(10)]))
    _, _, data = _simulate(tmp_path, n=2000)
    fit_path, report = tmp_path / "fit.json", tmp_path / "report.json"
    assert main(["fit", str(data), "-o", str(fit_path)]) == 0
    assert main(["infer", str(fit_path), str(data), "-o", str(report)]) == 0
    return {
        "prepare": ["prepare", str(votes), "--reference", "GOV"],
        "fit": ["fit", str(flat)],
        "infer": ["infer", str(fit_path), str(data)],
        "graph": ["graph", str(report)],
    }


# (subcommand, config entry, the equivalent flags, exit code of both)
_CONFIG_PROBES = [
    ("fit", {"tol": None}, [], 0),
    ("fit", {"output": ["out"]}, ["extra"], 1),
    ("fit", {"strict": "false"}, ["--strict", "false"], 1),
    ("fit", {"max_iter": 2.7}, ["--max-iter", "2.7"], 1),
    ("infer", {"fdr": "xx"}, ["--fdr", "xx"], 1),
    ("graph", {"mode": "xx"}, ["--mode", "xx"], 1),
    ("infer", {"groups": "xx"}, ["--groups", "xx"], 1),
    # out of range: a usage error naming the flag (_RANGE_MESSAGES)
    ("prepare", {"k": 0}, ["--k", "0"], 1),
    ("prepare", {"drop_threshold": 0}, ["--drop-threshold", "0"], 1),
    ("fit", {"max_iter": 0}, ["--max-iter", "0"], 1),
    ("fit", {"tol": -1}, ["--tol", "-1"], 1),
    ("graph", {"level": 0}, ["--level", "0"], 1),
    # in range, but more neighbors than the 4 rows give: a data error
    ("prepare", {"k": 9}, ["--k", "9"], 2),
]


@pytest.mark.parametrize("command, entry, flags, code", _CONFIG_PROBES)
def test_config_entry_exits_like_its_flag(tmp_path, chain_files, command, entry, flags, code):
    output = "dot" if command == "graph" else "output"
    out = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({output: out, **entry}))
    assert main([*chain_files[command], "--config", str(config)]) == code
    assert main([*chain_files[command], f"--{output}", out, *flags]) == code


_RANGE_MESSAGES = [
    ("prepare", ["--k", "0"], "argument --k: k must be at least 1, got 0"),
    ("prepare", ["--drop-threshold", "0"],
     "argument --drop-threshold: threshold must lie in (0, 1], got 0.0"),
    ("fit", ["--max-iter", "0"], "argument --max-iter: max_iterations must be at least 1, got 0"),
    ("fit", ["--tol", "-1"], "argument --tol: objective_tolerance must be positive, got -1.0"),
    ("graph", ["--level", "0"], "argument --level: level must lie in (0, 1), got 0.0"),
]


@pytest.mark.parametrize("command, flags, message", _RANGE_MESSAGES)
def test_an_out_of_range_flag_is_a_usage_error_naming_it(
    tmp_path, chain_files, capsys, command, flags, message
):
    output = "--dot" if command == "graph" else "-o"
    assert main([*chain_files[command], output, str(tmp_path / "out"), *flags]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_simulate_refuses_a_negative_seed_or_size(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"d": 2, "bias": [0.0, 0.0], "interaction_upper": [0.0]}))
    out = str(tmp_path / "s.csv")
    for flag in ("--n", "--seed"):
        argv = ["simulate", str(params), "--n", "3", flag, "-1", "-o", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: argument {flag}: must be nonnegative, got -1\n"
    assert not (tmp_path / "s.csv").exists()


def test_config_refuses_keys_that_are_not_option_dests(tmp_path, chain_files):
    config = tmp_path / "config.json"
    for key in ("out", "config", "data", "help", "func"):
        config.write_text(json.dumps({"output": str(tmp_path / "f.json"), key: "x"}))
        assert main([*chain_files["fit"], "--config", str(config)]) == 1, key


def test_config_that_is_not_an_object_is_data_error(tmp_path, chain_files):
    config = tmp_path / "config.json"
    config.write_text("[]")
    out = str(tmp_path / "f.json")
    assert main([*chain_files["fit"], "-o", out, "--config", str(config)]) == 2


def test_config_switch_and_null(tmp_path, chain_files):
    config = tmp_path / "config.json"
    out = str(tmp_path / "f.json")
    config.write_text(json.dumps({"strict": True, "tol": None}))
    assert main([*chain_files["fit"], "-o", out, "--config", str(config)]) == 2
    config.write_text(json.dumps({"strict": False}))
    assert main([*chain_files["fit"], "-o", out, "--config", str(config)]) == 0
    assert main([*chain_files["fit"], "-o", out, "--config", str(config), "--strict"]) == 2


def test_help_wins_over_the_config_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["fit", "--help", "--config", missing]) == 0
    assert "iteration cap (default 1000)" in capsys.readouterr().out


def test_pair_flags_replace_the_config_pairs(tmp_path):
    _, _, data = _simulate(tmp_path, n=200)
    fit_path = tmp_path / "fit.json"
    assert main(["fit", str(data), "-o", str(fit_path)]) == 0
    config = tmp_path / "config.json"
    out = tmp_path / "probs.json"

    def pairs(config_pairs, *flags):
        config.write_text(json.dumps({"pair": config_pairs}))
        argv = ["probs", str(fit_path), "-o", str(out), "--config", str(config), *flags]
        assert main(argv) == 0
        return [(p["a"], p["b"]) for p in json.loads(out.read_text())["pairs"]]

    assert pairs(["P,Q", "Q,P"]) == [("P", "Q"), ("Q", "P")]
    assert pairs("P,Q") == [("P", "Q")]
    assert pairs(["P,Q", "Q,P"], "--pair", "Q,P") == [("Q", "P")]
    assert pairs(None, "--pair", "Q,P", "--pa", "P,Q") == [("Q", "P"), ("P", "Q")]


# the options of each subcommand, then its positional names
_CONFIG_KEYS = {
    "prepare": ["splits", "reference", "extract_member", "extract_label", "k",
                "drop_threshold", "output", "json", "provenance", "votes"],
    "fit": ["output", "tol", "max_iter", "init", "strict", "data"],
    "infer": ["output", "tables", "fdr", "groups", "fit", "data"],
    "probs": ["output", "pair", "fit"],
    "graph": ["mode", "level", "dot", "json", "report"],
    "simulate": ["n", "seed", "labels", "output", "params"],
}
# valid entries for the options a run cannot do without
_REQUIRED = {
    "prepare": {"reference": "GOV", "output": "out"},
    "fit": {"output": "out"},
    "infer": {"output": "out"},
    "probs": {"output": "out"},
    "graph": {"dot": "out"},
    "simulate": {"n": 1, "output": "out"},
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=_JSON)
def test_any_config_value_gives_a_stable_exit_code(tmp_path_factory, data, value):
    command = data.draw(st.sampled_from(sorted(_CONFIG_KEYS)))
    key = data.draw(st.sampled_from([*_CONFIG_KEYS[command], "config", "out"]))
    directory = tmp_path_factory.getbasetemp() / "config-values"
    directory.mkdir(exist_ok=True)
    config = directory / "config.json"
    config.write_text(json.dumps({**_REQUIRED[command], key: value}))
    # the inputs do not exist, so no run gets as far as writing a file
    inputs = [str(directory / "missing")] * (2 if command == "infer" else 1)
    assert main([command, *inputs, "--config", str(config)]) in (0, 1, 2, 3)


def test_fit_refuses_repeated_column_labels(tmp_path, capsys):
    path = tmp_path / "spins.csv"
    rows = np.random.default_rng(0).choice([-1, 1], (50, 3))
    path.write_text("A,A,B\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('"A",B,A\n1,1,-1\n-1,1,1\n', encoding="utf-8")
    for csv_path in (path, quoted):
        capsys.readouterr()
        assert main(["fit", str(csv_path), "-o", str(tmp_path / "f.json")]) == 2
        assert "repeats column label(s) A" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_probs_and_graph_refuse_repeated_labels(tmp_path, chain_files, capsys):
    fit_path, out = tmp_path / "hand.json", tmp_path / "out.json"
    fit_path.write_text(json.dumps({
        "schema_version": 1,
        "params": {"d": 2, "bias": [0.0, 0.0], "interaction_upper": [0.0]},
        "objective_trace": [0.0],
        "iterations_used": 0,
        "converged": False,
        "labels": ["A", "A"],
    }))
    capsys.readouterr()
    assert main(["probs", str(fit_path), "-o", str(out)]) == 2
    assert "repeats column label(s) A" in capsys.readouterr().err
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report["labels"] = ["P", "P"]
    report_path.write_text(json.dumps(report))
    assert main(["graph", str(report_path), "--json", str(out)]) == 2
    assert "repeats column label(s) P" in capsys.readouterr().err
    assert not out.exists()


def test_back_to_back_calls_behave_like_fresh_ones(tmp_path, chain_files):
    fit_path = chain_files["infer"][1]
    out = tmp_path / "out.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pair": ["P,Q", "Q,P"], "output": str(out)}))
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps({"strict": True}))
    argvs = [
        ["probs", fit_path, "--config", str(config)],
        ["probs", fit_path, "--config", str(config), "--pair", "Q,P"],
        ["probs", fit_path, "--config", str(config)],
        ["probs", fit_path, "-o", str(out)],
        [*chain_files["fit"], "-o", str(out), "--config", str(strict)],
        [*chain_files["fit"], "-o", str(out)],
        ["probs", fit_path, "--pair", "P", "-o", str(out)],
        [],
    ]

    def run(fresh):
        outcomes = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            out.unlink(missing_ok=True)
            code = main(argv)
            outcomes.append((code, out.read_text() if out.exists() else None))
        return outcomes

    shared = run(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _ in shared] == [0, 0, 0, 0, 2, 0, 1, 1]
    pairs = [[(p["a"], p["b"]) for p in json.loads(text)["pairs"]] for _, text in shared[:4]]
    assert pairs == [[("P", "Q"), ("Q", "P")], [("Q", "P")], [("P", "Q"), ("Q", "P")], []]
    assert run(fresh=False) == shared
    assert run(fresh=True) == shared


def test_main_calls_the_subcommand_function_bound_at_call_time(tmp_path, chain_files, monkeypatch):
    fit_path = chain_files["infer"][1]
    assert main(["probs", fit_path, "-o", str(tmp_path / "a.json")]) == 0
    calls = []
    original = cli.cmd_probs
    monkeypatch.setattr(cli, "cmd_probs", lambda args: calls.append(args) or original(args))
    assert main(["probs", fit_path, "-o", str(tmp_path / "b.json")]) == 0
    assert len(calls) == 1 and (tmp_path / "b.json").exists()


def test_probs_pair_naming_one_column_twice_is_usage_error(tmp_path, chain_files, capsys):
    out = tmp_path / "probs.json"
    capsys.readouterr()
    assert main(["probs", chain_files["infer"][1], "--pair", "P,P", "-o", str(out)]) == 1
    error = capsys.readouterr().err
    assert error.startswith("usage error: ") and "'P,P'" in error
    assert not out.exists()


def test_probs_output_is_byte_identical_across_runs(tmp_path):
    d = 12
    rng = np.random.default_rng(12)
    params = fvbm.FvbmParams.from_flat(d, rng.uniform(-0.5, 0.5, fvbm.flat_length(d)))
    labels = [f"C{j}" for j in range(d)]
    record = fvbm.FitResult(
        params=params, objective_trace=np.zeros(1), iterations_used=0, converged=True
    )
    fit_path = tmp_path / "fit.json"
    fvbm.jsonio.dump(record.to_json_dict(labels), fit_path)
    pairs = [arg for spec in ("C0,C11", "C11,C0", "C4,C5", "C9,C2") for arg in ("--pair", spec)]
    outputs = []
    for name in ("a.json", "b.json"):
        assert main(["probs", str(fit_path), "-o", str(tmp_path / name), *pairs]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    there, back = json.loads(outputs[0])["pairs"][:2]
    assert [there["joint"][c] for c in ("++", "+-", "-+", "--")] == [
        back["joint"][c] for c in ("++", "-+", "+-", "--")
    ]


def test_simulate_refuses_repeated_labels(tmp_path):
    params_path = tmp_path / "params.json"
    fvbm.jsonio.dump(fvbm.FvbmParams.zeros(3).to_json_dict(), params_path)
    out = tmp_path / "sim.csv"
    argv = ["simulate", str(params_path), "--n", "5", "--labels", "A,A,B", "-o", str(out)]
    assert main(argv) == 1
    assert not out.exists()


def test_infer_refuses_a_fit_record_whose_converged_is_not_a_boolean(
    tmp_path, votes_csv, splits_csv
):
    # the 8-row fixture is separated: its fit is unconverged, and a record
    # that says "false" must not pass for converged
    _, matrix = _prepare(tmp_path, votes_csv, splits_csv)
    fit_path = tmp_path / "fit.json"
    assert main(["fit", str(matrix), "-o", str(fit_path)]) == 0
    record = json.loads(fit_path.read_text())
    for converged in ("false", "true", 1, None):
        record["converged"] = converged
        fit_path.write_text(json.dumps(record))
        assert main(["infer", str(fit_path), str(matrix), "-o", str(tmp_path / "r.json")]) == 2


def test_prepare_names_the_split_cell_that_has_no_records(tmp_path, votes_csv, capsys):
    capsys.readouterr()
    assert main(["prepare", str(votes_csv), "--reference", "GOV", "-o", str(tmp_path / "m.csv")]) == 2
    assert "split cell at 1/1 #1 (party 'CCC')" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


# (subcommand, entries replacing those of its d=2 fit or report record)
_RECORD_PROBES = [
    ("probs", {"labels": 5}),
    ("probs", {"labels": [1, 2]}),
    ("probs", {"labels": ["A"]}),
    ("probs", {"labels": ["A", "B", "C"]}),
    ("graph", {"labels": 5}),
    ("graph", {"labels": ["A", 3]}),
    ("graph", {"labels": {"A": 1, "B": 2}}),
    ("infer", {"converged": False, "last_step": [1.0] * 5}),
    ("infer", {"converged": False, "degenerate_columns": [7]}),
    ("infer", {"converged": False, "degenerate_columns": ["x"]}),
    ("probs", {"converged": False, "last_step": [1.0]}),
    ("graph", {"estimates": [1.0]}),
    ("graph", {"adjustment_groups": 3}),
    ("infer", {"converged": True, "last_step": [0.0, 0.0, 0.5]}),
    ("infer", {"converged": True, "degenerate_columns": [1]}),
    ("probs", {"converged": True, "last_step": [0.0, -0.002, 0.0]}),
]


def _edited_run(chain_files, command, entries, directory):
    """Run ``command`` on a copy of its chain record with ``entries`` put
    in; returns the exit code, the edited record's path and the output path."""
    record_path = Path(chain_files["graph" if command == "graph" else "infer"][1])
    record = {**json.loads(record_path.read_text()), **entries}
    edited, out = directory / "edited.json", directory / "out.json"
    edited.write_text(json.dumps(record))
    out.unlink(missing_ok=True)
    inputs = {"probs": [], "graph": [], "infer": chain_files["infer"][2:]}[command]
    flag = "--json" if command == "graph" else "-o"
    return main([command, str(edited), *inputs, flag, str(out)]), edited, out


@pytest.mark.parametrize("command, entries", _RECORD_PROBES)
def test_hand_edited_record_is_a_data_error_naming_its_file(
    tmp_path, chain_files, capsys, command, entries
):
    capsys.readouterr()
    code, edited, out = _edited_run(chain_files, command, entries, tmp_path)
    error = capsys.readouterr().err
    assert code == 2
    assert error.startswith("data error: ") and str(edited) in error
    assert not out.exists()


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("records")
    _, _, data = _simulate(directory, n=2000)
    fit_path, report = directory / "fit.json", directory / "report.json"
    assert main(["fit", str(data), "-o", str(fit_path)]) == 0
    assert main(["infer", str(fit_path), str(data), "-o", str(report)]) == 0
    return {"infer": ["infer", str(fit_path), str(data)], "graph": ["graph", str(report)]}


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["probs", "infer", "graph"]),
    key=st.sampled_from(["labels", "last_step", "degenerate_columns", "stopped_by"]),
    converged=st.booleans(),
    value=_JSON
    | st.lists(st.text(max_size=2) | st.integers(-1, 3) | st.floats(), max_size=5)
    | st.sampled_from(STOP_RULES),
)
def test_any_record_value_gives_a_stable_exit_code(record_files, command, key, converged, value):
    entries = {"labels": value} if command == "graph" else {key: value, "converged": converged}
    directory = Path(record_files["graph"][1]).parent
    assert _edited_run(record_files, command, entries, directory)[0] in (0, 1, 2, 3)


def test_fit_warns_and_strict_refuses_with_the_reason_infer_gives(tmp_path, capsys):
    data = np.random.default_rng(63).choice([-1.0, 1.0], (60, 3))
    separated, constant = data.copy(), data.copy()
    separated[:, 2] = separated[:, 0]
    constant[:, 1] = 1.0
    path, out = tmp_path / "spins.csv", tmp_path / "fit.json"
    for table, flags in ((separated, []), (constant, ["--strict"])):
        fvbm.write_spin_csv(path, ["a", "b", "c"], table)
        names = fvbm.flat_labels(["a", "b", "c"])
        with pytest.raises(fvbm.DataError) as refusal:
            fvbm.build_report(fvbm.fit(table), table, coordinate_names=names)
        prefix = "refusing inference on an unconverged fit: "
        assert str(refusal.value).startswith(prefix)
        reason = str(refusal.value)[len(prefix):]
        capsys.readouterr()
        code = main(["fit", str(path), "-o", str(out), *flags])
        error = capsys.readouterr().err
        if flags:
            assert code == 2 and error == f"data error: {reason}\n"
        else:
            assert code == 0 and reason in error and "a:c" in reason


# (input kind, a faulty file of that kind, the argv that reads it as BAD)
_FAULTY_INPUTS = [
    ("fit file", "{", ["probs", "BAD", "-o", "OUT"]),
    ("fit file", "[1, 2", ["infer", "BAD", "SPINS", "-o", "OUT"]),
    ("report file", "{", ["graph", "BAD", "--json", "OUT"]),
    ("params file", '{"d": 2, "bias": [0.0, 0.0]}', ["simulate", "BAD", "--n", "3", "-o", "OUT"]),
    ("--init file", '{"d": 2, "bias": [0.0]}', ["fit", "SPINS", "--init", "BAD", "-o", "OUT"]),
    ("config file", "{'k': 1}", ["fit", "SPINS", "--config", "BAD", "-o", "OUT"]),
    ("config file", "[]", ["fit", "SPINS", "--config", "BAD", "-o", "OUT"]),
    ("spin CSV", "a,b\n1,-1\n1,yes\n", ["fit", "BAD", "-o", "OUT"]),
    ("spin CSV", "a,b\n1,-1\n0,1\n", ["infer", "FIT", "BAD", "-o", "OUT"]),
    ("spin CSV", "", ["fit", "BAD", "-o", "OUT"]),  # the reader's message names it
    ("spin CSV", "a,b\n", ["infer", "FIT", "BAD", "-o", "OUT"]),
    ("votes CSV", "date,number,GOV,AAA\n1/1,1,Yes,Abstain\n", ["prepare", "BAD", "--reference", "GOV", "-o", "OUT"]),
    ("splits CSV", "date,number,senator\n1/1,1,cull\n", ["prepare", "VOTES", "--splits", "BAD", "--reference", "GOV", "-o", "OUT"]),
    # an initializer whose dimension is not the data's (fit's own check)
    ("--init file", '{"d": 3, "bias": [0, 0, 0], "interaction_upper": [0, 0, 0]}', ["fit", "SPINS", "--init", "BAD", "-o", "OUT"]),
]


@pytest.mark.parametrize(
    "kind, text, argv", _FAULTY_INPUTS, ids=[f"{argv[0]}-{i}" for i, (_, _, argv) in enumerate(_FAULTY_INPUTS)]
)
def test_an_input_fault_is_a_data_error_naming_its_file_once(
    tmp_path, record_files, votes_csv, capsys, kind, text, argv
):
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_text(text, encoding="utf-8")
    paths = {"BAD": bad, "OUT": out, "VOTES": votes_csv}
    paths["FIT"], paths["SPINS"] = record_files["infer"][1:]
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 2
    error = capsys.readouterr().err
    assert error.startswith(f"data error: {kind} {bad}") and error.count(str(bad)) == 1
    assert not out.exists()


@pytest.mark.parametrize("labels, message", [("A,B", "2 labels for 3 columns"), ("A,A,B", "repeats")])
def test_simulate_labels_are_checked_as_usage(tmp_path, capsys, labels, message):
    params_path = tmp_path / "params.json"
    fvbm.jsonio.dump(fvbm.FvbmParams.zeros(3).to_json_dict(), params_path)
    capsys.readouterr()
    argv = ["simulate", str(params_path), "--n", "5", "--labels", labels, "-o", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    error = capsys.readouterr().err
    assert error.startswith("usage error: --labels: ") and message in error


@pytest.mark.parametrize("p, labels", [(4, None), (6, ["X1", "X2", "X3"])])
def test_graph_finds_the_dimension_of_a_report_from_its_length(tmp_path, capsys, p, labels):
    report = {
        "estimates": [0.1] * p,
        "standard_errors": [1.0] * p,
        "z_scores": [0.1] * p,
        "p_values": [0.5] * p,
        "adjusted_p_values": [0.5] * p,
        "adjustment_groups": {"all": list(range(p))},
    }
    path, out = tmp_path / "report.json", tmp_path / "network.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    code = main(["graph", str(path), "--json", str(out)])
    if labels is None:
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: report file {path}: report has {p} coordinates, "
            f"which matches no bias-plus-upper-triangle layout\n"
        )
    else:
        assert code == 0
        assert [node["label"] for node in json.loads(out.read_text())["nodes"]] == labels


# fit -> infer -> graph as in the wide-fit-infer benchmark, in a fresh process
_WIDE_CHAIN = """
import sys
from fvbm.cli import main
data, out = sys.argv[1:]
for args in (
    ["fit", data, "-o", out + "/fit.json", "--tol", "1e-10"],
    ["infer", out + "/fit.json", data, "-o", out + "/report.json"],
    ["graph", out + "/report.json", "--mode", "fdr", "--level", "0.10",
     "--dot", out + "/network.dot", "--json", out + "/network.json"],
):
    if main(args) != 0:
        sys.exit(args[0] + " failed")
"""
# BLAS reductions split differently over 1 and 2 threads.  Measured worst
# relative gaps: 8e-14 here, 4e-13 on the d=24 benchmark chain.
THREADS_RTOL = 1e-10
# The fit's last Newton step solves for rounding-level scores, so its
# entries (~1e-10) move by ~1e-16 with the thread count: an absolute bound.
LAST_STEP_ATOL = 1e-12


def _assert_trees_close(a, b, where: str = "$") -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_trees_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), where
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_trees_close(u, v, f"{where}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        if ".last_step[" in where:
            assert abs(a - b) <= LAST_STEP_ATOL, (where, a, b)
        else:
            assert math.isclose(a, b, rel_tol=THREADS_RTOL), (where, a, b)
    else:
        assert a == b, (where, a, b)


def test_wide_chain_reruns_are_byte_identical_and_blas_threads_agree_within_bound(tmp_path):
    rng = np.random.default_rng(24)
    x = np.hstack(
        [fvbm.sample(random_params(rng, 8, scale=0.5), 1000, seed=100 + b) for b in range(2)]
    )
    data = tmp_path / "spins.csv"
    fvbm.write_spin_csv(data, [f"{block}{j}" for block in "AB" for j in range(8)], x)
    runs = {}
    for name, threads in (("one", 1), ("one_again", 1), ("two", 2)):
        out = tmp_path / name
        out.mkdir()
        env = _subprocess_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        done = subprocess.run(
            [sys.executable, "-c", _WIDE_CHAIN, str(data), str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        runs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert set(runs["one"]) == {
        "fit.json", "report.json", "report.tables.txt", "network.dot", "network.json"
    }
    assert runs["one_again"] == runs["one"]
    fit = json.loads(runs["one"]["fit.json"])
    assert fit["converged"] is True and fit["stopped_by"] == "tolerance"
    for artefact in ("fit.json", "report.json", "network.json"):
        _assert_trees_close(json.loads(runs["one"][artefact]), json.loads(runs["two"][artefact]))
