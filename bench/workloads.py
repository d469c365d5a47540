"""Benchmark workloads: seeded input generators, CLI chains and output checks.

Each workload is three functions:

- ``generate(seed, directory)`` writes the inputs and returns a JSON-able
  spec (file paths plus the expectations the checks need).  The same seed
  gives byte-identical files.  Model parameters that set the amount of work
  (fit sweeps, missing cells, split rows) are fixed or exact counts, so the
  seed moves the draw but not the size of the job.
- ``chain(spec, outdir)`` returns the ``fvbm`` argv lists of one pass.
- ``check(spec, outdir)`` returns the failed output checks of one pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fvbm
from fvbm import jsonio

# Fixed model parameters are drawn from this seed (arXiv 1901.04913), so only
# the data, not the true model, changes with the workload seed.
MODEL_SEED = 190104913
SCORE_LIMIT = 1e-6  # max |pseudo_score| / n at a converged fit
FIT_TOL = "1e-10"  # the default 1e-8 stops at max|score|/n ~ 1e-6, on the limit
COVERAGE_MIN = 0.85  # share of 95% Wald intervals that must cover the truth
MARGINAL_SES = 4.0  # marginals within this many binomial SEs of the sample


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, Path], dict]
    chain: Callable[[dict, Path], list[list[str]]]
    check: Callable[[dict, Path], list[str]]


def _uniform_params(rng: np.random.Generator, d: int, bias: float, coupling: float):
    b = rng.uniform(-bias, bias, d)
    iu = np.triu_indices(d, 1)
    m = np.zeros((d, d))
    m[iu] = rng.uniform(-coupling, coupling, iu[0].size)
    return fvbm.FvbmParams(bias=b, interaction=m + m.T)


def _block_diagonal(blocks: list) -> "fvbm.FvbmParams":
    d = sum(p.d for p in blocks)
    m = np.zeros((d, d))
    start = 0
    for p in blocks:
        m[start : start + p.d, start : start + p.d] = p.interaction
        start += p.d
    return fvbm.FvbmParams(bias=np.concatenate([p.bias for p in blocks]), interaction=m)


def ill_posed_columns(x: np.ndarray) -> list[str]:
    """Constant columns and identical or mirror-image column pairs of a +/-1 matrix."""
    n, d = x.shape
    problems = [f"column {j} is constant" for j in range(d) if abs(x[:, j].sum()) == n]
    gram = x.T @ x
    problems += [
        f"columns {j} and {k} are {'identical' if gram[j, k] > 0 else 'mirror images'}"
        for j in range(d)
        for k in range(j + 1, d)
        if abs(gram[j, k]) == n
    ]
    return problems


def _draw(params, n: int, rng: np.random.Generator) -> np.ndarray:
    return fvbm.sample(params, n, seed=int(rng.integers(2**63)))


def _well_posed(draw: Callable[[np.random.Generator], np.ndarray], seed: int):
    """First draw, over attempts 0, 1, ..., with no ill-posed column or pair.

    Returns the draw and its generator, for the caller's further choices.
    """
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        x = draw(rng)
        if not ill_posed_columns(x):
            return x, rng
    raise RuntimeError(f"seed {seed}: no well-posed draw in 100 attempts")


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# shared output checks
# ---------------------------------------------------------------------------


def _check_fit(fit_path: Path, data_path: Path) -> list[str]:
    obj = jsonio.load(fit_path)
    result = fvbm.FitResult.from_json_dict(obj)
    failures = [] if result.converged else ["fit did not converge"]
    _, x = fvbm.read_spin_csv(data_path)
    score = float(np.abs(fvbm.pseudo_score(result.params, x)).max()) / x.shape[0]
    if not score <= SCORE_LIMIT:
        failures.append(f"max|pseudo_score|/n = {score:.3g} > {SCORE_LIMIT:g}")
    return failures


def _check_report(report_path: Path, fit_path: Path) -> list[str]:
    report = jsonio.load(report_path)
    flat = fvbm.FitResult.from_json_dict(jsonio.load(fit_path)).params.to_flat()
    failures = []
    if report["estimates"] != [float(v) for v in flat]:
        failures.append("report estimates differ from the fit's flat vector")
    for q, (est, se, z, p) in enumerate(
        zip(report["estimates"], report["standard_errors"], report["z_scores"], report["p_values"])
    ):
        if z != est / se or not math.isclose(p, math.erfc(abs(z) / math.sqrt(2.0)), rel_tol=1e-12):
            failures.append(f"report coordinate {q}: z or p-value inconsistent with estimate/SE")
            break
    return failures


def _check_probs(probs_path: Path, n_pairs: int) -> list[str]:
    probs = jsonio.load(probs_path)
    failures = []
    if len(probs["pairs"]) != n_pairs:
        failures.append(f"probs has {len(probs['pairs'])} pairs, expected {n_pairs}")
    for pair in probs["pairs"]:
        total = math.fsum(pair["joint"].values())
        if abs(total - 1.0) > 1e-12:
            failures.append(f"joint of {pair['a']},{pair['b']} sums to {total!r}")
    return failures


def _check_network(network_path: Path, dot_path: Path, labels: list[str]) -> list[str]:
    network = jsonio.load(network_path)
    failures = []
    if [node["label"] for node in network["nodes"]] != labels:
        failures.append("network nodes differ from the data labels")
    if len(network["edges"]) != len(labels) * (len(labels) - 1) // 2:
        failures.append("network does not carry one edge per column pair")
    if not dot_path.read_text(encoding="utf-8").startswith("graph"):
        failures.append("DOT output does not start with a graph statement")
    return failures


# ---------------------------------------------------------------------------
# senate-pipeline: prepare -> fit -> infer -> probs -> graph
# ---------------------------------------------------------------------------

SENATE = {
    "rows": 400,
    "parties": ["LNP", "ALP", "GRN", "NXT", "PHON", "JLN", "DHJP", "LDP", "FFP", "AC"],
    "reference": "LNP",
    "split_party": "PHON",
    "members": ["burston", "culleton", "hanson"],
    "extract": "culleton",
    "extract_label": "CULL",
    "missing_share": 0.10,
    "split_share": 0.08,
    "bias": 0.6,
    "coupling": 0.4,
    "k": 3,
    "pairs": ["PHON,CULL", "ALP,GRN"],
}


def generate_senate(seed: int, directory: Path) -> dict:
    """Party-level divisions plus member records for the split rows.

    Agreements with the reference party are exact ``fvbm.sample`` draws of
    the nine other parties.  On exactly ``split_share`` of the rows the
    split party splits: two members vote the party line and the extracted
    member votes against it, so the extracted column differs from its
    party's on exactly those rows.  Exactly ``missing_share`` of the
    remaining party cells become ``-``.
    """
    cfg = SENATE
    n, parties = cfg["rows"], cfg["parties"]
    others = [p for p in parties if p != cfg["reference"]]
    party_col = others.index(cfg["split_party"])
    n_split = round(cfg["split_share"] * n)
    model = _uniform_params(np.random.default_rng(MODEL_SEED), len(others), cfg["bias"], cfg["coupling"])

    def draw(rng):
        agree = _draw(model, n, rng)
        member = agree[:, party_col].copy()
        member[rng.choice(n, n_split, replace=False)] *= -1.0
        return np.column_stack([agree, member])

    x, rng = _well_posed(draw, seed)
    split_rows = np.flatnonzero(x[:, -1] != x[:, party_col])
    reference_yes = rng.random(n) < 0.5
    votes = [
        ["Yes" if (ref == (a > 0)) else "No" for a in row]
        for ref, row in zip(reference_yes, x[:, : len(others)])
    ]
    table = [["Yes" if ref else "No"] + row for ref, row in zip(reference_yes, votes)]
    split_index = 1 + party_col  # column of the split party in ``table``
    for r in split_rows:
        table[r][split_index] = "Split"

    cells = [(r, c) for r in range(n) for c in range(len(parties)) if table[r][c] != "Split"]
    n_missing = round(cfg["missing_share"] * len(cells))
    for i in rng.choice(len(cells), n_missing, replace=False):
        r, c = cells[i]
        table[r][c] = "-"
    if any(all(v == "-" for v in row) for row in table):
        raise RuntimeError(f"seed {seed}: a division has no recorded vote")

    keys = [(f"2016-{1 + r // 4:03d}", str(1 + r % 4)) for r in range(n)]
    votes_path = directory / "divisions.csv"
    _write_csv(votes_path, [["date", "number", *parties]] + [[*k, *row] for k, row in zip(keys, table)])
    records = [["date", "number", "senator", "vote"]]
    for r in split_rows:
        party_vote = "Yes" if reference_yes[r] == (x[r, party_col] > 0) else "No"
        rebel_vote = "No" if party_vote == "Yes" else "Yes"
        for member in cfg["members"]:
            records.append([*keys[r], member, rebel_vote if member == cfg["extract"] else party_vote])
    splits_path = directory / "members.csv"
    _write_csv(splits_path, records)

    # The extracted column copies its party's cell outside the split rows,
    # so a missing party cell there is a second missing cell to impute.
    copied = sum(row[split_index] == "-" for row in table)
    return {
        "votes": str(votes_path),
        "splits": str(splits_path),
        "labels": others + [cfg["extract_label"]],
        "rows": n,
        "split_cells": n_split,
        "imputed_cells": n_missing + copied,
    }


def chain_senate(spec: dict, outdir: Path) -> list[list[str]]:
    cfg = SENATE
    matrix, fit, report = outdir / "matrix.csv", outdir / "fit.json", outdir / "report.json"
    pairs = [arg for pair in cfg["pairs"] for arg in ("--pair", pair)]
    return [
        ["prepare", spec["votes"], "--splits", spec["splits"], "--reference", cfg["reference"],
         "--extract-member", cfg["extract"], "--extract-label", cfg["extract_label"],
         "--k", str(cfg["k"]), "-o", str(matrix)],
        ["fit", str(matrix), "-o", str(fit), "--tol", FIT_TOL],
        ["infer", str(fit), str(matrix), "-o", str(report)],
        ["probs", str(fit), "-o", str(outdir / "probs.json"), *pairs],
        ["graph", str(report), "--mode", "fdr", "--level", "0.10",
         "--dot", str(outdir / "network.dot"), "--json", str(outdir / "network.json")],
    ]


def check_senate(spec: dict, outdir: Path) -> list[str]:
    failures = []
    labels, x = fvbm.read_spin_csv(outdir / "matrix.csv")
    if labels != spec["labels"] or x.shape != (spec["rows"], len(spec["labels"])):
        failures.append(f"matrix is {x.shape} with labels {labels}")
    prov = jsonio.load(outdir / "matrix.csv.prov.json")
    for key, want in (("imputed_cells", spec["imputed_cells"]), ("split_cells_resolved", spec["split_cells"])):
        if prov[key] != want:
            failures.append(f"provenance {key} = {prov[key]}, expected {want}")
    failures += _check_fit(outdir / "fit.json", outdir / "matrix.csv")
    failures += _check_report(outdir / "report.json", outdir / "fit.json")
    failures += _check_probs(outdir / "probs.json", len(SENATE["pairs"]))
    failures += _check_network(outdir / "network.json", outdir / "network.dot", spec["labels"])
    return failures


# ---------------------------------------------------------------------------
# wide-fit-infer: fit -> infer -> graph on three independent blocks
# ---------------------------------------------------------------------------

WIDE = {"blocks": 3, "block_d": 8, "rows": 2000, "bias": 0.5, "coupling": 0.5}


def _wide_truth():
    rng = np.random.default_rng(MODEL_SEED)
    return [
        _uniform_params(rng, WIDE["block_d"], WIDE["bias"], WIDE["coupling"])
        for _ in range(WIDE["blocks"])
    ]


def generate_wide(seed: int, directory: Path) -> dict:
    """Spin CSV of independent exact draws from three fixed 8-column blocks."""
    blocks = _wide_truth()
    x, _ = _well_posed(lambda rng: np.hstack([_draw(p, WIDE["rows"], rng) for p in blocks]), seed)
    labels = [f"{'ABC'[b]}{i + 1}" for b in range(WIDE["blocks"]) for i in range(WIDE["block_d"])]
    path = directory / "spins.csv"
    fvbm.write_spin_csv(path, labels, x)
    return {
        "data": str(path),
        "labels": labels,
        "truth": [float(v) for v in _block_diagonal(blocks).to_flat()],
    }


def chain_wide(spec: dict, outdir: Path) -> list[list[str]]:
    fit, report = outdir / "fit.json", outdir / "report.json"
    return [
        ["fit", spec["data"], "-o", str(fit), "--tol", FIT_TOL],
        ["infer", str(fit), spec["data"], "-o", str(report)],
        ["graph", str(report), "--mode", "fdr", "--level", "0.10",
         "--dot", str(outdir / "network.dot"), "--json", str(outdir / "network.json")],
    ]


def wald_coverage(report: dict, truth: list[float]) -> float:
    """Share of 95% Wald intervals (estimate +/- 1.96 SE) that contain the truth."""
    est, se = np.array(report["estimates"]), np.array(report["standard_errors"])
    return float(np.mean(np.abs(est - np.array(truth)) <= 1.959963984540054 * se))


def check_wide(spec: dict, outdir: Path) -> list[str]:
    failures = _check_fit(outdir / "fit.json", Path(spec["data"]))
    failures += _check_report(outdir / "report.json", outdir / "fit.json")
    coverage = wald_coverage(jsonio.load(outdir / "report.json"), spec["truth"])
    if coverage < COVERAGE_MIN:
        failures.append(f"Wald coverage of the truth {coverage:.3f} < {COVERAGE_MIN}")
    failures += _check_network(outdir / "network.json", outdir / "network.dot", spec["labels"])
    return failures


# ---------------------------------------------------------------------------
# exact-enumeration: simulate -> probs at d=20
# ---------------------------------------------------------------------------

EXACT = {"d": 20, "rows": 20000, "bias": 0.5, "coupling": 0.1}


def generate_exact(seed: int, directory: Path) -> dict:
    """A seeded d=20 model as a params record and as a fit record."""
    d = EXACT["d"]
    params = _uniform_params(np.random.default_rng([MODEL_SEED, seed]), d, EXACT["bias"], EXACT["coupling"])
    labels = [f"X{j + 1}" for j in range(d)]
    params_path, fit_path = directory / "params.json", directory / "fit.json"
    jsonio.dump(params.to_json_dict(), params_path)
    record = fvbm.FitResult(params=params, objective_trace=np.zeros(1), iterations_used=0, converged=True)
    jsonio.dump(record.to_json_dict(labels), fit_path)
    return {"params": str(params_path), "fit": str(fit_path), "labels": labels, "seed": seed}


def chain_exact(spec: dict, outdir: Path) -> list[list[str]]:
    labels = spec["labels"]
    pairs = [arg for a, b in zip(labels, labels[1:]) for arg in ("--pair", f"{a},{b}")]
    return [
        ["simulate", spec["params"], "--n", str(EXACT["rows"]), "--seed", str(spec["seed"]),
         "--labels", ",".join(labels), "-o", str(outdir / "sample.csv")],
        ["probs", spec["fit"], "-o", str(outdir / "probs.json"), *pairs],
    ]


def check_exact(spec: dict, outdir: Path) -> list[str]:
    labels, x = fvbm.read_spin_csv(outdir / "sample.csv")
    failures = []
    if labels != spec["labels"] or x.shape != (EXACT["rows"], EXACT["d"]):
        failures.append(f"sample is {x.shape} with labels {labels}")
        return failures
    failures += _check_probs(outdir / "probs.json", EXACT["d"] - 1)
    marginals = jsonio.load(outdir / "probs.json")["marginals"]
    share, se = fvbm.empirical_proportions(x)
    for j, label in enumerate(labels):
        gap = abs(marginals[label] - share[j])
        if not gap <= MARGINAL_SES * se[j]:
            failures.append(f"marginal {label} is {gap / se[j]:.1f} SEs from the sample")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("senate-pipeline", generate_senate, chain_senate, check_senate),
        Workload("wide-fit-infer", generate_wide, chain_wide, check_wide),
        Workload("exact-enumeration", generate_exact, chain_exact, check_exact),
    )
}
