"""Pass loop, set-up probe, environment record and metric assembly.

One run measures one workload in its own process.  It generates the inputs
from the seed, runs one checked warm-up pass, then timed passes of the
workload's CLI chain through ``fvbm.cli.main`` until ``seconds`` have
passed.  Every pass is checked outside the timed region: exit codes, the
workload's output checks, and artefact bytes equal to the first pass's.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fvbm.cli
import spans
import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
INPUTS_PER_RUN = 3  # inputs drawn from the seed; each pass runs the chain on all
SETUP_PROBES = 5  # fresh interpreters before and again after the passes; setup_s is the median
MIN_PASSES = 3  # timed passes (or traced pairs) even when ``seconds`` runs out first
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fvbm.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Tally:
    """Checked passes of one run: attempts, failures and timed wall times."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, seconds: float | None, failures: list[str]) -> None:
        """Count one pass; ``seconds`` is None for an untimed (warm-up) pass."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)
        if seconds is not None and math.isfinite(seconds):
            self.times.append(seconds)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def artefact_hashes(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


def check_pass(workload, spec: dict, outdir: Path, codes: list[int], reference: dict | None) -> list[str]:
    """Failed checks of one pass; ``reference`` holds the first pass's artefact hashes."""
    failed_steps = [f"step {i + 1} exited with code {c}" for i, c in enumerate(codes) if c != 0]
    if failed_steps:
        return failed_steps
    failures = workload.check(spec, outdir)
    if reference is not None:
        hashes = artefact_hashes(outdir)
        failures += [
            f"{name} differs from the first pass"
            for name in sorted(set(hashes) | set(reference))
            if hashes.get(name) != reference.get(name)
        ]
    return failures


def run_chain(argvs: list[list[str]]) -> tuple[float, list[int]]:
    """Wall time and exit codes of one pass; stops at the first failing step."""
    codes = []
    start = time.perf_counter()
    for argv in argvs:
        codes.append(fvbm.cli.main(argv))
        if codes[-1] != 0:
            break
    return time.perf_counter() - start, codes


def artefact_counts(outdir: Path) -> dict[str, float]:
    """Work counts the artefacts record: imputed cells and fit sweeps (0 if absent)."""
    prov, fit = outdir / "matrix.csv.prov.json", outdir / "fit.json"
    return {
        "votes.imputed_cells": json.loads(prov.read_text())["imputed_cells"] if prov.exists() else 0,
        "fit.sweeps": json.loads(fit.read_text())["iterations_used"] if fit.exists() else 0,
    }


class Runner:
    """Runs and checks passes of one workload in a work directory.

    A pass runs the chain once on each of the run's inputs, so a run's
    figures do not hang on one draw (fit sweeps vary from draw to draw).
    """

    def __init__(self, workload, specs: list[dict], workdir: Path) -> None:
        self.workload, self.specs, self.workdir = workload, specs, workdir
        self.tally = Tally()
        self.references: dict[int, dict] = {}  # input index -> first artefact hashes
        self.counts: dict[int, dict] = {}  # input index -> artefact_counts
        self._passes = 0

    def _chain(self, index: int, recorder: spans.Recorder | None) -> tuple[float, list[str]]:
        spec = self.specs[index]
        outdir = self.workdir / f"pass-{self._passes}-input-{index}"
        outdir.mkdir()
        argvs = self.workload.chain(spec, outdir)
        gc.collect()
        try:
            if recorder is None:
                seconds, codes = run_chain(argvs)
            else:
                with recorder.installed():
                    seconds, codes = run_chain(argvs)
            failures = check_pass(self.workload, spec, outdir, codes, self.references.get(index))
        except Exception as exc:  # a crash fails the pass; the run goes on
            seconds, failures = math.nan, [f"pass raised {type(exc).__name__}: {exc}"]
        if not failures and index not in self.references:
            self.references[index] = artefact_hashes(outdir)
            self.counts[index] = artefact_counts(outdir)
        shutil.rmtree(outdir)
        return seconds, [f"input {index}: {f}" for f in failures]

    def one_pass(self, timed: bool = True, recorder: spans.Recorder | None = None, inputs=None) -> float:
        """Run, check and count one pass; returns its mean chain wall time (NaN on a crash)."""
        inputs = range(len(self.specs)) if inputs is None else inputs
        total, failures = 0.0, []
        for index in inputs:
            seconds, failed = self._chain(index, recorder)
            total += seconds
            failures += failed
        self._passes += 1
        mean = total / len(inputs)
        self.tally.record(mean if timed else None, failures)
        return mean


def _repeat(seconds: float, step) -> None:
    """Call ``step()`` until ``seconds`` have passed and it ran MIN_PASSES times."""
    start, done = time.perf_counter(), 0
    while done < MIN_PASSES or time.perf_counter() - start < seconds:
        step()
        done += 1


def _median(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = _median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_seconds(root: Path, probes: int = SETUP_PROBES) -> list[float]:
    """Times for fresh interpreters to import ``fvbm.cli`` from the checkout."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return times


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": sha,
    }


def layer_metrics(per_pass: list[list[spans.Span]], counts: list[dict], chains: int) -> dict:
    """Per-layer metrics per chain: medians over traced passes of pass totals / ``chains``."""
    totals = [spans.layer_totals(s) for s in per_pass]
    zero = {"busy_s": 0.0, "calls": 0, "self_s": 0.0}
    metrics = {}
    for name in spans.TRACED:
        entries = [t.get(name, zero) for t in totals]
        metrics[f"{name}_s"] = (_median(e["busy_s"] for e in entries) / chains, "s")
        metrics[f"{name}.calls"] = (_median(e["calls"] for e in entries) / chains, "count")
        if name in spans.WITH_CHILDREN:
            metrics[f"{name}_self_s"] = (_median(e["self_s"] for e in entries) / chains, "s")
    for key in ("votes.imputed_cells", "fit.sweeps"):
        metrics[key] = (statistics.fmean(c[key] for c in counts) if counts else 0.0, "count")
    sweeps = metrics["fit.sweeps"][0]
    metrics["fit.sweep_ms"] = (1e3 * metrics["fit.fit_s"][0] / sweeps if sweeps else 0.0, "ms")
    return metrics


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list[list[spans.Span]]]:
    """Alternate untraced and traced passes; per-layer metrics and each traced pass's spans."""
    untraced, traced, per_pass = [], [], []

    def traced_pass():
        recorder = spans.Recorder()
        # Traced times stay out of the tally, which keeps the untraced ones.
        traced.append(runner.one_pass(timed=False, recorder=recorder))
        per_pass.append(recorder.spans)

    def pair():
        # Alternate which kind goes first, so drift within a pair cancels.
        if len(traced) % 2:
            traced_pass()
            untraced.append(runner.one_pass())
        else:
            untraced.append(runner.one_pass())
            traced_pass()

    _repeat(seconds, pair)
    metrics = layer_metrics(per_pass, list(runner.counts.values()), len(runner.specs))
    chain_traced, chain_plain = _median(traced), _median(untraced)
    cli_busy = sum(metrics[f"{n}_s"][0] for n in spans.TRACED if n.startswith("cli."))
    metrics["trace.chain_s"] = (chain_traced, "s")
    metrics["trace.untraced_chain_s"] = (chain_plain, "s")
    metrics["trace.overhead_s"] = (chain_traced - chain_plain, "s")
    metrics["trace.cli_share"] = (cli_busy / chain_traced if chain_traced else 0.0, "ratio")
    return metrics, per_pass


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Measure one workload; writes the run record and returns the result line."""
    workload = workloads.WORKLOADS[workload_name]
    out = root / ".bench_out"
    workdir = out / f"work-{workload_name}-{seed}-{os.getpid()}"
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace}
    record["env"] = environment(root)
    try:
        workdir.mkdir(parents=True)
        if not trace:
            record["setup_s"] = setup_seconds(root)
        specs = []
        for i in range(INPUTS_PER_RUN):
            (workdir / f"input-{i}").mkdir()
            specs.append(workload.generate(seed * INPUTS_PER_RUN + i, workdir / f"input-{i}"))
        runner = Runner(workload, specs, workdir)
        runner.one_pass(timed=False, inputs=[0])  # warm-up: imports, caches, first-call costs
        if trace:
            metrics, per_pass = measure_traced(runner, seconds)
            record["spans"] = [[[s.name, s.start, s.end, s.parent] for s in p] for p in per_pass]
        else:
            _repeat(seconds, runner.one_pass)
            # Probing on both sides of the passes spreads the probes over the
            # run, so a few seconds of machine noise cannot set the median.
            record["setup_s"] += setup_seconds(root)
            metrics = {
                "chain_s": (_median(runner.tally.times), "s"),
                "setup_s": (_median(record["setup_s"]), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = runner.tally
    q1, q2, q3 = quartiles(tally.times)
    record.update(
        pass_times=tally.times,
        counts=runner.counts,
        chain_quartiles=[q1, q2, q3],
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.error_rate,
        failures=tally.failures,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (out / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload_name}  seed {seed}  env {json.dumps(record['env'])}")
    kind = "untraced" if trace else "timed"
    print(
        f"passes {len(tally.times)} {kind} + 1 warm-up, {len(runner.specs)} inputs each; "
        f"chain wall q1/median/q3 = {q1:.4f} / {q2:.4f} / {q3:.4f} s"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:12.6g} {unit}")
    print(f"{'error_rate':48s} {tally.error_rate:12.6g} ratio  ({tally.failed} failed / {tally.attempted} attempted)")
    for failure in sorted(set(tally.failures)):
        print(f"failed check: {failure}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
