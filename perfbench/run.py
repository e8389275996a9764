"""Benchmark of ``compound_deviations.experiments.run_experiment``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``. A run imports the package from
``src``, normalises the workload's configs, and runs them in-process, one
after another, as whole passes:

* ``--trace 0``: untraced passes until ``--seconds`` have elapsed, at least
  two. The last line reports the end-to-end metrics.
* ``--trace 1``: one untraced pass, then one pass with the tracer of
  ``tracer.py`` installed. The last line reports the per-layer metrics of
  the traced pass and the tracing overhead; the spans are written to
  ``.perfbench/trace-<workload>.tsv``.

Set-up time is measured after the passes, by three fresh interpreters
running ``setup_probe.py``; the median is reported.

Every pass is checked: its tables must match the first pass byte for byte,
mc-pool's must match a workers=1 pass of the same configs, rate-grid's
closed-form cells must match ``checks.py`` and ldp-tilted's rate infimum
its closed form. An experiment run fails when it raises or a check on its
outputs fails. The line before the last carries the provenance and a
report of all the end-to-end figures, including those not in
BENCHMARK.json. The process exits 2, printing no result, when the package
sources are missing.
"""

from __future__ import annotations

import argparse
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
from dataclasses import dataclass, field
from time import perf_counter

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3
MIN_PASSES = 2

sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, make_configs  # noqa: E402


@dataclass
class Outcome:
    """One experiment run: one config in one pass."""

    label: str
    exit_code: int | None = None   # None when the run raised
    error: str | None = None
    rows: int = 0
    details: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return self.exit_code is None or bool(self.problems)


@dataclass
class Pass:
    directory: str
    wall_s: float
    outcomes: list

    @property
    def rows(self):
        return sum(o.rows for o in self.outcomes if not o.failed)


def run_pass(package, configs, workers, directory, tracer=None):
    """Run every config once, in order; returns the timed Pass."""
    run_experiment = package.experiments.run_experiment
    outcomes = []
    start = perf_counter()
    for label, config in configs:
        if tracer is not None:
            tracer.config = label
        out_dir = os.path.join(directory, label)
        outcome = Outcome(label)
        try:
            outcome.exit_code, summary = run_experiment(
                config, out_dir=out_dir, workers=workers)
            outcome.details = summary["details"]
        except Exception as exc:  # a failed run is counted, never fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(outcome)
    wall = perf_counter() - start
    for outcome in outcomes:
        if outcome.exit_code is not None:
            out_dir = os.path.join(directory, outcome.label)
            outcome.rows = sum(
                len(checks.read_table(os.path.join(out_dir, name))[1])
                for name in os.listdir(out_dir) if name.endswith(".csv"))
    return Pass(directory, wall, outcomes)


def check_pass(workload, run, reference):
    """Attach output problems to the runs of ``run``.

    ``reference`` is the pass whose tables ``run`` must reproduce byte for
    byte, or None for the reference pass itself.
    """
    for outcome in run.outcomes:
        if outcome.exit_code is None:
            continue
        out_dir = os.path.join(run.directory, outcome.label)
        if reference is not None:
            outcome.problems += [
                f"{outcome.label}: {p} vs {reference.directory}"
                for p in checks.tree_differences(
                    os.path.join(reference.directory, outcome.label), out_dir)]
        if workload == "rate-grid" and outcome.label in checks.ORACLES:
            err, problems = checks.rate_grid_errors(
                outcome.label, os.path.join(out_dir, "rate_eval.csv"))
            outcome.details["rate_max_abs_err"] = err
            outcome.problems += problems
        if workload == "ldp-tilted":
            outcome.problems += checks.ldp_errors(outcome.label, outcome.details)


def setup_samples(workload, seed):
    """Wall time and import time of fresh set-up interpreters."""
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        walls.append(perf_counter() - start)
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


def peak_rss_mb():
    """Peak RSS of this process plus the largest of its waited-for children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "compound_deviations")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, package, samples):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package": package.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "samples": samples,
    }


def _fractions(outcomes):
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    band_failed = sum(o.exit_code == 1 for o in outcomes)
    return attempted, failed, band_failed


def report(workload, passes, setup_walls, rss_mb, outcomes):
    """All end-to-end figures of the run, with units, for the report line."""
    attempted, failed, band_failed = _fractions(outcomes)
    figures = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "points_per_s": (statistics.median(p.rows / p.wall_s for p in passes),
                         "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "failed_frac": (failed / attempted, "frac"),
        "band_fail_frac": (band_failed / attempted, "frac"),
    }
    # Accuracy against closed forms; None where the workload has none.
    figures["rate_rel_err"] = (None, "frac")
    figures["rate_max_abs_err"] = (None, "1")
    if workload == "ldp-tilted":
        errors = [abs(o.details["fitted_rate"] - o.details["rate_infimum"])
                  / o.details["rate_infimum"]
                  for o in outcomes if o.exit_code is not None]
        figures["rate_rel_err"] = (max(errors, default=math.inf), "frac")
    if workload == "rate-grid":
        errors = [o.details["rate_max_abs_err"] for o in outcomes
                  if "rate_max_abs_err" in o.details]
        figures["rate_max_abs_err"] = (max(errors, default=math.inf), "1")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in figures.items()}


def end_to_end_metrics(figures):
    """The BENCHMARK.json end-to-end metrics, taken from the report.

    Failure shares are reported as success shares, which are never 0.
    """
    metrics = {name: figures[name]
               for name in ("setup_s", "points_per_s", "peak_rss_mb")}
    metrics["ok_frac"] = {"value": 1.0 - figures["failed_frac"]["value"],
                          "unit": "frac"}
    metrics["band_pass_frac"] = {"value": 1.0 - figures["band_fail_frac"]["value"],
                                 "unit": "frac"}
    return metrics


def traced_pass(args, package, configs, workers, directory):
    """One pass with the tracer installed; returns (tracer, pass)."""
    tracer = Tracer(args.workload)
    tracer.install()
    try:
        for label, raw in make_configs(args.workload, args.seed)[0]:
            tracer.config = label
            package.config.normalize_config(raw)
        return tracer, run_pass(package, configs, workers, directory, tracer)
    finally:
        tracer.uninstall()


def layer_metrics(tracer, untraced, traced, setup_imports):
    values = tracer.layer_metrics()
    values["experiments.output_bytes"] = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(traced.directory) for f in files)
    values["setup.import_s"] = statistics.median(setup_imports)
    values["trace.untraced_wall_s"] = untraced.wall_s
    values["trace.traced_wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def measure(args, package, workdir):
    """Run, check and report one workload; returns (side line, result)."""
    raw_configs, workers = make_configs(args.workload, args.seed)
    configs = [(label, package.config.normalize_config(raw))
               for label, raw in raw_configs]

    reference = None
    if workers > 1:
        # The same config dicts at one worker: the tables must not change.
        reference = run_pass(package, configs, 1, os.path.join(workdir, "ref"))
        check_pass(args.workload, reference, None)

    passes = []
    start = perf_counter()
    while len(passes) < (1 if args.trace else MIN_PASSES) or (
            not args.trace and perf_counter() - start < args.seconds):
        run = run_pass(package, configs, workers,
                       os.path.join(workdir, f"pass{len(passes)}"))
        check_pass(args.workload, run, reference or (passes[0] if passes else None))
        passes.append(run)

    runs = ([reference] if reference else []) + passes
    if args.trace:
        tracer, traced = traced_pass(args, package, configs, workers,
                                     os.path.join(workdir, "traced"))
        check_pass(args.workload, traced, reference or passes[0])
        runs.append(traced)

    rss_mb = peak_rss_mb()
    setup_walls, setup_imports = setup_samples(args.workload, args.seed)
    outcomes = [o for run in runs for o in run.outcomes]
    attempted, failed, _ = _fractions(outcomes)
    figures = report(args.workload, passes, setup_walls, rss_mb, outcomes)
    side = {
        "provenance": provenance(args, package, {
            "setup_s": len(setup_walls), "setup_walls_s": setup_walls,
            "passes": len(passes), "pass_walls_s": [p.wall_s for p in passes],
            "reference_passes": int(reference is not None),
            "traced_passes": args.trace}),
        "report": figures,
        "failures": [{"label": o.label, "error": o.error, "problems": o.problems}
                     for o in outcomes if o.failed],
    }
    if args.trace:
        metrics = layer_metrics(tracer, passes[0], traced, setup_imports)
        side["tilt_counts"] = tracer.tilt_counts()
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"trace-{args.workload}.tsv"))
    else:
        metrics = end_to_end_metrics(figures)
    result = {
        "correct": not any(o.problems for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return side, result


def load_package():
    """Import the package from the checkout's ``src`` (it is not installed)."""
    if not os.path.isdir(os.path.join(SRC, "compound_deviations")):
        raise FileNotFoundError(f"package sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import compound_deviations
    import compound_deviations.config
    import compound_deviations.experiments

    return compound_deviations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        package = load_package()
    except (OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        side, result = measure(args, package, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(dict(side, result=result), fh, indent=1)
    print(json.dumps(side))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
