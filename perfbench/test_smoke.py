"""Fast smoke test of the benchmark harness at reduced sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric of BENCHMARK.json is emitted with its unit,
that each output check can fail, that the tracer reproduces the pinned
call counts of one tilt search, and that the benchmark refuses to run
without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def small_configs(workload, seed):
    """The workload's configs at reduced sizes, keeping its known failure."""
    configs, workers = workloads.make_configs(workload, seed)
    small = []
    for label, config in configs:
        exp = config["experiment"]
        if workload == "ldp-tilted" and exp["event"]["mode"] == "sum":
            continue  # each sum config spends seconds in its tilt search
        if "reps" in exp:
            exp["reps"] = min(exp["reps"], 20_000)
        if exp["kind"] == "rate-eval":
            # y = 1.8 keeps the pm-bernoulli failure in the grid.
            exp["x_values"] = workloads.GRID_X[::4]
            exp["y_values"] = workloads.GRID_Y[::4]
        small.append((label, config))
    return small, workers


@pytest.fixture
def bench(monkeypatch, capsys):
    monkeypatch.setattr(run, "make_configs", small_configs)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)

    def invoke(workload, trace):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        return json.loads(lines[-2]), json.loads(lines[-1])

    return invoke


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(bench, workload, trace):
    side, result = bench(workload, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # Only the known pm-bernoulli defect fails, once per pass.
    failures = {f["label"] for f in side["failures"]}
    assert failures == ({"pm-bernoulli"} if workload == "rate-grid" else set())
    assert result["failed"] == len(side["failures"])
    provenance = side["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "seed",
                "samples"):
        assert key in provenance
    assert list(side["report"]) == [
        "setup_s", "wall_s", "points_per_s", "peak_rss_mb", "failed_frac",
        "band_fail_frac", "rate_rel_err", "rate_max_abs_err"]
    assert all(figure["unit"] for figure in side["report"].values())


def test_a_wrong_oracle_marks_the_run_incorrect(bench, monkeypatch):
    conjugate, *rest = checks.ORACLES["pm-poisson"]
    monkeypatch.setitem(checks.ORACLES, "pm-poisson",
                        (lambda z: conjugate(z) + 1e-3, *rest))
    side, result = bench("rate-grid", 0)
    assert result["correct"] is False
    assert "pm-poisson" in {f["label"] for f in side["failures"]}


def test_tree_differences_catch_changed_missing_and_extra_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()
        (root / "t.csv").write_text("x\n1.0\n")
    assert checks.tree_differences(a, b) == []
    (b / "t.csv").write_text("x\n1.5\n")
    (b / "extra.dat").write_text("")
    (a / "gone.dat").write_text("")
    assert checks.tree_differences(a, b) == [
        "missing gone.dat", "extra extra.dat", "differs t.csv"]


def test_rate_grid_check_catches_wrong_values_and_infinities(tmp_path):
    def table(rows):
        path = tmp_path / "rate_eval.csv"
        path.write_text("# meta=1\nx,y,rate_ld,md_centered_summands,"
                        "md_centered_sum\n" + "".join(rows))
        return path

    x, y = -0.5, 1.0
    good = ",".join(repr(v) for v in (x, y, *checks.rate_oracle("pm-poisson", x, y)))
    assert checks.rate_grid_errors("pm-poisson", table([good + "\n"]))[1] == []
    ld, md1, md2 = checks.rate_oracle("pm-poisson", x, y)
    off = f"{x!r},{y!r},{ld + 1e-4!r},{md1!r},{md2!r}\n"
    assert checks.rate_grid_errors("pm-poisson", table([off]))[1]
    inf = f"{x!r},{y!r},inf,{md1!r},{md2!r}\n"
    assert checks.rate_grid_errors("pm-poisson", table([inf]))[1]
    finite = f"-0.9,0.2,{ld!r},{md1!r},{md2!r}\n"   # closed form is +inf
    assert checks.rate_grid_errors("pm-poisson", table([finite]))[1]


def test_ldp_check_catches_a_wrong_rate_infimum():
    ref = checks.sum_poisson_infimum()
    assert checks.ldp_errors("sum-poisson",
                             {"fitted_rate": 0.12, "rate_infimum": ref}) == []
    assert checks.ldp_errors("sum-poisson",
                             {"fitted_rate": 0.12, "rate_infimum": ref + 1e-4})
    assert checks.ldp_errors("count-fractional",
                             {"fitted_rate": float("nan"), "rate_infimum": 0.2})


def _models_and_event(workload, label):
    package = run.load_package()
    from compound_deviations.montecarlo import HalfSpaceEvent

    config = dict(workloads.make_configs(workload, 0)[0])[label]
    config = package.config.normalize_config(config)
    event = config["experiment"]["event"]
    return package, package.config.build_models(config), HalfSpaceEvent(
        "sum", event["level"], direction=event["direction"])


def test_tracer_reproduces_the_pinned_counts_of_one_tilt():
    package, (mx, mn), event = _models_and_event("ldp-tilted", "sum-poisson")
    tracer = Tracer("pin")
    tracer.install()
    try:
        package.montecarlo.tilt_parameters(mx, mn, event)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["variational.legendre_transform.calls"] == 216
    assert metrics["variational.probe_convexity.calls"] == 216
    assert metrics["summands.cgf.calls"] == 24_272
    assert metrics["summands.cgf_grad.calls"] == 11_495
    assert metrics["montecarlo.tilt_parameters.solves_per_call"] == 216
    # Uninstalling restores every original.
    assert not hasattr(package.montecarlo.tilt_parameters, "__wrapped__")
    assert not hasattr(type(mx).cgf, "__wrapped__")


def test_tracer_sees_two_tilt_searches_per_sum_config():
    package, (mx, mn), event = _models_and_event("ldp-tilted", "sum2d-gauss-iid")
    tracer = Tracer("pin")
    tracer.install()
    try:
        package.montecarlo.decay_rate_scan(mx, mn, event, [50, 100], reps=200,
                                           seed=1)
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["montecarlo.tilt_parameters.calls"] == 2


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-checks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
