"""Experiment drivers: run a resolved config, write result files, judge bands.

``run_experiment`` is the single entry point behind every CLI subcommand. It
builds models from the config, dispatches on the experiment kind, writes the
requested output formats into the output directory (tables as ``.csv``,
plot-friendly two-column files as ``.dat``, a run summary as ``.json``), and
returns ``(exit_code, summary)``. Exit code 0 means every acceptance band
passed (or the experiment has none), 1 means at least one failed. Errors
raise; the CLI layer maps configuration and the package's typed errors to
exit code 2 and any other exception to exit code 3.

Nothing is ever written outside the output directory, and the tabular files
carry no timestamps, so rerunning an identical config reproduces them byte
for byte (the JSON summary does record a timestamp; it is the one file meant
for humans rather than diffs).
"""

from __future__ import annotations

import datetime
import json
import math
import os

from .config import (
    ResultTable,
    build_models,
    config_hash,
    format_cell,
    table_metadata,
    versions_string,
)
from .mittag_leffler import log_mittag_leffler
from .montecarlo import (
    HalfSpaceEvent,
    ScalingFamily,
    clt_regime_check,
    decay_rate_scan,
    md_scaling_sweep,
    moment_limits_check,
)
from .variational import (
    rate_ld_explicit,
    rate_md_centered_sum,
    rate_md_centered_summands,
)

_EXP_OVERFLOW = 709.0


def _band_entry(name, value, reference, band, passed, margin=None):
    return {
        "name": name,
        "value": value,
        "reference": reference,
        "band": band,
        "margin": margin,
        "pass": bool(passed),
    }


def _relative_band(name, value, reference, band):
    """Relative comparison band, falling back to absolute at reference 0."""
    if reference == 0.0 or not math.isfinite(reference):
        margin = abs(value) / band
        return _band_entry(name, value, reference, band, abs(value) <= band,
                           margin=margin)
    margin = abs(value - reference) / abs(reference) / band
    return _band_entry(
        name, value, reference, band,
        abs(value - reference) <= band * abs(reference), margin=margin,
    )


def _check_rows_to_bands(rows, band_se):
    bands = []
    for row in rows:
        width = band_se * row.std_error
        deviation = abs(row.empirical - row.reference)
        margin = deviation / width if width > 0 else (0.0 if deviation == 0 else
                                                      math.inf)
        bands.append(
            _band_entry(row.name, row.empirical, row.reference, width,
                        row.within_band, margin=margin)
        )
    return bands


def _run_rate_eval(config, mx, mn, workers):
    exp = config["experiment"]
    dim = len(exp["x_values"][0])
    x_cols = ["x"] if dim == 1 else [f"x{i}" for i in range(dim)]
    table = ResultTable(
        columns=x_cols + ["y", "rate_ld", "md_centered_summands", "md_centered_sum"],
        metadata=table_metadata(config),
    )
    for x in exp["x_values"]:
        for y in exp["y_values"]:
            ld = float(rate_ld_explicit(mx, mn, x, y))
            md1 = float(rate_md_centered_summands(mx, mn, x, y))
            md2 = float(rate_md_centered_sum(mx, mn, x, y))
            table.add(*x, y, ld, md1, md2)
    return {"rate_eval": table}, {}, [], {}


def _run_ldp_check(config, mx, mn, workers):
    exp = config["experiment"]
    event = HalfSpaceEvent(**exp["event"])
    result = decay_rate_scan(
        mx, mn, event, exp["ns"], reps=exp["reps"], seed=exp["seed"],
        method=exp["method"], workers=workers,
    )
    table = ResultTable(
        columns=["n", "p_hat", "std_err", "neg_log_over_n"],
        metadata=table_metadata(config, seed=exp["seed"]),
    )
    for i, n in enumerate(result.ns):
        table.add(n, result.p_hat[i], result.std_err[i], result.neg_log_over_n[i])
    bands = [
        _relative_band(
            "fitted_rate", result.fitted_rate, result.rate_infimum, exp["band"]
        )
    ]
    dat = {
        "ldp_decay.dat": "".join(
            f"{format_cell(n)} {format_cell(v)}\n"
            for n, v in zip(result.ns, result.neg_log_over_n)
        )
    }
    details = {
        "fitted_rate": result.fitted_rate,
        "rate_infimum": result.rate_infimum,
        "method": result.method,
    }
    return {"ldp_check": table}, dat, bands, details


def _run_md_check(config, mx, mn, workers):
    exp = config["experiment"]
    scaling = ScalingFamily(**exp["scaling"])
    result = md_scaling_sweep(mn, scaling, exp["etas"], exp["ns"])
    table = ResultTable(
        columns=["n", "eta", "value", "target", "gap"],
        metadata=table_metadata(config, seed=exp.get("seed")),
    )
    for row in result.rows:
        table.add(row.n, row.eta, row.value, row.target,
                  abs(row.value - row.target))
    bands = []
    largest_n = exp["ns"][-1]
    for eta in exp["etas"]:
        final = next(
            r for r in result.rows if r.n == largest_n and r.eta == eta
        )
        bands.append(
            _relative_band(
                f"value_at_largest_n_eta={format_cell(eta)}",
                final.value, final.target, exp["band"],
            )
        )
        bands.append(
            _band_entry(
                f"gap_monotone_eta={format_cell(eta)}",
                result.gap_monotone[eta], True, None, result.gap_monotone[eta],
            )
        )
    dat = {}
    for i, eta in enumerate(exp["etas"]):
        lines = [f"# eta={format_cell(eta)}\n"]
        for row in result.rows:
            if row.eta == eta:
                lines.append(f"{format_cell(row.n)} {format_cell(row.value)}\n")
        dat[f"md_sweep_{i}.dat"] = "".join(lines)
    details = {
        "a_decreases": result.a_decreases,
        "na_increases": result.na_increases,
    }
    return {"md_check": table}, dat, bands, details


def _check_table(config, result, seed):
    table = ResultTable(
        columns=["name", "empirical", "std_error", "reference", "limit",
                 "within_band"],
        metadata=table_metadata(config, seed=seed),
    )
    for row in result.rows:
        table.add(row.name, row.empirical, row.std_error, row.reference,
                  row.limit, row.within_band)
    return table


def _run_moments_check(config, mx, mn, workers):
    exp = config["experiment"]
    result = moment_limits_check(
        mx, mn, exp["n"], exp["reps"], exp["u"], exp["v"], exp["seed"],
        workers=workers, band_se=exp["band_se"],
    )
    table = _check_table(config, result, exp["seed"])
    bands = _check_rows_to_bands(result.rows, exp["band_se"])
    return {"moments_check": table}, {}, bands, {}


def _run_clt_check(config, mx, mn, workers):
    exp = config["experiment"]
    result = clt_regime_check(
        mx, mn, exp["n"], exp["reps"], exp["v"], exp["seed"],
        workers=workers, band_se=exp["band_se"],
    )
    table = _check_table(config, result, exp["seed"])
    bands = _check_rows_to_bands(result.rows, exp["band_se"])
    details = {"normality_pvalues": result.normality_pvalues}
    return {"clt_check": table}, {}, bands, details


def _run_ml_eval(config, mx, mn, workers):
    exp = config["experiment"]
    table = ResultTable(
        columns=["x", "log_value", "value"], metadata=table_metadata(config)
    )
    dat_lines = []
    for x in exp["x_values"]:
        log_value = log_mittag_leffler(exp["nu"], exp["beta"], x)
        value = math.exp(log_value) if log_value <= _EXP_OVERFLOW else math.inf
        table.add(x, log_value, value)
        dat_lines.append(f"{format_cell(x)} {format_cell(log_value)}\n")
    return {"ml_eval": table}, {"ml_values.dat": "".join(dat_lines)}, [], {}


_RUNNERS = {
    "rate-eval": _run_rate_eval,
    "ldp-check": _run_ldp_check,
    "md-check": _run_md_check,
    "moments-check": _run_moments_check,
    "clt-check": _run_clt_check,
    "ml-eval": _run_ml_eval,
}


def run_experiment(config, out_dir=None, workers=None):
    """Run one resolved config; returns (exit_code, summary dict).

    ``out_dir`` overrides the config's output directory; ``workers`` is
    forwarded to the sampling layer where one applies.
    """
    exp = config["experiment"]
    kind = exp["kind"]
    slug = kind.replace("-", "_")
    directory = out_dir if out_dir is not None else config["output"]["directory"]
    formats = config["output"]["formats"]
    os.makedirs(directory, exist_ok=True)

    mx = mn = None
    if kind != "ml-eval":
        mx, mn = build_models(config)

    tables, dat_files, bands, details = _RUNNERS[kind](config, mx, mn, workers)

    outputs = []
    if "csv" in formats:
        for stem, table in tables.items():
            name = f"{stem}.csv"
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(table.csv_text())
            outputs.append(name)
    if "dat" in formats:
        for name, text in dat_files.items():
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(text)
            outputs.append(name)

    passed = all(b["pass"] for b in bands)
    summary = {
        "experiment": kind,
        "config": config,
        "config_hash": config_hash(config),
        "seed": exp.get("seed"),
        "versions": versions_string(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "bands": bands,
        "pass": passed,
        "details": details,
        "outputs": outputs,
    }
    if "json" in formats:
        name = f"{slug}_summary.json"
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
        summary["outputs"] = outputs + [name]
    return (0 if passed else 1), summary


def _jsonable(value):
    """Recursively coerce to strict-JSON types; non-finite floats to strings."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value
