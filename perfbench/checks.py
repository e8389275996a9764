"""Output checks of the benchmark, independent of the package's own code.

Each check returns a list of problems (empty when the output is right), so
the smoke test can feed it a corrupted output and see it fail.
"""

from __future__ import annotations

import math
import os

from scipy.optimize import minimize_scalar

# Largest accepted |computed - closed form| on the rate grid.
RATE_TOLERANCE = 1e-6
# Largest accepted |rate_infimum - closed form| for the sum-poisson event.
INFIMUM_TOLERANCE = 1e-6


def _pm_conjugate(z):
    """Conjugate of the ±1 law with probabilities ½: the binary entropy."""
    if abs(z) > 1.0:
        return math.inf
    return sum(0.5 * (1.0 + s) * math.log1p(s) for s in (z, -z) if s > -1.0)


def _poisson_rate(y):
    return y * math.log(y) - y + 1.0


def _gamma2_renewal_rate(y):
    return 2.0 * y * math.log(2.0 * y) - 2.0 * y + 1.0


# label -> (summand conjugate, count rate, summand mean and variance,
#           limiting count mean and variance rates d1, d2)
ORACLES = {
    "pm-poisson": (_pm_conjugate, _poisson_rate, 0.0, 1.0, 1.0, 1.0),
    "gauss-renewal": (lambda z: 0.5 * (z - 0.2) ** 2, _gamma2_renewal_rate,
                      0.2, 1.0, 0.5, 0.25),
}


def rate_oracle(label, x, y):
    """Closed-form (rate_ld, md_centered_summands, md_centered_sum)."""
    conjugate, count_rate, mu, var, d1, d2 = ORACLES[label]
    ld = y * conjugate(x / y) + count_rate(y)
    md1 = x * x / (2.0 * d1 * var) + y * y / (2.0 * d2)
    md2 = (x - y * mu) ** 2 / (2.0 * d1 * var) + y * y / (2.0 * d2)
    return ld, md1, md2


def read_table(path):
    """Columns and rows (lists of cell strings) of a result CSV, skipping
    '#' metadata lines."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def rate_grid_errors(label, path):
    """(largest absolute error, problems) of a rate_eval table vs closed forms."""
    columns, rows = read_table(path)
    want = ["x", "y", "rate_ld", "md_centered_summands", "md_centered_sum"]
    if columns != want:
        return math.inf, [f"{label}: columns {columns}, expected {want}"]
    worst, problems = 0.0, []
    for row in rows:
        x, y, *got = (float(cell) for cell in row)
        for column, value, ref in zip(want[2:], got, rate_oracle(label, x, y)):
            if math.isinf(ref) or math.isinf(value):
                if value != ref:
                    problems.append(f"{label} {column}({x}, {y}) = {value}, "
                                    f"closed form {ref}")
                continue
            worst = max(worst, abs(value - ref))
            if not abs(value - ref) <= RATE_TOLERANCE:
                problems.append(f"{label} {column}({x}, {y}) = {value!r}, "
                                f"closed form {ref!r}")
    if not rows:
        problems.append(f"{label}: empty table")
    return worst, problems


def sum_poisson_infimum():
    """inf over y of y * conjugate(level / y) + Poisson(1) count rate at y,
    at the sum-poisson event level 0.5 of workloads.py."""
    level = 0.5
    result = minimize_scalar(
        lambda y: y * _pm_conjugate(level / y) + _poisson_rate(y),
        bounds=(level, 20.0), method="bounded", options={"xatol": 1e-12},
    )
    return float(result.fun)


def ldp_errors(label, details):
    """Problems with an ldp-check summary's rates, by independent checks."""
    problems = []
    fitted, infimum = details["fitted_rate"], details["rate_infimum"]
    if not (math.isfinite(fitted) and math.isfinite(infimum) and infimum > 0.0):
        problems.append(f"{label}: fitted {fitted}, infimum {infimum}")
    if label == "sum-poisson":
        ref = sum_poisson_infimum()
        if not abs(infimum - ref) <= INFIMUM_TOLERANCE:
            problems.append(f"{label}: rate infimum {infimum!r}, closed form "
                            f"{ref!r}")
    return problems


def tree_differences(reference, other):
    """Files that are missing, extra or not byte-identical between two
    output directories."""
    def listing(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, files in os.walk(root) for f in files}

    ref_files, other_files = listing(reference), listing(other)
    problems = [f"missing {p}" for p in sorted(ref_files - other_files)]
    problems += [f"extra {p}" for p in sorted(other_files - ref_files)]
    for name in sorted(ref_files & other_files):
        with open(os.path.join(reference, name), "rb") as a, \
                open(os.path.join(other, name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"differs {name}")
    return problems
