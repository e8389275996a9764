"""Workload definitions: raw ``compdev`` configs generated from a seed.

Each workload is a closed loop with a single client: its configs run one
after another, the next starting when the previous one returns. The
workload seed only derives the experiment seed of every config; the sizes,
laws and events are fixed here. This module imports nothing from the
package, so the set-up probe can time the package import on its own.
"""

from __future__ import annotations

import random

# Summand laws.
PM = {"kind": "finite_support", "atoms": [1.0, -1.0], "probs": [0.5, 0.5]}
GAUSS1 = {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]}
GAUSS2 = {"kind": "gaussian", "mean": [0.2, -0.1],
          "cov": [[1.0, 0.3], [0.3, 0.5]]}
FS2 = {"kind": "finite_support", "atoms": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
       "probs": [0.3, 0.3, 0.4]}

# Counting models.
POISSON = {"kind": "poisson", "rate": 1.0}
IID_STEPS = {"kind": "iid_sum", "values": [0, 1, 2], "probs": [0.3, 0.4, 0.3]}
FRACTIONAL = {"kind": "fractional_poisson", "nu": 0.7, "rate": 1.0}
RUNS = {"kind": "bernoulli_sum", "preset": "runs", "lam": 1.0, "c": 1.0}
RENEWAL_GAMMA = {"kind": "renewal",
                 "law": {"kind": "gamma", "shape": 2.0, "rate": 1.0}}
BERNOULLI = {"kind": "bernoulli_sum", "p": 0.5}

LDP_NS = [50, 100, 200, 400]


def _linspace(start, stop, num):
    """numpy.linspace(start, stop, num) as a list of floats, bit for bit."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


GRID_X = _linspace(-0.9, 0.9, 10)
GRID_Y = _linspace(0.2, 2.0, 10)


def _ldp(event):
    return {"kind": "ldp-check", "event": event, "ns": LDP_NS, "reps": 10_000,
            "method": "tilted"}


def _ldp_tilted():
    return [
        ("sum-poisson", PM, POISSON,
         _ldp({"mode": "sum", "level": 0.5, "direction": [1.0]})),
        ("sum2d-gauss-iid", GAUSS2, IID_STEPS,
         _ldp({"mode": "sum", "level": 1.0, "direction": [1.0, 1.0]})),
        ("count-fractional", PM, FRACTIONAL,
         _ldp({"mode": "count", "level": 2.5})),
    ]


def _mc_checks():
    return [
        ("moments-poisson", PM, POISSON,
         {"kind": "moments-check", "n": 200, "reps": 1_000_000,
          "u": [1.0], "v": [1.0]}),
        ("moments-iid-2d", FS2, IID_STEPS,
         {"kind": "moments-check", "n": 100, "reps": 1_000_000,
          "u": [1.0, 0.0], "v": [0.0, 1.0]}),
        ("clt-runs", PM, RUNS,
         {"kind": "clt-check", "n": 400, "reps": 100_000, "v": [1.0]}),
        ("clt-renewal-gamma", GAUSS1, RENEWAL_GAMMA,
         {"kind": "clt-check", "n": 500, "reps": 100_000, "v": [1.0]}),
    ]


def _rate_grid():
    grid = {"kind": "rate-eval", "x_values": GRID_X, "y_values": GRID_Y}
    return [
        ("pm-poisson", PM, POISSON, dict(grid)),
        ("gauss-renewal", GAUSS1, RENEWAL_GAMMA, dict(grid)),
        ("pm-fractional", PM, FRACTIONAL, dict(grid)),
        # Raises InconclusiveOptimizationError at its first y > 1 point: a
        # known defect of the conjugate solver, kept and counted as failed.
        ("pm-bernoulli", PM, BERNOULLI, dict(grid)),
    ]


# name -> (config lister, worker count, why the workload exists)
WORKLOADS = {
    "ldp-tilted": (_ldp_tilted, 1,
                   "nested tilt search: cumulants inside conjugate solves "
                   "inside the rate-infimum scan, plus tilted sampling"),
    "mc-checks": (_mc_checks, 1,
                  "plain sampling for each counting kind and the moment/CLT "
                  "estimators, with no conjugate solves"),
    "rate-grid": (_rate_grid, 1,
                  "many flat, independent conjugate solves with +inf "
                  "verdicts and no sampling"),
    "mc-pool": (_mc_checks, 2,
                "the mc-checks configs through the process-pool path; tables "
                "must match mc-checks byte for byte"),
}


def experiment_seed(seed, label):
    """Experiment seed of one config, derived from the workload seed.

    Keyed by the config label alone, so mc-pool and mc-checks draw the same
    numbers for the same workload seed.
    """
    return random.Random(f"{seed}:{label}").randrange(2**31)


def make_configs(workload, seed):
    """The workload's raw configs as (label, config) pairs, plus its workers."""
    listing, workers, _ = WORKLOADS[workload]
    configs = []
    for label, summand, counting, experiment in listing():
        experiment = dict(experiment, seed=experiment_seed(seed, label))
        configs.append((label, {
            "summand": summand,
            "counting": counting,
            "experiment": experiment,
            "output": {"directory": "out", "formats": ["csv", "dat"]},
        }))
    return configs, workers
