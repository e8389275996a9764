"""Golden test of the configs the config layer serves, and of the tables of
the benchmark's event workload.

Every benchmark workload config (``perfbench/workloads.py`` at workload seed
5) and one minimal config of every summand, counting, inter-arrival law and
experiment kind must resolve to the same canonical config as before, so
their ``config_hash`` is pinned, and must build the same model classes.
Every CSV header carries the config hash, so the pins also hold the table
headers fixed. The pinned hashes were computed before the config blocks
moved to kind tables.

Each of the 21 minimal configs also runs end to end through ``cli.main``,
and its exit code is pinned: none of them may end in an internal error.

Every minimal counting block, one per counting kind and inter-arrival law,
also builds its exact finite-n law at n = 50: a pmf summing to one, the
finite-n cumulant that the pmf gives, and a tilted sampler.

The three ``ldp-tilted`` configs also run end to end, and the sha256 of
each table's lines below its ``#`` metadata is pinned. The digests were
computed while events still had a sum and a count mode, so they hold the
route from config spelling to face byte for byte.

Ten ``md-check`` configs run end to end the same way, five counting kinds
each at gamma = 0.5 and at a table, and the digest of each CSV and DAT file
is pinned. These digests were computed while the sweep still took a scaling
object, so they hold the route from the config's gamma or table to the a_n
of each n byte for byte.

The four ``mc-checks`` configs run end to end as well, at one and at two
workers, and the digest of each check table is pinned, one digest for both
worker counts: two of them draw counts from convolved tables.

The four ``rate-grid`` configs run end to end too, and the digest of each
``rate_eval.csv`` is pinned. Those digests, and the iteration counts of
the grid's 40 count-rate solves and of the three ``ldp-tilted`` tilt
solves, were recorded while every conjugate solve still ran on numpy
arrays, so they hold the one-coordinate float route to the array route's
iterates bit for bit.
"""

import hashlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from compound_deviations.config import (
    COUNTING,
    LAWS,
    build_models,
    config_hash,
    normalize_config,
    parse_config,
    serialize_config,
)
from compound_deviations import cli, montecarlo
from compound_deviations.experiments import run_experiment
from compound_deviations.montecarlo import HalfSpaceEvent, tilt_parameters
from compound_deviations.variational import count_rate

_WORKLOADS_PATH = (pathlib.Path(__file__).resolve().parents[1]
                   / "perfbench" / "workloads.py")


def _workload_configs(seed=5):
    # workloads.py imports nothing from the package; load it by path.
    spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        f"{workload}/{label}": raw
        for workload in module.WORKLOADS
        for label, raw in module.make_configs(workload, seed)[0]
    }


PM = {"kind": "finite_support", "atoms": [1.0, -1.0], "probs": [0.5, 0.5]}
POISSON = {"kind": "poisson", "rate": 1.0}
RATE_EVAL = {"kind": "rate-eval", "x_values": [0.0, 0.5], "y_values": [1.0]}
RATE_EVAL_2D = {"kind": "rate-eval", "x_values": [[0.0, 0.5]], "y_values": [1.0]}

SUMMAND_BLOCKS = {
    "finite_support": PM,
    "gaussian": {"kind": "gaussian", "mean": [0.1, 0.2],
                 "cov": [[1.0, 0.2], [0.2, 1.0]]},
    "grid_gaussian": {"kind": "grid_gaussian", "grid": [0.0, 1.0],
                      "mean": [0.1, 0.2], "kernel": [[1.0, 0.2], [0.2, 1.0]]},
    "grid_finite_support": {"kind": "grid_finite_support", "grid": [0.0, 1.0],
                            "paths": [[1.0, 0.0], [0.0, 1.0]],
                            "probs": [0.5, 0.5]},
}

COUNTING_BLOCKS = {
    "poisson": POISSON,
    "fractional_poisson": {"kind": "fractional_poisson", "nu": 0.7, "rate": 1.0},
    "iid_sum": {"kind": "iid_sum", "values": [0, 1, 2], "probs": [0.3, 0.4, 0.3]},
    "bernoulli_sum-p": {"kind": "bernoulli_sum", "p": 0.4},
    "bernoulli_sum-runs": {"kind": "bernoulli_sum", "preset": "runs",
                           "lam": 1.0, "c": 2},
    "renewal-exponential": {"kind": "renewal",
                            "law": {"kind": "exponential", "rate": 1}},
    "renewal-gamma": {"kind": "renewal",
                      "law": {"kind": "gamma", "shape": 2.0, "rate": 1.0}},
    "renewal-lattice": {"kind": "renewal", "law": {
        "kind": "lattice", "values": [1, 2], "probs": [0.5, 0.5]}},
}

EXPERIMENT_BLOCKS = {
    "rate-eval": RATE_EVAL,
    "ldp-check-count": {"kind": "ldp-check", "ns": [50, 100], "seed": 3,
                        "event": {"mode": "count", "level": 2}},
    "ldp-check-sum-plain": {"kind": "ldp-check", "ns": [50, 100], "seed": 3,
                            "method": "plain",
                            "event": {"mode": "sum", "level": 0.5,
                                      "direction": [1]}},
    "md-check-gamma": {"kind": "md-check", "scaling": {"gamma": 0.5},
                       "etas": [1.0], "ns": [10, 100]},
    "md-check-table": {"kind": "md-check", "scaling": {"table": [[10, 0.1],
                                                                 [100, 0.01]]},
                       "etas": [1.0], "ns": [10, 100], "seed": 1},
    "moments-check": {"kind": "moments-check", "n": 10, "u": [1.0], "v": [1.0],
                      "seed": 1},
    "clt-check": {"kind": "clt-check", "n": 10, "v": [1.0], "seed": 1},
    "ml-eval": {"kind": "ml-eval", "nu": 0.5, "beta": 1, "x_values": [1.0]},
}


def _minimal_configs():
    configs = {}
    for kind, block in SUMMAND_BLOCKS.items():
        experiment = RATE_EVAL if kind == "finite_support" else RATE_EVAL_2D
        configs[f"summand/{kind}"] = {"summand": block, "counting": POISSON,
                                      "experiment": experiment}
    for kind, block in COUNTING_BLOCKS.items():
        configs[f"counting/{kind}"] = {"summand": PM, "counting": block,
                                       "experiment": RATE_EVAL}
    for kind, block in EXPERIMENT_BLOCKS.items():
        configs[f"experiment/{kind}"] = (
            {"experiment": block} if kind == "ml-eval"
            else {"summand": PM, "counting": POISSON, "experiment": block})
    # md-check sweeps renewal counts exactly, through their tilted tables.
    configs["experiment/md-check-renewal"] = {
        "summand": PM, "counting": COUNTING_BLOCKS["renewal-gamma"],
        "experiment": dict(EXPERIMENT_BLOCKS["md-check-gamma"], seed=2),
    }
    return configs


CONFIGS = {**_workload_configs(), **_minimal_configs()}

# label -> (config_hash, summand class, counting class, inter-arrival class)
GOLDEN = {
    "counting/bernoulli_sum-p": (
        "0c80b7c315faa20d2ce5f873f02db0daaff02e86122826e06f1f9d77335bbd8c",
        "FiniteSupportSummands", "BernoulliSumCounting", None),
    "counting/bernoulli_sum-runs": (
        "f63ab610763c28fbb5c32e4171b4920ed2106388c39c2ba2faea3b8490ba154f",
        "FiniteSupportSummands", "BernoulliSumCounting", None),
    "counting/fractional_poisson": (
        "9f4e870a28efb59cc2149e36dff5b71b3882198c145406661288bc832e2de097",
        "FiniteSupportSummands", "FractionalPoissonCounting", None),
    "counting/iid_sum": (
        "0a9f1dc449ad199d7c146c2e38e6a2f3b258f9fd8ffab2a023e3016987f4b952",
        "FiniteSupportSummands", "IidSumCounting", None),
    "counting/poisson": (
        "bc0d058c8062a5727c9d25581617ca51355306bd55dd524fc801b63462464837",
        "FiniteSupportSummands", "PoissonCounting", None),
    "counting/renewal-exponential": (
        "4bb4c4fb914803426d5023d6ff641faf79f141f7d47d854dcc158e3952028c80",
        "FiniteSupportSummands", "RenewalCounting", "ExponentialInterarrival"),
    "counting/renewal-gamma": (
        "d4db336c3cc14671ac9bd703855959c2b9b0f5ff06a2a4198a95d387efb043df",
        "FiniteSupportSummands", "RenewalCounting", "GammaInterarrival"),
    "counting/renewal-lattice": (
        "a057026a8d9bbc8e7b15441b266bdce2e36a747b06dbddb27b9208ae2ef00a37",
        "FiniteSupportSummands", "RenewalCounting", "LatticeInterarrival"),
    "experiment/clt-check": (
        "3a950f5279f3f8107f3da4427fcc3f5a2d70100d33a70f408f29a39a80bde5ec",
        "FiniteSupportSummands", "PoissonCounting", None),
    "experiment/ldp-check-count": (
        "8a17e31771bfc4835c421c92f19cf5d88e9357d7f5e1e499afe9af653d34b3e6",
        "FiniteSupportSummands", "PoissonCounting", None),
    "experiment/ldp-check-sum-plain": (
        "aa542d1d5cd524c76edbef1624d953cc156eba23878a5b8f8f5a3e2792576ed1",
        "FiniteSupportSummands", "PoissonCounting", None),
    "experiment/md-check-gamma": (
        "840ac7b592d23175be2824d8f852f8e0e5d25253b219e0340cb751b38e25e378",
        "FiniteSupportSummands", "PoissonCounting", None),
    "experiment/md-check-renewal": (
        "f3bee38ff174e9b6840b1d6c8c272ce05b097dd60e963863e37720d193172cb4",
        "FiniteSupportSummands", "RenewalCounting", "GammaInterarrival"),
    "experiment/md-check-table": (
        "b788ee423af8b04169c0427a43216dc9421e73ad3030e8da024e473c6be8c961",
        "FiniteSupportSummands", "PoissonCounting", None),
    "experiment/ml-eval": (
        "08782b442b34486d8c4106720cb04d965b94c7f88c4ed1d7bc121dee48d83d26",
        None, None, None),
    "experiment/moments-check": (
        "f4f9996a28e36f552d2f78f6b625b364fb4e6e6b25824b3cd8fbc60d58b9f2a7",
        "FiniteSupportSummands", "PoissonCounting", None),
    "experiment/rate-eval": (
        "bc0d058c8062a5727c9d25581617ca51355306bd55dd524fc801b63462464837",
        "FiniteSupportSummands", "PoissonCounting", None),
    "ldp-tilted/count-fractional": (
        "9dadab3e6e5f7e76f30488af07142cd2019312c474736b0c8ce30783a628bbf3",
        "FiniteSupportSummands", "FractionalPoissonCounting", None),
    "ldp-tilted/sum-poisson": (
        "bfe4c1dbeddf923839852e29a551985cac28764ec9cb3484376f784c7cd43c02",
        "FiniteSupportSummands", "PoissonCounting", None),
    "ldp-tilted/sum2d-gauss-iid": (
        "2876fc3bf076ba25c3502b495815ae53aa833f7c28b66668357c0caa0d89ab5b",
        "GaussianSummands", "IidSumCounting", None),
    "mc-checks/clt-renewal-gamma": (
        "96fda4ecb60bd009a37670660954629d8ac07d98f92e2786e664a81884433fa6",
        "GaussianSummands", "RenewalCounting", "GammaInterarrival"),
    "mc-checks/clt-runs": (
        "8778ea91f47d80b9d59567dbb6b1ae8cf3c048902b0ad16142c0b1abb535fa19",
        "FiniteSupportSummands", "BernoulliSumCounting", None),
    "mc-checks/moments-iid-2d": (
        "a8b8554d70094dbb82697cacecbeef1816ae5ce8062b0aa4990f54ca51c00e03",
        "FiniteSupportSummands", "IidSumCounting", None),
    "mc-checks/moments-poisson": (
        "caf60a8884c51c4bea3fae3912032eec84c5784e653aac7035204bf86e17268c",
        "FiniteSupportSummands", "PoissonCounting", None),
    "mc-pool/clt-renewal-gamma": (
        "96fda4ecb60bd009a37670660954629d8ac07d98f92e2786e664a81884433fa6",
        "GaussianSummands", "RenewalCounting", "GammaInterarrival"),
    "mc-pool/clt-runs": (
        "8778ea91f47d80b9d59567dbb6b1ae8cf3c048902b0ad16142c0b1abb535fa19",
        "FiniteSupportSummands", "BernoulliSumCounting", None),
    "mc-pool/moments-iid-2d": (
        "a8b8554d70094dbb82697cacecbeef1816ae5ce8062b0aa4990f54ca51c00e03",
        "FiniteSupportSummands", "IidSumCounting", None),
    "mc-pool/moments-poisson": (
        "caf60a8884c51c4bea3fae3912032eec84c5784e653aac7035204bf86e17268c",
        "FiniteSupportSummands", "PoissonCounting", None),
    "rate-grid/gauss-renewal": (
        "f7ba25e96915d13deb2c8f6a0aa81baa67bc052144789c2f03abed04fb2e8b88",
        "GaussianSummands", "RenewalCounting", "GammaInterarrival"),
    "rate-grid/pm-bernoulli": (
        "40907b6be033ac48330bc46761d2406fc43bb9552fc3d8561f9442529a73f197",
        "FiniteSupportSummands", "BernoulliSumCounting", None),
    "rate-grid/pm-fractional": (
        "68c585cac72596f9ddd3d31971bd8869716714e11b8590937bbd1b6e8375aa93",
        "FiniteSupportSummands", "FractionalPoissonCounting", None),
    "rate-grid/pm-poisson": (
        "b35d8e5466cad22a36e14fada96bbff054fe776a06957ab81bb325298d2c2d6b",
        "FiniteSupportSummands", "PoissonCounting", None),
    "summand/finite_support": (
        "bc0d058c8062a5727c9d25581617ca51355306bd55dd524fc801b63462464837",
        "FiniteSupportSummands", "PoissonCounting", None),
    "summand/gaussian": (
        "c4564fad0e4bcd77da43806d165ffd154ef0009556c7180576d305bc3bf72367",
        "GaussianSummands", "PoissonCounting", None),
    "summand/grid_finite_support": (
        "efd1b8e50499e33b1d697cde4c0f2dd1780fed713efaba29dad94718c2f9ac6d",
        "FiniteSupportSummands", "PoissonCounting", None),
    "summand/grid_gaussian": (
        "b9a9f95ff9868f22625ec103fa9a08d4e4e5918cca2c0593e84101271abfd1a5",
        "GaussianSummands", "PoissonCounting", None),
}


def test_building_the_served_models_loads_no_scipy():
    # A fresh interpreter that imports the package and builds the models of
    # every workload config, as the benchmark's set-up probe does, loads no
    # scipy module: set-up pays for no scipy import.
    script = (
        "import importlib.util, sys\n"
        "import compound_deviations\n"
        "from compound_deviations.config import build_models, normalize_config\n"
        "spec = importlib.util.spec_from_file_location('workloads', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "for workload in module.WORKLOADS:\n"
        "    for _, raw in module.make_configs(workload, 5)[0]:\n"
        "        build_models(normalize_config(raw))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(_WORKLOADS_PATH.parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", script, str(_WORKLOADS_PATH)],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_every_served_config_is_pinned():
    assert sorted(GOLDEN) == sorted(CONFIGS)
    assert sum(label.split("/")[0] in ("ldp-tilted", "mc-checks", "rate-grid",
                                       "mc-pool") for label in CONFIGS) == 15


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_resolved_config_hash_and_models_are_pinned(label):
    config = normalize_config(CONFIGS[label])
    assert parse_config(serialize_config(config)) == config
    digest, *classes = GOLDEN[label]
    assert config_hash(config) == digest
    if "summand" in config:
        mx, mn = build_models(config)
        law = getattr(mn, "law", None)
        built = [type(mx).__name__, type(mn).__name__,
                 type(law).__name__ if law is not None else None]
        assert built == classes
    else:
        assert classes == [None, None, None]


# Exit codes of the minimal configs run through the CLI: 0 unless listed.
MINIMAL_EXIT_CODES = {
    # The MD value at the largest n, 100, is 6-44% above its limit, outside
    # the 0.02 band.
    "experiment/md-check-gamma": 1,
    "experiment/md-check-table": 1,
    "experiment/md-check-renewal": 1,
    # An open defect (ROADMAP item 5): 100,000 plain draws see no hit at
    # n = 100, where P = 4.6e-7, so one positive estimate fits no slope.
    "experiment/ldp-check-sum-plain": 2,
}


@pytest.mark.parametrize("label", sorted(_minimal_configs()))
def test_every_minimal_config_runs_end_to_end(label, tmp_path, capsys):
    raw = _minimal_configs()[label]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code = cli.main([raw["experiment"]["kind"], "--config", str(path),
                     "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == MINIMAL_EXIT_CODES.get(label, 0)


def test_counting_blocks_cover_every_kind_and_law():
    assert {block["kind"] for block in COUNTING_BLOCKS.values()} == set(COUNTING)
    assert {block["law"]["kind"] for block in COUNTING_BLOCKS.values()
            if block["kind"] == "renewal"} == set(LAWS)


@pytest.mark.parametrize("kind", sorted(COUNTING_BLOCKS))
def test_every_counting_block_has_an_exact_finite_n_law(kind):
    # Each counting block and inter-arrival law builds a count table at
    # n = 50: a pmf summing to 1, the cumulant finite_cgf read off it, and
    # a tilted sampler. A kind or law added without a table fails here.
    config = normalize_config({"summand": PM, "counting": COUNTING_BLOCKS[kind],
                               "experiment": RATE_EVAL})
    mn = build_models(config)[1]
    pmf = mn.exact_pmf(50)
    assert abs(math.fsum(pmf) - 1.0) <= 1e-12
    k = np.arange(pmf.size)
    for eta in (-0.3, 0.3):
        expected = math.log(math.fsum(pmf * np.exp(eta * k))) / 50
        assert math.isclose(mn.finite_cgf(50, eta), expected, rel_tol=1e-7)
    draws = mn.count_law(50, 0.3).draw(np.random.default_rng(1), 100)
    assert draws.shape == (100,) and draws.min() >= 0


# sha256 of the lines of each ldp-tilted table that are not '#' metadata,
# at workload seed 5: a sum event, a 2-d sum event and a count event, run
# end to end from their config spelling to the face they name.
LDP_TABLE_DIGESTS = {
    "sum-poisson": (
        "bd58732fc6f7aa17aad19d2d054b07a4f9ccffc92ff3f1743647dc594603c3d2",
        "77c0238f8b6fa60f8adf7507d4248d107796bd8014af0c16ae996b35aa1bfd1b"),
    "sum2d-gauss-iid": (
        "e68900a4d80b0739848417bd3ff46c2d9fb71843b628f4e152995580531986c0",
        "18e5e9a44b6c5618f1a2a60a1cf815b8141501b39216a8bd55b6da2cc5bd513a"),
    "count-fractional": (
        "cd33a637909d039ff2a95f7f45d0d05e5949489d7cbfe47f5202c9663e36d934",
        "e46a139edcd8cf364903d0e4e68fc20d60aab319845b6a9a7e3dbe9571971c8c"),
}


def _table_digest(path):
    lines = path.read_text().splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(LDP_TABLE_DIGESTS))
def test_ldp_tilted_tables_are_pinned(label, tmp_path):
    code, _ = run_experiment(normalize_config(CONFIGS[f"ldp-tilted/{label}"]),
                             out_dir=str(tmp_path))
    assert code == 0
    digests = tuple(_table_digest(tmp_path / name)
                    for name in ("ldp_check.csv", "ldp_decay.dat"))
    assert digests == LDP_TABLE_DIGESTS[label]


# sha256 of the lines of each mc-checks table that are not '#' metadata, at
# workload seed 5: plain draws of 10^5-10^6 (S, N) pairs for four counting
# kinds. moments-iid-2d (iid-sum, n = 100) and clt-runs (Bernoulli sum,
# n = 400) draw their counts from convolved tables, so these pins hold the
# convolution, the count guide and the stage draws bit for bit. One digest
# holds at workers 1 and 2, the mc-checks and mc-pool workloads' counts:
# the tables do not depend on the worker count.
MC_TABLE_DIGESTS = {
    "moments-poisson": (
        "moments_check.csv",
        "94e20974250443fbb7a6983bda160f446375d5fec70f1d9442a4e692a5a208df"),
    "moments-iid-2d": (
        "moments_check.csv",
        "301a8446d45c4d5c484e12279e2cecf7bbd840aabddf1a0f4f85d56a30847f48"),
    "clt-runs": (
        "clt_check.csv",
        "6cc5f0ee0784448a0f71fc098cf8aebd7561b97379e07e95de2ae7c0e185a505"),
    "clt-renewal-gamma": (
        "clt_check.csv",
        "b269a9103bc3c7555d0e8546c00a7ca3f972f4833744f3267515c0b18084fc38"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label", sorted(MC_TABLE_DIGESTS))
def test_mc_check_tables_are_pinned(label, workers, tmp_path):
    code, _ = run_experiment(normalize_config(CONFIGS[f"mc-checks/{label}"]),
                             out_dir=str(tmp_path), workers=workers)
    assert code == 0
    name, digest = MC_TABLE_DIGESTS[label]
    assert _table_digest(tmp_path / name) == digest


SERVED_MAX_COUNTS = {"moments-poisson": 328, "clt-runs": 324}


@pytest.mark.parametrize("label", SERVED_MAX_COUNTS)
def test_served_pm_one_checks_draw_from_stage_tables(label):
    # They draw at most 328 and 324 steps a sum, so their +-1 stage tables
    # hold about 40,000 states, within TABLE_STAGE_STATES: the route, fixed
    # from the windows before any draw, is the tables, not numpy's binomials.
    config = normalize_config(CONFIGS[f"mc-checks/{label}"])
    summands, counting = build_models(config)
    law = counting.count_law(config["experiment"]["n"])
    assert law.max_count == SERVED_MAX_COUNTS[label]
    assert summands.plain_sampler(law.max_count) != summands.sample_sum_batch


MD_COUNTING = {
    "poisson": POISSON,
    "fractional": COUNTING_BLOCKS["fractional_poisson"],
    "iid_sum": COUNTING_BLOCKS["iid_sum"],
    "runs": COUNTING_BLOCKS["bernoulli_sum-runs"],
    "renewal-gamma": COUNTING_BLOCKS["renewal-gamma"],
}
MD_SCALING = {
    "gamma": {"gamma": 0.5},
    "table": {"table": [[100, 0.1], [1000, 0.03], [2000, 0.02]]},
}
MD_FILES = ("md_check.csv", "md_sweep_0.dat", "md_sweep_1.dat", "md_sweep_2.dat")
# sha256 of the lines of each md-check table that are not '#' metadata,
# in the order of MD_FILES, at ns [100, 1000, 2000] and etas [-1, 0.5, 2].
MD_TABLE_DIGESTS = {
    "poisson/gamma": (
        "d02ef18122faf6f17cd01219238049f904720b713679765d6ba692e63d896fe7",
        "1271bfcd33e391a6ec8f5bb70bf377f6f3c1e5ee2753b0a70bacedf720fdcbec",
        "59e403fa0733bf4dc16b84e646920db8be02dd1c255702c914be9d8ee81510ad",
        "7a30c524d3eda273f5978d291a3c5885b5380e92a106548adede9c265e361282"),
    "poisson/table": (
        "12d9eec8c20fafec0fa181056cc50b03551ba66f7d4af9f426eb8310ba914c27",
        "319753d80c37476b8c81d51ae0a091ba0ad62380008471fe710e023f2e9d77b6",
        "21a4de22b9f0bb12f20653529dde4cedc2a85c2b981e44dfb6789dcab6c97cdc",
        "3c325282866a26dbd8a61332f35a1d9e08bef75e0cbe061a7a8cf1306fed5f7d"),
    "fractional/gamma": (
        "f8ebf780cbe9fa530ed7eeafbc7659e40c0b575106c4955f310f13a3589495e2",
        "0a8aa639e309daeaee971f8f472d7abccaa11648e64d4d7e4834be2f7558805d",
        "11f26506f205a2d227d620826deaaaba4618bc855a1c512a62452dbf0dad169d",
        "fb8f0765d1f14eb7d9994a243b27dfcdfc6822439590a99b17d5c8c44f948f41"),
    "fractional/table": (
        "1807ca247ee3873db6e4cbb44df57e3a5934cd2820b3a338a2323d1b400e9926",
        "7db00911ae9ae8e566c31cae9ea9a2d186c7a640ad56c3c975c20d2639d735b6",
        "a3d9cc65aacbe36b7e7f38fc88dc807d7abe7959d06dec465ae981ddf457a267",
        "890177c449f14fffbbcc9e9703ad8459391e739102025e3eb2f269f081f61911"),
    "iid_sum/gamma": (
        "9bef40a50dd4ee22165f7ab1f1d142e1526df4c3dbac65b60fd0cf8ccea67943",
        "744dbf225d5f588849bb61979c1c5773954957b448851e1c76a0521980e7c7c0",
        "fbb7f38043d2d83d251dbfb6ba7167793f4b331aa6b0672a3251dcfb52865e0d",
        "0478944dd31cdd2f1146435fefee7fd79a8303a6669ec5f74567744a130e9fa9"),
    "iid_sum/table": (
        "76833f0977640c843629b0000812139c46e653903f2e12bbbf4ff5043769909a",
        "83e8c9e5fce407dc689b8e7019a84ec7731cb9151187299527732baec99ed4f5",
        "6ca823abd7dfd15d0e7e122661a6957ff0fdf38eb0723b61c129bed2b60944d1",
        "d0f955abd702aa46f37fe70590f05cef480a28970743c0bee9f57773ce044532"),
    "runs/gamma": (
        "67f15ececd1470110e1c92387dc30b6082126accd08841f1e6e2c430015289e7",
        "d51b03286f340a8f1ce9c25731a633571ce8b3d561a39e82e431593fa8c4973c",
        "b0b74ebcf16ec9711f155d373947f64cda83341a1cc0b0bd06c2202ea7e0656a",
        "6dcb3154f32f434fc7af7791c4ccfd3a4caa8d4e55cc3aaf3df33be2c4ba420f"),
    "runs/table": (
        "5d956fb722549fd3521963cbbc77d9363ce3abb513f33317980f7ad4a21ed533",
        "413509b2a4050ab3906ea9e9453b3b6aeaedf98823cb153fd34b5dfd6cc647ad",
        "a7e2b6e507522b00d9861b687579636bc2bf4d8bc9ff6bac0ff21e71215508f9",
        "35882f30a9a262069ffaa8712dbf5e7338673022da00ed04d8fdbbb57933c479"),
    "renewal-gamma/gamma": (
        "7296afadd6b3fed88021a71b478cae2a36d3df2edf9178afdf6c530b77ace4fd",
        "21e9b54676e6f584aa5fde55603c0e4a3968bd9372d532da6740d829e4c14204",
        "d303bd3b7bc3ee4705a59764798711dca6f40130f8e5427b22ee1962348359e5",
        "0733fc9ff304848f2dd91cad08b6513acdffaa5ead40de5b0d3ac3fab1a24cc7"),
    "renewal-gamma/table": (
        "d4387fde202089bfc2214c278fe25091e1b3438ce9c1e3f8f47fc32a0692ddbf",
        "7cae9543181c57001f22e8c95b731d21418512797571f6ce1e9b7f75666e1d44",
        "788bd5ac481609472e777b8655cb45c157ff4312e2b64f065f78f6f082f94485",
        "9f926aa71b0303642cfefa8fccdbf0af29e8949a353fe8968ce4f067509feaec"),
}


@pytest.mark.parametrize("label", sorted(MD_TABLE_DIGESTS))
def test_md_check_tables_are_pinned(label, tmp_path):
    counting, scaling = label.split("/")
    config = normalize_config({
        "summand": PM, "counting": MD_COUNTING[counting],
        "experiment": {"kind": "md-check", "scaling": MD_SCALING[scaling],
                       "ns": [100, 1000, 2000], "etas": [-1.0, 0.5, 2.0]},
    })
    run_experiment(config, out_dir=str(tmp_path))
    digests = tuple(_table_digest(tmp_path / name) for name in MD_FILES)
    assert digests == MD_TABLE_DIGESTS[label]


# sha256 of the lines of each rate-grid table that are not '#' metadata, at
# workload seed 5: the benchmark's 10 x 10 grid for each pair.
RATE_TABLE_DIGESTS = {
    "pm-poisson":
        "ec08f436f03b4665741ac3e73f8dac34954f76462f63d083134526183a5e85c8",
    "gauss-renewal":
        "2b26197720e8671035381ebff0c32130fc122d7df205ec8cfa451358d2591661",
    "pm-fractional":
        "c35f6cf839ed13219ece7b33e5f4da7fe7de93626ab062100b8cbdcd086950da",
    "pm-bernoulli":
        "5cd80c8d42671c2bb51a111b22850bef7e245fadf745c4de8455265a8773d6b6",
}


@pytest.mark.parametrize("label", sorted(RATE_TABLE_DIGESTS))
def test_rate_grid_tables_are_pinned(label, tmp_path):
    code, _ = run_experiment(normalize_config(CONFIGS[f"rate-grid/{label}"]),
                             out_dir=str(tmp_path))
    assert code == 0
    assert _table_digest(tmp_path / "rate_eval.csv") == RATE_TABLE_DIGESTS[label]


# Newton iterations of each count-rate solve of a rate-grid pair, one per
# y of the grid in order, and of each ldp-tilted config's one tilt solve.
RATE_GRID_ITERATIONS = {
    "pm-poisson": [6, 5, 4, 3, 0, 3, 4, 4, 4, 5],
    "gauss-renewal": [5, 3, 3, 4, 5, 5, 6, 6, 5, 6],
    "pm-fractional": [6, 5, 5, 4, 4, 3, 2, 3, 4, 4],
    "pm-bernoulli": [4, 3, 3, 4, 18, 4, 3, 3, 3, 3],
}
TILT_ITERATIONS = {"sum-poisson": 3, "sum2d-gauss-iid": 4, "count-fractional": 4}


def test_rate_grid_count_rate_iterations_are_pinned():
    iterations = {}
    for label in RATE_GRID_ITERATIONS:
        config = normalize_config(CONFIGS[f"rate-grid/{label}"])
        mn = build_models(config)[1]
        iterations[label] = [count_rate(mn, y).iterations
                             for y in config["experiment"]["y_values"]]
    assert iterations == RATE_GRID_ITERATIONS


def test_ldp_tilted_tilt_iterations_are_pinned(monkeypatch):
    solves = []

    def recording(cumulant, z):
        result = solve(cumulant, z)
        solves.append(result.iterations)
        return result

    solve = montecarlo.legendre_transform
    monkeypatch.setattr(montecarlo, "legendre_transform", recording)
    iterations = {}
    for label in TILT_ITERATIONS:
        config = normalize_config(CONFIGS[f"ldp-tilted/{label}"])
        mx, mn = build_models(config)
        spec = config["experiment"]["event"]
        face = ((spec["direction"], 0.0) if spec["mode"] == "sum"
                else ([0.0] * mx.dim, 1.0))
        solves.clear()
        tilt_parameters(mx, mn, HalfSpaceEvent(*face, spec["level"]))
        [iterations[label]] = solves
    assert iterations == TILT_ITERATIONS
