"""Golden test of the configs the config layer serves.

Every benchmark workload config (``perfbench/workloads.py`` at workload seed
5) and one minimal config of every summand, counting, inter-arrival law and
experiment kind must resolve to the same canonical config as before, so
their ``config_hash`` is pinned, and must build the same model classes.
Every CSV header carries the config hash, so the pins also hold the table
headers fixed. The pinned hashes were computed before the config blocks
moved to kind tables.
"""

import importlib.util
import pathlib

import pytest

from compound_deviations.config import (
    build_models,
    config_hash,
    normalize_config,
    parse_config,
    serialize_config,
)

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
    "renewal-table": {"kind": "renewal", "law": {
        "kind": "table", "r_values": [-1.0, -0.5, 0.0, 0.5],
        "kappa_values": [-0.6931471805599453, -0.4054651081081644, 0.0,
                         0.6931471805599453]}},
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
    "counting/renewal-table": (
        "1fb8ef3a2eba9759a5fda629e4b00ff301d186682fbee2efe6f38eaa61e1d7c0",
        "FiniteSupportSummands", "RenewalCounting", "TabulatedInterarrival"),
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
