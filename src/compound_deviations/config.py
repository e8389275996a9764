"""Declarative experiment configs: parsing, validation, canonical output.

Configs are JSON documents with up to four top-level blocks::

    {
      "summand":    {"kind": ..., ...},
      "counting":   {"kind": ..., ...},
      "experiment": {"kind": ..., "seed": ..., ...},
      "output":     {"directory": ..., "formats": [...]}
    }

Validation never stops at the first problem: ``parse_config`` raises a
``ConfigError`` carrying every violation found, each tagged with its key
path and, for domain errors, the documented domain. Parsing also fills
documented defaults, so a parsed config is fully resolved; serializing it
and parsing again yields the same dictionary (the round-trip contract), and
``config_hash`` of that canonical form ties every output file to the exact
configuration that produced it.

``ResultTable`` is the common tabular output: named columns, row-major
cells, metadata (config hash, seed, versions) emitted as comment lines. CSV
output carries no timestamp, so reruns of the same config are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass, field

import numpy as np
import scipy

from .counting import (
    BernoulliSumCounting,
    ExponentialInterarrival,
    FractionalPoissonCounting,
    GammaInterarrival,
    IidSumCounting,
    PoissonCounting,
    RenewalCounting,
    TabulatedInterarrival,
)
from .errors import ConfigError
from .montecarlo import DEFAULT_REPS
from .summands import (
    FiniteSupportSummands,
    GaussianSummands,
    grid_finite_support,
    grid_gaussian,
)
from .version import __version__

EXPERIMENT_KINDS = (
    "rate-eval", "ldp-check", "md-check", "moments-check", "clt-check", "ml-eval",
)
SUMMAND_KINDS = ("finite_support", "gaussian", "grid_gaussian", "grid_finite_support")
COUNTING_CLASSES = {
    "poisson": PoissonCounting,
    "fractional_poisson": FractionalPoissonCounting,
    "iid_sum": IidSumCounting,
    "bernoulli_sum": BernoulliSumCounting,
    "renewal": RenewalCounting,
}
COUNTING_KINDS = tuple(COUNTING_CLASSES)
OUTPUT_FORMATS = ("csv", "json", "dat")

# Documented defaults, also dumped verbatim by the `defaults` CLI subcommand.
DEFAULTS = {
    "output": {"directory": "out", "formats": list(OUTPUT_FORMATS)},
    "ldp-check": {
        "method": "tilted",
        "reps": dict(DEFAULT_REPS),
        "band": 0.15,
    },
    "md-check": {"mode": "auto", "reps": 100000, "band": 0.02},
    "moments-check": {"reps": 100000, "band_se": 4.0},
    "clt-check": {"reps": 100000, "band_se": 4.0},
}

# Experiments that draw random numbers and therefore demand a seed. md-check
# joins the list when its mode resolves to empirical sampling.
_SEEDED_EXPERIMENTS = ("ldp-check", "moments-check", "clt-check")


def _finite_number(value):
    """A JSON number that is a finite float; integers past float range are not."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


class _Collector:
    """Accumulates validation errors with key paths, never raising early."""

    def __init__(self):
        self.errors = []

    def error(self, path, message):
        self.errors.append(f"{path}: {message}")

    def block(self, data, path, required, optional, check_unknown=True):
        """Check a dict's key inventory; returns False when not a dict."""
        if not isinstance(data, dict):
            self.error(path, "must be an object")
            return False
        if check_unknown:
            for key in data:
                if key not in required and key not in optional:
                    self.error(path, f"unknown key '{key}'")
        for key in required:
            if key not in data:
                self.error(f"{path}.{key}", "required key is missing")
        return True

    def number(self, data, path, low=None, high=None, low_open=False,
               high_open=False, domain=None):
        if not _finite_number(data):
            self.error(path, f"must be a finite number{_cite(domain)}")
            return None
        value = float(data)
        bad_low = low is not None and (value <= low if low_open else value < low)
        bad_high = high is not None and (value >= high if high_open else value > high)
        if bad_low or bad_high:
            self.error(path, f"value {data!r} outside the domain{_cite(domain)}")
            return None
        return value

    def integer(self, data, path, low=None, domain=None):
        if isinstance(data, bool) or not isinstance(data, int):
            self.error(path, f"must be an integer{_cite(domain)}")
            return None
        if low is not None and data < low:
            self.error(path, f"value {data!r} outside the domain{_cite(domain)}")
            return None
        return int(data)

    def vector(self, data, path, length=None):
        if not isinstance(data, list) or not data or not all(
            _finite_number(v) for v in data
        ):
            self.error(path, "must be a nonempty list of finite numbers")
            return None
        if length is not None and len(data) != length:
            self.error(path, f"must have length {length}, got {len(data)}")
            return None
        return [float(v) for v in data]

    def matrix(self, data, path, rows=None, cols=None):
        if not isinstance(data, list) or not data or not all(
            isinstance(r, list) for r in data
        ):
            self.error(path, "must be a list of rows")
            return None
        width = len(data[0])
        out = []
        for i, row in enumerate(data):
            vec = self.vector(row, f"{path}[{i}]", length=width)
            if vec is None:
                return None
            out.append(vec)
        if rows is not None and len(out) != rows:
            self.error(path, f"must have {rows} rows, got {len(out)}")
            return None
        if cols is not None and width != cols:
            self.error(path, f"must have {cols} columns, got {width}")
            return None
        return out

    def choice(self, data, path, allowed):
        if data not in allowed:
            self.error(
                path, f"must be one of {', '.join(allowed)}, got {data!r}"
            )
            return None
        return data


def _cite(domain):
    return f" ({domain})" if domain else ""


def _normalize_summand(data, col):
    if not col.block(data, "summand", ("kind",), (), check_unknown=False):
        return None
    kind = col.choice(data.get("kind"), "summand.kind", SUMMAND_KINDS)
    if kind is None:
        return None
    out = {"kind": kind}
    if kind == "finite_support":
        if not col.block(data, "summand", ("kind", "atoms", "probs"), ()):
            return None
        atoms = data.get("atoms")
        if isinstance(atoms, list) and atoms and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in atoms
        ):
            atoms = [[v] for v in atoms]
        out["atoms"] = col.matrix(atoms, "summand.atoms")
        out["probs"] = _probs(col, data.get("probs"), "summand.probs")
        if out["atoms"] and out["probs"] and len(out["atoms"]) != len(out["probs"]):
            col.error("summand.probs", "must have one entry per atom")
    elif kind == "gaussian":
        if not col.block(data, "summand", ("kind", "mean", "cov"), ()):
            return None
        out["mean"] = col.vector(data.get("mean"), "summand.mean")
        dim = len(out["mean"]) if out["mean"] else None
        out["cov"] = col.matrix(data.get("cov"), "summand.cov", rows=dim, cols=dim)
    elif kind == "grid_gaussian":
        if not col.block(data, "summand", ("kind", "grid", "mean", "kernel"), ()):
            return None
        out["grid"] = _grid(col, data.get("grid"), "summand.grid")
        size = len(out["grid"]) if out["grid"] else None
        out["mean"] = col.vector(data.get("mean"), "summand.mean", length=size)
        out["kernel"] = col.matrix(
            data.get("kernel"), "summand.kernel", rows=size, cols=size
        )
    else:
        if not col.block(data, "summand", ("kind", "grid", "paths", "probs"), ()):
            return None
        out["grid"] = _grid(col, data.get("grid"), "summand.grid")
        size = len(out["grid"]) if out["grid"] else None
        out["paths"] = col.matrix(data.get("paths"), "summand.paths", cols=size)
        out["probs"] = _probs(col, data.get("probs"), "summand.probs")
        if out["paths"] and out["probs"] and len(out["paths"]) != len(out["probs"]):
            col.error("summand.probs", "must have one entry per path")
    return out


def _probs(col, data, path):
    vec = col.vector(data, path)
    if vec is None:
        return None
    if any(v <= 0.0 for v in vec):
        col.error(path, "probabilities must be strictly positive")
        return None
    if abs(sum(vec) - 1.0) > 1e-12:
        col.error(path, f"probabilities sum to {sum(vec)!r}, not 1 within 1e-12")
        return None
    return vec


def _grid(col, data, path):
    vec = col.vector(data, path)
    if vec is None:
        return None
    if any(b <= a for a, b in zip(vec, vec[1:])):
        col.error(path, "grid sites must be strictly increasing")
        return None
    return vec


def _normalize_counting(data, col):
    if not col.block(data, "counting", ("kind",), (), check_unknown=False):
        return None
    kind = col.choice(data.get("kind"), "counting.kind", COUNTING_KINDS)
    if kind is None:
        return None
    out = {"kind": kind}
    if kind == "poisson":
        if not col.block(data, "counting", ("kind", "rate"), ()):
            return None
        out["rate"] = col.number(
            data.get("rate"), "counting.rate", low=0.0, low_open=True,
            domain="rate > 0",
        )
    elif kind == "fractional_poisson":
        if not col.block(data, "counting", ("kind", "nu", "rate"), ()):
            return None
        out["nu"] = col.number(
            data.get("nu"), "counting.nu", low=0.0, low_open=True, high=1.0,
            domain="ν ∈ (0, 1]",
        )
        out["rate"] = col.number(
            data.get("rate"), "counting.rate", low=0.0, low_open=True,
            domain="rate > 0",
        )
    elif kind == "iid_sum":
        if not col.block(data, "counting", ("kind", "values", "probs"), ()):
            return None
        values = data.get("values")
        if not isinstance(values, list) or not values or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values
        ):
            col.error(
                "counting.values",
                "must be a nonempty list of integers (domain: values ≥ 0)",
            )
            out["values"] = None
        else:
            out["values"] = [int(v) for v in values]
        out["probs"] = _probs(col, data.get("probs"), "counting.probs")
        if out["values"] and out["probs"] and len(out["values"]) != len(out["probs"]):
            col.error("counting.probs", "must have one entry per value")
    elif kind == "bernoulli_sum":
        has_p = "p" in data
        has_preset = "preset" in data
        if has_p == has_preset:
            col.error("counting", "give exactly one of 'p' or 'preset'")
            return None
        if has_p:
            if not col.block(data, "counting", ("kind", "p"), ()):
                return None
            out["p"] = col.number(
                data.get("p"), "counting.p", low=0.0, high=1.0, low_open=True,
                high_open=True, domain="p ∈ (0, 1)",
            )
        else:
            if not col.block(data, "counting", ("kind", "preset", "lam", "c"), ()):
                return None
            if col.choice(data.get("preset"), "counting.preset", ("runs",)) is None:
                return None
            out["preset"] = "runs"
            out["lam"] = col.number(
                data.get("lam"), "counting.lam", low=0.0, low_open=True,
                domain="lam > 0",
            )
            out["c"] = col.number(
                data.get("c"), "counting.c", low=0.0, low_open=True, domain="c > 0",
            )
    else:
        if not col.block(data, "counting", ("kind", "law"), ()):
            return None
        out["law"] = _normalize_law(data.get("law"), col)
    return out


def _normalize_law(data, col):
    if not col.block(data, "counting.law", ("kind",), (), check_unknown=False):
        return None
    kind = col.choice(
        data.get("kind"), "counting.law.kind", ("exponential", "gamma", "table")
    )
    if kind is None:
        return None
    out = {"kind": kind}
    if kind == "exponential":
        if not col.block(data, "counting.law", ("kind", "rate"), ()):
            return None
        out["rate"] = col.number(
            data.get("rate"), "counting.law.rate", low=0.0, low_open=True,
            domain="rate > 0",
        )
    elif kind == "gamma":
        if not col.block(data, "counting.law", ("kind", "shape", "rate"), ()):
            return None
        out["shape"] = col.number(
            data.get("shape"), "counting.law.shape", low=0.0, low_open=True,
            domain="shape > 0",
        )
        out["rate"] = col.number(
            data.get("rate"), "counting.law.rate", low=0.0, low_open=True,
            domain="rate > 0",
        )
    else:
        if not col.block(
            data, "counting.law", ("kind", "r_values", "kappa_values"), ()
        ):
            return None
        out["r_values"] = col.vector(data.get("r_values"), "counting.law.r_values")
        out["kappa_values"] = col.vector(
            data.get("kappa_values"), "counting.law.kappa_values"
        )
    return out


def _normalize_event(data, col, path):
    if not col.block(data, path, ("mode", "level"), ("direction",)):
        return None
    mode = col.choice(data.get("mode"), f"{path}.mode", ("sum", "count"))
    out = {"mode": mode, "level": col.number(data.get("level"), f"{path}.level")}
    if mode == "sum":
        if "direction" not in data:
            col.error(f"{path}.direction", "required for sum events")
        else:
            out["direction"] = col.vector(data.get("direction"), f"{path}.direction")
    elif mode == "count" and "direction" in data:
        col.error(f"{path}.direction", "count events take no direction")
    return out


def _normalize_ns(data, col, path, minimum=1):
    if not isinstance(data, list) or len(data) < minimum:
        col.error(path, f"must be a list of at least {minimum} integers")
        return None
    values = []
    for i, v in enumerate(data):
        iv = col.integer(v, f"{path}[{i}]", low=1, domain="n ≥ 1")
        if iv is None:
            return None
        values.append(iv)
    if any(b <= a for a, b in zip(values, values[1:])):
        col.error(path, "must be strictly increasing")
        return None
    return values


def _normalize_experiment(data, col, counting_kind):
    if not isinstance(data, dict):
        col.error("experiment", "must be an object")
        return None
    kind = col.choice(data.get("kind"), "experiment.kind", EXPERIMENT_KINDS)
    if kind is None:
        return None
    out = {"kind": kind}
    if kind == "rate-eval":
        col.block(data, "experiment", ("kind", "x_values", "y_values"), ("seed",))
        xs = data.get("x_values")
        if isinstance(xs, list) and xs and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in xs
        ):
            xs = [[v] for v in xs]
        out["x_values"] = col.matrix(xs, "experiment.x_values")
        out["y_values"] = col.vector(data.get("y_values"), "experiment.y_values")
    elif kind == "ldp-check":
        col.block(
            data, "experiment", ("kind", "event", "ns"),
            ("reps", "method", "band", "seed"),
        )
        out["event"] = _normalize_event(data.get("event", {}), col, "experiment.event")
        out["ns"] = _normalize_ns(data.get("ns"), col, "experiment.ns", minimum=2)
        method = col.choice(
            data.get("method", DEFAULTS["ldp-check"]["method"]),
            "experiment.method", ("plain", "tilted"),
        )
        out["method"] = method
        if "reps" in data:
            out["reps"] = col.integer(data.get("reps"), "experiment.reps", low=1,
                                      domain="reps ≥ 1")
        else:
            out["reps"] = DEFAULT_REPS.get(method or "tilted")
        out["band"] = col.number(
            data.get("band", DEFAULTS["ldp-check"]["band"]), "experiment.band",
            low=0.0, low_open=True, domain="band > 0",
        )
    elif kind == "md-check":
        col.block(
            data, "experiment", ("kind", "scaling", "etas", "ns"),
            ("mode", "reps", "band", "seed"),
        )
        out["scaling"] = _normalize_scaling(data.get("scaling"), col)
        out["etas"] = col.vector(data.get("etas"), "experiment.etas")
        out["ns"] = _normalize_ns(data.get("ns"), col, "experiment.ns")
        mode = col.choice(
            data.get("mode", DEFAULTS["md-check"]["mode"]), "experiment.mode",
            ("auto", "exact", "empirical"),
        )
        if mode == "auto":
            # str() keeps a malformed kind hashable; kinds outside the table
            # are errors of the counting block.
            counting = COUNTING_CLASSES.get(str(counting_kind))
            exact = counting is None or counting.supports_finite_cgf
            mode = "exact" if exact else "empirical"
        out["mode"] = mode
        out["reps"] = col.integer(
            data.get("reps", DEFAULTS["md-check"]["reps"]), "experiment.reps",
            low=1, domain="reps ≥ 1",
        )
        out["band"] = col.number(
            data.get("band", DEFAULTS["md-check"]["band"]), "experiment.band",
            low=0.0, low_open=True, domain="band > 0",
        )
    elif kind in ("moments-check", "clt-check"):
        required = ("kind", "n") + (("u", "v") if kind == "moments-check"
                                    else ("v",))
        col.block(data, "experiment", required, ("reps", "band_se", "seed"))
        out["n"] = col.integer(data.get("n"), "experiment.n", low=1, domain="n ≥ 1")
        out["reps"] = col.integer(
            data.get("reps", DEFAULTS[kind]["reps"]), "experiment.reps", low=2,
            domain="reps ≥ 2",
        )
        if kind == "moments-check":
            out["u"] = col.vector(data.get("u"), "experiment.u")
        out["v"] = col.vector(data.get("v"), "experiment.v")
        out["band_se"] = col.number(
            data.get("band_se", DEFAULTS[kind]["band_se"]), "experiment.band_se",
            low=0.0, low_open=True, domain="band_se > 0",
        )
    else:
        col.block(data, "experiment", ("kind", "nu", "beta", "x_values"), ("seed",))
        out["nu"] = col.number(
            data.get("nu"), "experiment.nu", low=0.3, high=1.0,
            domain="ν ∈ [0.3, 1] for direct evaluation",
        )
        out["beta"] = col.number(
            data.get("beta"), "experiment.beta", low=0.0, low_open=True,
            domain="β > 0",
        )
        xs = col.vector(data.get("x_values"), "experiment.x_values")
        if xs is not None and any(v < 0.0 for v in xs):
            col.error(
                "experiment.x_values", "arguments must be ≥ 0 (series domain)"
            )
            xs = None
        out["x_values"] = xs

    seed_needed = kind in _SEEDED_EXPERIMENTS or (
        kind == "md-check" and out.get("mode") == "empirical"
    )
    if "seed" in data:
        out["seed"] = col.integer(data.get("seed"), "experiment.seed", low=0,
                                  domain="seed ≥ 0")
    elif seed_needed:
        col.error(
            "experiment.seed",
            f"required: {kind} draws random numbers and must be reproducible",
        )
    return out


def _normalize_scaling(data, col):
    if not isinstance(data, dict):
        col.error("experiment.scaling", "must be an object")
        return None
    if ("gamma" in data) == ("table" in data):
        col.error("experiment.scaling", "give exactly one of 'gamma' or 'table'")
        return None
    if "gamma" in data:
        if not col.block(data, "experiment.scaling", ("gamma",), ()):
            return None
        gamma = col.number(
            data.get("gamma"), "experiment.scaling.gamma", low=0.0, high=1.0,
            low_open=True, high_open=True, domain="γ ∈ (0, 1)",
        )
        return {"gamma": gamma}
    if not col.block(data, "experiment.scaling", ("table",), ()):
        return None
    table = data.get("table")
    if not isinstance(table, list) or not table:
        col.error("experiment.scaling.table", "must be a nonempty list of [n, a] pairs")
        return None
    entries = []
    for i, pair_ in enumerate(table):
        if not (isinstance(pair_, list) and len(pair_) == 2):
            col.error(f"experiment.scaling.table[{i}]", "must be an [n, a] pair")
            return None
        n = col.integer(pair_[0], f"experiment.scaling.table[{i}][0]", low=1,
                        domain="n ≥ 1")
        a = col.number(pair_[1], f"experiment.scaling.table[{i}][1]", low=0.0,
                       low_open=True, domain="a > 0")
        if n is None or a is None:
            return None
        entries.append([n, a])
    return {"table": entries}


def normalize_config(data):
    """Validate a raw config dict, fill defaults, and return the resolved form.

    Raises ConfigError carrying every violation found.
    """
    col = _Collector()
    if not isinstance(data, dict):
        raise ConfigError(["config: must be a JSON object"])
    known = ("summand", "counting", "experiment", "output")
    for key in data:
        if key not in known:
            col.error("config", f"unknown key '{key}'")
    experiment_data = data.get("experiment")
    experiment_kind = (
        experiment_data.get("kind") if isinstance(experiment_data, dict) else None
    )
    needs_models = experiment_kind != "ml-eval"

    out = {}
    if "summand" in data:
        out["summand"] = _normalize_summand(data["summand"], col)
    elif needs_models:
        col.error("summand", "required key is missing")
    if "counting" in data:
        out["counting"] = _normalize_counting(data["counting"], col)
    elif needs_models:
        col.error("counting", "required key is missing")

    if "experiment" not in data:
        col.error("experiment", "required key is missing")
    else:
        counting_kind = None
        if isinstance(data.get("counting"), dict):
            counting_kind = data["counting"].get("kind")
        out["experiment"] = _normalize_experiment(data["experiment"], col,
                                                  counting_kind)

    output = data.get("output", {})
    if col.block(output, "output", (), ("directory", "formats")):
        directory = output.get("directory", DEFAULTS["output"]["directory"])
        if not isinstance(directory, str) or not directory:
            col.error("output.directory", "must be a nonempty string")
            directory = None
        formats = output.get("formats", DEFAULTS["output"]["formats"])
        if not isinstance(formats, list) or not formats or not all(
            f in OUTPUT_FORMATS for f in formats
        ):
            col.error(
                "output.formats",
                f"must be a nonempty subset of {', '.join(OUTPUT_FORMATS)}",
            )
            formats = None
        else:
            formats = sorted(set(formats), key=OUTPUT_FORMATS.index)
        out["output"] = {"directory": directory, "formats": formats}

    if col.errors:
        raise ConfigError(col.errors)
    return out


def parse_config(text):
    """Parse and validate a JSON config; returns the resolved config dict."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"])
    return normalize_config(data)


def serialize_config(config):
    """Canonical JSON text of a resolved config; parse_config inverts this."""
    return json.dumps(config, sort_keys=True, indent=2)


def config_hash(config):
    """sha256 of the canonical compact JSON form."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_summand(block):
    kind = block["kind"]
    if kind == "finite_support":
        return FiniteSupportSummands(block["atoms"], block["probs"])
    if kind == "gaussian":
        return GaussianSummands(block["mean"], block["cov"])
    if kind == "grid_gaussian":
        return grid_gaussian(
            block["grid"], np.asarray(block["mean"]), np.asarray(block["kernel"])
        )
    return grid_finite_support(block["grid"], block["paths"], block["probs"])


def build_counting(block):
    kind = block["kind"]
    if kind == "poisson":
        return PoissonCounting(block["rate"])
    if kind == "fractional_poisson":
        return FractionalPoissonCounting(block["nu"], block["rate"])
    if kind == "iid_sum":
        return IidSumCounting(block["values"], block["probs"])
    if kind == "bernoulli_sum":
        if "p" in block:
            return BernoulliSumCounting(p=block["p"])
        return BernoulliSumCounting.runs(block["lam"], block["c"])
    law = block["law"]
    if law["kind"] == "exponential":
        return RenewalCounting(ExponentialInterarrival(law["rate"]))
    if law["kind"] == "gamma":
        return RenewalCounting(GammaInterarrival(law["shape"], law["rate"]))
    return RenewalCounting(
        TabulatedInterarrival(law["r_values"], law["kappa_values"])
    )


def build_models(config):
    """Construct the (summand, counting) model pair from a resolved config."""
    return build_summand(config["summand"]), build_counting(config["counting"])


def versions_string():
    return ",".join(
        [
            f"python={platform.python_version()}",
            f"numpy={np.__version__}",
            f"scipy={scipy.__version__}",
            f"compound-deviations={__version__}",
        ]
    )


def format_cell(value):
    """Deterministic text form of a table cell; PosInf becomes 'inf'."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@dataclass
class ResultTable:
    """Rectangular results with enough metadata to rerun bit-identically."""

    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *cells):
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def csv_text(self):
        lines = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"


def table_metadata(config, seed=None):
    meta = {"config_hash": config_hash(config), "versions": versions_string()}
    if seed is not None:
        meta["seed"] = seed
    return meta
