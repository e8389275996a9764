"""Declarative experiment configs: parsing, validation, canonical output.

Configs are JSON documents with up to four top-level blocks::

    {
      "summand":    {"kind": ..., ...},
      "counting":   {"kind": ..., ...},
      "experiment": {"kind": ..., "seed": ..., ...},
      "output":     {"directory": ..., "formats": [...]}
    }

Each block family has one kind table: ``SUMMANDS``, ``COUNTING``, ``LAWS``
(renewal inter-arrival laws), ``EXPERIMENTS``, and ``EVENT``, ``SCALING``
and ``OUTPUT``. A ``Kind`` entry holds the block's builder and its ordered
``{key: check}`` fields, whose keys are the builder's keyword arguments, so
validation, ``DEFAULTS`` and ``build_models`` read the same entry. A kind
with two forms (``bernoulli_sum``: ``p`` or ``preset``; scaling: ``gamma``
or ``table``) is a list of alternative entries, told apart by first key.

Validation never stops at the first problem: ``parse_config`` raises a
``ConfigError`` carrying every violation found, one line each, tagged with
its key path and, for domain errors, the documented domain. A missing key
gets one line and no check. Parsing also fills documented defaults, so a
parsed config is fully resolved; serializing it and parsing again yields
the same dictionary (the round-trip contract), and ``config_hash`` of that
canonical form ties every output file to the exact configuration that
produced it.

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
    TABLE_MIN_POINTS,
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
from .montecarlo import BAND_SE, DEFAULT_REPS, HalfSpaceEvent, ScalingFamily
from .summands import (
    PROB_SUM_TOL,
    FiniteSupportSummands,
    GaussianSummands,
    grid_finite_support,
    grid_gaussian,
)
from .version import __version__

OUTPUT_FORMATS = ("csv", "json", "dat")
# Stands for a key the block leaves out, in the checks of optional keys.
_ABSENT = object()


@dataclass(frozen=True)
class Kind:
    """One kind of config block: ``build(**fields)`` makes its model (none
    for experiments, which ``experiments`` runs). A key is required unless
    it has a default or is optional; an optional key's check also runs when
    the key is absent, on ``_ABSENT``. ``seeded`` experiments need a seed."""

    build: object
    fields: dict
    defaults: dict = field(default_factory=dict)
    optional: tuple = ()
    seeded: bool = False


def _finite_number(value):
    """A JSON number that is a finite float; integers past float range are not."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


class _Errors(list):
    """Validation errors with their key paths, collected without raising."""

    def error(self, path, message):
        self.append(f"{path}: {message}")


def _cite(domain):
    return f" ({domain})" if domain else ""


# Field checks: check(col, value, path, out) reports through col and returns
# the resolved value or None; out holds the block's fields resolved so far.

def _number(low=None, high=None, low_open=False, high_open=False, domain=None):
    def check(col, value, path, out=None):
        if not _finite_number(value):
            col.error(path, f"must be a finite number{_cite(domain)}")
            return None
        x = float(value)
        bad_low = low is not None and (x <= low if low_open else x < low)
        bad_high = high is not None and (x >= high if high_open else x > high)
        if bad_low or bad_high:
            col.error(path, f"value {value!r} outside the domain{_cite(domain)}")
            return None
        return x

    return check


def _positive(name):
    return _number(low=0.0, low_open=True, domain=f"{name} > 0")


def _integer(low, domain):
    def check(col, value, path, out=None):
        if isinstance(value, bool) or not isinstance(value, int):
            col.error(path, f"must be an integer{_cite(domain)}")
            return None
        if value < low:
            col.error(path, f"value {value!r} outside the domain{_cite(domain)}")
            return None
        return int(value)

    return check


def _choice(*allowed):
    def check(col, value, path, out=None):
        if value not in allowed:
            col.error(path, f"must be one of {', '.join(allowed)}, got {value!r}")
            return None
        return value

    return check


def _vector(col, value, path, out=None, length=None):
    if not isinstance(value, list) or not value or not all(
        _finite_number(v) for v in value
    ):
        col.error(path, "must be a nonempty list of finite numbers")
        return None
    if length is not None and len(value) != length:
        col.error(path, f"must have length {length}, got {len(value)}")
        return None
    return [float(v) for v in value]


def _matrix(col, value, path, rows=None, cols=None):
    if not isinstance(value, list) or not value or not all(
        isinstance(r, list) for r in value
    ):
        col.error(path, "must be a list of rows")
        return None
    width = len(value[0])
    matrix = []
    for i, row in enumerate(value):
        vec = _vector(col, row, f"{path}[{i}]", length=width)
        if vec is None:
            return None
        matrix.append(vec)
    if rows is not None and len(matrix) != rows:
        col.error(path, f"must have {rows} rows, got {len(matrix)}")
        return None
    if cols is not None and width != cols:
        col.error(path, f"must have {cols} columns, got {width}")
        return None
    return matrix


def _size(out, key):
    """Length of an already resolved field, or None when it failed."""
    return len(out[key]) if out.get(key) else None


def _square(of):
    """A matrix with as many rows and columns as field ``of`` has entries."""
    return lambda col, value, path, out: _matrix(
        col, value, path, rows=_size(out, of), cols=_size(out, of))


def _rows(col, value, path, out):
    """A list of rows; a flat list of numbers is one-column rows."""
    if isinstance(value, list) and value and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        value = [[v] for v in value]
    return _matrix(col, value, path)


def _probs(of, unit):
    """A probability vector with one entry per row of field ``of``."""

    def check(col, value, path, out):
        vec = _vector(col, value, path)
        if vec is None:
            return None
        if any(v <= 0.0 for v in vec):
            col.error(path, "probabilities must be strictly positive")
            return None
        if abs(sum(vec) - 1.0) > PROB_SUM_TOL:
            col.error(path, f"probabilities sum to {sum(vec)!r}, "
                            f"not 1 within {PROB_SUM_TOL:g}")
            return None
        if out.get(of) and len(out[of]) != len(vec):
            col.error(path, f"must have one entry per {unit}")
        return vec

    return check


def _grid(col, value, path, out):
    vec = _vector(col, value, path)
    if vec is None:
        return None
    if any(b <= a for a, b in zip(vec, vec[1:])):
        col.error(path, "grid sites must be strictly increasing")
        return None
    return vec


def _steps(col, value, path, out):
    if not isinstance(value, list) or not value or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in value
    ):
        col.error(path, "must be a nonempty list of integers (domain: values ≥ 0)")
        return None
    if len(set(value)) != len(value):
        col.error(path, "step values must be distinct")
        return None
    return [int(v) for v in value]


def _ns(minimum):
    """A strictly increasing list of at least ``minimum`` sizes n ≥ 1."""

    def check(col, value, path, out):
        if not isinstance(value, list) or len(value) < minimum:
            col.error(path, f"must be a list of at least {minimum} integers")
            return None
        values = []
        for i, v in enumerate(value):
            iv = _integer(1, "n ≥ 1")(col, v, f"{path}[{i}]")
            if iv is None:
                return None
            values.append(iv)
        if any(b <= a for a, b in zip(values, values[1:])):
            col.error(path, "must be strictly increasing")
            return None
        return values

    return check


def _direction(col, value, path, out):
    """Required for sum events, refused for count events."""
    if out.get("mode") == "sum":
        if value is _ABSENT:
            col.error(path, "required for sum events")
            return None
        return _vector(col, value, path)
    if out.get("mode") == "count" and value is not _ABSENT:
        col.error(path, "count events take no direction")
    return None


def _scaling_table(col, value, path, out):
    if not isinstance(value, list) or not value:
        col.error(path, "must be a nonempty list of [n, a] pairs")
        return None
    entries = []
    for i, pair_ in enumerate(value):
        if not (isinstance(pair_, list) and len(pair_) == 2):
            col.error(f"{path}[{i}]", "must be an [n, a] pair")
            return None
        n = _integer(1, "n ≥ 1")(col, pair_[0], f"{path}[{i}][0]")
        a = _positive("a")(col, pair_[1], f"{path}[{i}][1]")
        if n is None or a is None:
            return None
        if any(n == seen for seen, _ in entries):
            col.error(f"{path}[{i}][0]", f"repeats n={n}")
            return None
        entries.append([n, a])
    return entries


def _series_args(col, value, path, out):
    xs = _vector(col, value, path)
    if xs is not None and any(v < 0.0 for v in xs):
        col.error(path, "arguments must be ≥ 0 (series domain)")
        return None
    return xs


def _law_table(col, value, path, out):
    """A tabulated cumulant column: at least TABLE_MIN_POINTS numbers."""
    vec = _vector(col, value, path)
    if vec is not None and len(vec) < TABLE_MIN_POINTS:
        col.error(path, f"must have at least {TABLE_MIN_POINTS} points")
        return None
    return vec


class _Block:
    """A field holding a nested block, validated and built by its own table."""

    def __init__(self, table):
        self.table = table

    def __call__(self, col, value, path, out):
        return _walk(self.table, value, path, col)


SUMMANDS = {
    "finite_support": Kind(FiniteSupportSummands, {
        "atoms": _rows,
        "probs": _probs("atoms", "atom"),
    }),
    "gaussian": Kind(GaussianSummands, {"mean": _vector, "cov": _square("mean")}),
    "grid_gaussian": Kind(grid_gaussian, {
        "grid": _grid,
        "mean": lambda col, value, path, out: _vector(
            col, value, path, length=_size(out, "grid")),
        "kernel": _square("grid"),
    }),
    "grid_finite_support": Kind(grid_finite_support, {
        "grid": _grid,
        "paths": lambda col, value, path, out: _matrix(
            col, value, path, cols=_size(out, "grid")),
        "probs": _probs("paths", "path"),
    }),
}

LAWS = {
    "exponential": Kind(ExponentialInterarrival, {"rate": _positive("rate")}),
    "gamma": Kind(GammaInterarrival, {
        "shape": _positive("shape"), "rate": _positive("rate"),
    }),
    "table": Kind(TabulatedInterarrival, {
        "r_values": _law_table,
        "kappa_values": lambda col, value, path, out: _vector(
            col, value, path, length=_size(out, "r_values")),
    }),
}

COUNTING = {
    "poisson": Kind(PoissonCounting, {"rate": _positive("rate")}),
    "fractional_poisson": Kind(FractionalPoissonCounting, {
        "nu": _number(low=0.0, low_open=True, high=1.0, domain="ν ∈ (0, 1]"),
        "rate": _positive("rate"),
    }),
    "iid_sum": Kind(IidSumCounting, {
        "values": _steps, "probs": _probs("values", "value"),
    }),
    "bernoulli_sum": [
        Kind(BernoulliSumCounting, {"p": _number(
            low=0.0, high=1.0, low_open=True, high_open=True, domain="p ∈ (0, 1)",
        )}),
        # The one preset, "runs": p(x) = exp(-lam c x).
        Kind(lambda preset, lam, c: BernoulliSumCounting.runs(lam, c), {
            "preset": _choice("runs"), "lam": _positive("lam"), "c": _positive("c"),
        }),
    ],
    "renewal": Kind(RenewalCounting, {"law": _Block(LAWS)}),
}

EVENT = Kind(HalfSpaceEvent, {
    "mode": _choice("sum", "count"),
    "level": _number(),
    "direction": _direction,
}, optional=("direction",))

SCALING = [
    Kind(ScalingFamily, {"gamma": _number(
        low=0.0, high=1.0, low_open=True, high_open=True, domain="γ ∈ (0, 1)",
    )}),
    Kind(ScalingFamily, {"table": _scaling_table}),
]

EXPERIMENTS = {
    "rate-eval": Kind(None, {"x_values": _rows, "y_values": _vector}),
    "ldp-check": Kind(None, {
        "event": _Block(EVENT),
        "ns": _ns(2),
        "method": _choice("plain", "tilted"),
        "reps": _integer(1, "reps ≥ 1"),
        "band": _positive("band"),
    }, defaults={"method": "tilted", "reps": dict(DEFAULT_REPS), "band": 0.15},
        seeded=True),
    "md-check": Kind(None, {
        "scaling": _Block(SCALING),
        "etas": _vector,
        "ns": _ns(1),
        "band": _positive("band"),
    }, defaults={"band": 0.02}),
    "moments-check": Kind(None, {
        "n": _integer(1, "n ≥ 1"),
        "reps": _integer(2, "reps ≥ 2"),
        "u": _vector,
        "v": _vector,
        "band_se": _positive("band_se"),
    }, defaults={"reps": DEFAULT_REPS["plain"], "band_se": BAND_SE}, seeded=True),
    "clt-check": Kind(None, {
        "n": _integer(1, "n ≥ 1"),
        "reps": _integer(2, "reps ≥ 2"),
        "v": _vector,
        "band_se": _positive("band_se"),
    }, defaults={"reps": DEFAULT_REPS["plain"], "band_se": BAND_SE}, seeded=True),
    "ml-eval": Kind(None, {
        "nu": _number(low=0.3, high=1.0,
                      domain="ν ∈ [0.3, 1] for direct evaluation"),
        "beta": _positive("β"),
        "x_values": _series_args,
    }),
}


def _formats(col, value, path, out):
    if not isinstance(value, list) or not value or not all(
        f in OUTPUT_FORMATS for f in value
    ):
        col.error(path, f"must be a nonempty subset of {', '.join(OUTPUT_FORMATS)}")
        return None
    return sorted(set(value), key=OUTPUT_FORMATS.index)


def _directory(col, value, path, out):
    if not isinstance(value, str) or not value:
        col.error(path, "must be a nonempty string")
        return None
    return value


OUTPUT = Kind(None, {"directory": _directory, "formats": _formats},
              defaults={"directory": "out", "formats": list(OUTPUT_FORMATS)})

# Documented defaults, also dumped verbatim by the `defaults` CLI subcommand.
DEFAULTS = {"output": OUTPUT.defaults, **{
    kind: entry.defaults for kind, entry in EXPERIMENTS.items() if entry.defaults
}}


def _pick(table, data, path, col):
    """The entry of ``table`` that block ``data`` selects, and the key that
    names an alternative; (None, None) after reporting why there is none."""
    if isinstance(table, Kind):
        return table, None
    if isinstance(table, list):
        keys = [next(iter(alt.fields)) for alt in table]
        chosen = [alt for alt, key in zip(table, keys) if key in data]
        if len(chosen) != 1:
            col.error(path, f"give exactly one of '{keys[0]}' or '{keys[1]}'")
            return None, None
        return chosen[0], next(iter(chosen[0].fields))
    if "kind" not in data:
        col.error(f"{path}.kind", "required key is missing")
        return None, None
    kind = _choice(*table)(col, data["kind"], f"{path}.kind")
    if kind is None:
        return None, None
    return _pick(table[kind], data, path, col)


def _walk(table, data, path, col, allowed=()):
    """The resolved block: reports unknown keys, then missing ones, then
    runs each field's check in table order. A failed check of the key that
    names the entry (an alternative's first key) stops the block."""
    if not isinstance(data, dict):
        col.error(path, "must be an object")
        return None
    entry, name = _pick(table, data, path, col)
    if entry is None:
        return None
    out = {"kind": data["kind"]} if isinstance(table, dict) else {}
    known = {*out, *entry.fields, *allowed}
    for key in data:
        if key not in known:
            col.error(path, f"unknown key '{key}'")
    for key in entry.fields:
        if key not in data and key not in entry.defaults and key not in entry.optional:
            col.error(f"{path}.{key}", "required key is missing")
    for key, check in entry.fields.items():
        if key in data or key in entry.optional:
            value = check(col, data.get(key, _ABSENT), f"{path}.{key}", out)
            if value is None and key == name:
                return None
        elif key in entry.defaults:
            value = entry.defaults[key]
            if isinstance(value, dict):  # ldp-check's reps: one per method
                value = value.get(out.get("method"))
        else:
            continue
        if value is not None:
            out[key] = value
    return out


def _dimension(summand):
    """Dimension of a resolved summand block; None when it did not resolve."""
    if not summand:
        return None
    vector = (summand.get("grid") or summand.get("mean")
              or (summand.get("atoms") or [None])[0])
    return len(vector) if vector else None


def _normalize_experiment(data, col, summand):
    """The experiment block; ``summand`` is the resolved summand block, whose
    dimension every point and direction of the experiment must have."""
    out = _walk(EXPERIMENTS, data, "experiment", col, allowed=("seed",))
    if out is None:
        return None
    kind = out["kind"]
    dim = _dimension(summand)
    vectors = {"u": out.get("u"), "v": out.get("v"),
               "event.direction": (out.get("event") or {}).get("direction")}
    if kind == "rate-eval" and out.get("x_values"):
        vectors["x_values"] = out["x_values"][0]
    for key, vector in vectors.items():
        if dim is not None and vector is not None and len(vector) != dim:
            what = "rows must" if key == "x_values" else "must"
            col.error(f"experiment.{key}", f"{what} have length {dim}, the "
                                           f"summand dimension, got {len(vector)}")
    if "seed" in data:
        out["seed"] = _integer(0, "seed ≥ 0")(col, data["seed"], "experiment.seed")
    elif EXPERIMENTS[kind].seeded:
        col.error(
            "experiment.seed",
            f"required: {kind} draws random numbers and must be reproducible",
        )
    return out


def normalize_config(data):
    """Validate a raw config dict, fill defaults, and return the resolved form.

    Raises ConfigError carrying every violation found.
    """
    col = _Errors()
    if not isinstance(data, dict):
        raise ConfigError(["config: must be a JSON object"])
    for key in data:
        if key not in ("summand", "counting", "experiment", "output"):
            col.error("config", f"unknown key '{key}'")
    experiment = data.get("experiment")
    needs_models = not (isinstance(experiment, dict)
                        and experiment.get("kind") == "ml-eval")

    out = {}
    for name, table in (("summand", SUMMANDS), ("counting", COUNTING)):
        if name in data:
            out[name] = _walk(table, data[name], name, col)
        elif needs_models:
            col.error(name, "required key is missing")
    if "experiment" in data:
        out["experiment"] = _normalize_experiment(experiment, col,
                                                  out.get("summand"))
    else:
        col.error("experiment", "required key is missing")
    out["output"] = _walk(OUTPUT, data.get("output", {}), "output", col)

    if col:
        raise ConfigError(list(col))
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


def _build(table, block):
    """The model of a resolved block: its entry's builder on its fields,
    nested blocks built first."""
    entry, _ = _pick(table, block, "", _Errors())
    return entry.build(**{
        key: _build(check.table, block[key]) if isinstance(check, _Block)
        else block[key]
        for key, check in entry.fields.items() if key in block
    })


def build_models(config):
    """Construct the (summand, counting) model pair from a resolved config."""
    return _build(SUMMANDS, config["summand"]), _build(COUNTING, config["counting"])


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
    """Deterministic text form of a table cell; +inf becomes 'inf'."""
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
