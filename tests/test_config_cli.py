"""Tests for config validation, experiment runs, and the compdev CLI.

The contracts under test: every config violation is reported in one pass
with its key path, resolved configs survive a serialize/parse round trip,
table outputs are byte-identical across reruns of the same config, and the
CLI maps outcomes to exit codes (0 pass, 1 band failure, 2 config or typed
error, 3 internal error).
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from compound_deviations import cli, variational
from compound_deviations.config import (
    DEFAULTS,
    ResultTable,
    build_models,
    config_hash,
    format_cell,
    normalize_config,
    parse_config,
    serialize_config,
    table_metadata,
    versions_string,
)
from compound_deviations.counting import (
    BernoulliSumCounting,
    FractionalPoissonCounting,
    IidSumCounting,
    LatticeInterarrival,
    PoissonCounting,
    RenewalCounting,
)
from compound_deviations.errors import (
    ConfigError,
    InconclusiveOptimizationError,
    ValidationError,
)
from compound_deviations.experiments import run_experiment
from compound_deviations.mittag_leffler import log_mittag_leffler
from compound_deviations.montecarlo import (
    HalfSpaceEvent,
    md_scaling_sweep,
    tilt_parameters,
)
from compound_deviations.summands import FiniteSupportSummands, GaussianSummands


def ldp_raw():
    return {
        "summand": {
            "kind": "finite_support",
            "atoms": [1.0, -1.0],
            "probs": [0.5, 0.5],
        },
        "counting": {"kind": "poisson", "rate": 1.0},
        "experiment": {
            "kind": "ldp-check",
            "event": {"mode": "count", "level": 2.0},
            "ns": [50, 100, 200],
            "reps": 3000,
            "seed": 42,
        },
    }


def md_raw():
    return {
        "summand": {
            "kind": "finite_support",
            "atoms": [1.0],
            "probs": [1.0],
        },
        "counting": {"kind": "poisson", "rate": 1.0},
        "experiment": {
            "kind": "md-check",
            "scaling": {"gamma": 0.5},
            "etas": [1.0, -1.0],
            "ns": [100, 1000, 10000, 100000],
        },
    }


def rate_eval_raw():
    return {
        "summand": ldp_raw()["summand"],
        "counting": {"kind": "poisson", "rate": 1.0},
        "experiment": {"kind": "rate-eval", "x_values": [0.0],
                       "y_values": [1.0]},
    }


# One block per counting kind, for checks that must cover all five.
COUNTING_BLOCKS = {
    "poisson": {"kind": "poisson", "rate": 1.0},
    "fractional_poisson": {"kind": "fractional_poisson", "nu": 0.7, "rate": 1.0},
    "iid_sum": {"kind": "iid_sum", "values": [0, 1, 2], "probs": [0.3, 0.4, 0.3]},
    "bernoulli_sum": {"kind": "bernoulli_sum", "p": 0.4},
    "renewal": {"kind": "renewal",
                "law": {"kind": "gamma", "shape": 2.0, "rate": 1.0}},
}

# Renewals of inter-arrivals 1 or 2, each with probability 1/2.
LATTICE_RENEWAL = {"kind": "renewal",
                   "law": {"kind": "lattice", "values": [1, 2], "probs": [0.5, 0.5]}}

# Flat summand blocks and grid blocks with the same values on two sites.
GRID_PAIRS = {
    "gaussian": (
        {"kind": "gaussian", "mean": [0.1, -0.2],
         "cov": [[1.0, 0.3], [0.3, 0.5]]},
        {"kind": "grid_gaussian", "grid": [0.0, 1.0], "mean": [0.1, -0.2],
         "kernel": [[1.0, 0.3], [0.3, 0.5]]},
    ),
    "finite_support": (
        {"kind": "finite_support", "atoms": [[1.0, 0.0], [0.0, -1.0]],
         "probs": [0.5, 0.5]},
        {"kind": "grid_finite_support", "grid": [0.0, 1.0],
         "paths": [[1.0, 0.0], [0.0, -1.0]], "probs": [0.5, 0.5]},
    ),
}


def build_block(name, block):
    """The model one summand or counting block builds, in an md-check
    config, whose experiment holds no vector sized by the summand."""
    mx, mn = build_models(normalize_config(dict(md_raw(), **{name: block})))
    return mx if name == "summand" else mn


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


class TestNormalizeConfig:
    def test_defaults_are_filled(self):
        config = normalize_config(ldp_raw())
        assert config["experiment"]["method"] == "tilted"
        assert config["experiment"]["band"] == 0.15
        assert config["output"] == {
            "directory": "out",
            "formats": ["csv", "json", "dat"],
        }
        # Scalar atoms are normalized to one-column rows.
        assert config["summand"]["atoms"] == [[1.0], [-1.0]]

    def test_every_violation_is_reported_once(self):
        bad = {
            "summand": {
                "kind": "finite_support",
                "atoms": [1.0],
                "probs": [0.7, 0.3],
                "extra": 1,
            },
            "counting": {"kind": "fractional_poisson", "nu": 1.5,
                         "rate": -2.0},
            "experiment": {
                "kind": "ldp-check",
                "event": {"mode": "count", "level": 2.0},
                "ns": [100, 50],
            },
            "nonsense": True,
        }
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(bad)
        errors = excinfo.value.errors
        expected_paths = [
            "summand: unknown key 'extra'",
            "summand.probs",
            "counting.nu",
            "counting.rate",
            "experiment.ns",
            "experiment.seed",
            "config: unknown key 'nonsense'",
        ]
        for needle in expected_paths:
            matching = [e for e in errors if needle in e]
            assert len(matching) == 1, (needle, errors)
        assert len(errors) == len(expected_paths)

    @pytest.mark.parametrize("path", [
        "experiment.event", "experiment.etas", "experiment.y_values",
        "experiment.beta", "counting.rate", "counting.law", "summand.cov",
        "experiment.kind",
    ])
    def test_missing_key_is_reported_once(self, path):
        # One line per missing key: its field check does not run as well.
        raw = {
            "experiment.etas": md_raw(),
            "experiment.y_values": rate_eval_raw(),
            "experiment.beta": {"experiment": {
                "kind": "ml-eval", "nu": 0.5, "beta": 1.0, "x_values": [1.0]}},
            "counting.law": dict(rate_eval_raw(),
                                 counting=copy.deepcopy(COUNTING_BLOCKS["renewal"])),
            "summand.cov": dict(md_raw(),
                                summand=copy.deepcopy(GRID_PAIRS["gaussian"][0])),
        }.get(path, ldp_raw())
        block, key = path.split(".")
        del raw[block][key]
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [f"{path}: required key is missing"]

    def test_domain_citations_in_messages(self):
        bad = copy.deepcopy(ldp_raw())
        bad["counting"] = {"kind": "fractional_poisson", "nu": 1.5,
                           "rate": 2.0}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(bad)
        (nu_error,) = [e for e in excinfo.value.errors if "counting.nu" in e]
        assert "ν ∈ (0, 1]" in nu_error

        eval_bad = {
            "experiment": {"kind": "ml-eval", "nu": 0.2, "beta": 1.0,
                           "x_values": [1.0]},
        }
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(eval_bad)
        (nu_error,) = [e for e in excinfo.value.errors
                       if "experiment.nu" in e]
        assert "ν ∈ [0.3, 1] for direct evaluation" in nu_error

        eval_bad["experiment"].update(nu=0.5, beta=6.000001)
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(eval_bad)
        assert excinfo.value.errors == [
            "experiment.beta: value 6.000001 outside the domain "
            "(β ∈ (0, 6] for direct evaluation)"]

    def test_missing_seed_message_names_the_kind(self):
        raw = ldp_raw()
        del raw["experiment"]["seed"]
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        (seed_error,) = excinfo.value.errors
        assert seed_error.startswith("experiment.seed: required: ldp-check")

    def test_models_optional_only_for_function_evaluation(self):
        eval_only = {
            "experiment": {"kind": "ml-eval", "nu": 0.5, "beta": 1.0,
                           "x_values": [0.5, 1.0]},
        }
        config = normalize_config(eval_only)
        assert "summand" not in config and "counting" not in config

        with pytest.raises(ConfigError) as excinfo:
            normalize_config({"experiment": ldp_raw()["experiment"]})
        joined = "\n".join(excinfo.value.errors)
        assert "summand: required key is missing" in joined
        assert "counting: required key is missing" in joined

    @pytest.mark.parametrize("counting, message", [
        ({"kind": "renewal", "law": {"kind": "lattice", "values": [0, 1],
                                     "probs": [0.5, 0.5]}},
         "counting.law.values: must be a nonempty list of integers "
         "(domain: 1 ≤ values ≤ 2^53)"),
        ({"kind": "renewal", "law": {"kind": "lattice", "values": [1, 2, 3],
                                     "probs": [0.5, 0.5]}},
         "counting.law.probs: must have one entry per value"),
        ({"kind": "iid_sum", "values": [0, 1, 1], "probs": [0.3, 0.3, 0.4]},
         "counting.values: step values must be distinct"),
        ({"kind": "iid_sum", "values": [0, 2 ** 53 + 1], "probs": [0.5, 0.5]},
         "counting.values: must be a nonempty list of integers "
         "(domain: 0 ≤ values ≤ 2^53)"),
    ], ids=["lattice-zero-step", "lattice-lengths", "repeated-steps",
            "step-past-2^53"])
    def test_builder_rules_are_field_checks(self, counting, message):
        # Caught in the one validation pass, with a key path, rather than by
        # the model builder after it.
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(dict(rate_eval_raw(), counting=counting))
        assert excinfo.value.errors == [message]

    def test_md_check_keys_are_scaling_etas_ns_band(self):
        # One exact sweep for every kind: no mode, no reps, no seed needed.
        renewal = md_raw()
        renewal["counting"] = {
            "kind": "renewal",
            "law": {"kind": "exponential", "rate": 1.0},
        }
        for raw in (md_raw(), renewal):
            experiment = normalize_config(raw)["experiment"]
            assert set(experiment) == {"kind", "scaling", "etas", "ns", "band"}
        for key, value in (("mode", "exact"), ("reps", 1000)):
            raw = md_raw()
            raw["experiment"][key] = value
            with pytest.raises(ConfigError) as excinfo:
                normalize_config(raw)
            assert excinfo.value.errors == [f"experiment: unknown key '{key}'"]

    @pytest.mark.parametrize("summand, experiment, message", [
        (GRID_PAIRS["gaussian"][0],
         {"kind": "rate-eval", "x_values": [[0.1, 0.2, 0.3]], "y_values": [1.0]},
         "experiment.x_values: rows must have length 2, the summand "
         "dimension, got 3"),
        (GRID_PAIRS["finite_support"][1],
         {"kind": "moments-check", "n": 10, "u": [1.0], "v": [1.0, 0.0],
          "seed": 1},
         "experiment.u: must have length 2, the summand dimension, got 1"),
        ({"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]},
         {"kind": "clt-check", "n": 10, "v": [1.0, 1.0], "seed": 1},
         "experiment.v: must have length 1, the summand dimension, got 2"),
        (GRID_PAIRS["gaussian"][1],
         {"kind": "ldp-check", "ns": [50, 100], "seed": 1,
          "event": {"mode": "sum", "level": 1.0, "direction": [1.0]}},
         "experiment.event.direction: must have length 2, the summand "
         "dimension, got 1"),
    ], ids=["x_values", "u", "v", "direction"])
    def test_sizes_must_match_the_summand_dimension(self, summand, experiment,
                                                    message):
        raw = {"summand": summand, "counting": {"kind": "poisson", "rate": 1.0},
               "experiment": experiment}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [message]

    def test_scaling_needs_exactly_one_form(self):
        raw = md_raw()
        raw["experiment"]["scaling"] = {"gamma": 0.5, "table": [[10, 0.1]]}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert any("exactly one of 'gamma' or 'table'" in e
                   for e in excinfo.value.errors)

    def test_scaling_table_gives_each_n_once(self):
        raw = md_raw()
        raw["experiment"]["scaling"] = {"table": [[10, 0.1], [10, 0.2]]}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [
            "experiment.scaling.table[1][0]: repeats n=10"]

    @pytest.mark.parametrize("gamma", [0, 1, 1.5, -0.2])
    def test_scaling_gamma_lies_strictly_in_the_unit_interval(self, gamma):
        raw = md_raw()
        raw["experiment"]["scaling"] = {"gamma": gamma}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [
            f"experiment.scaling.gamma: value {gamma!r} outside the domain "
            "(γ ∈ (0, 1))"]

    @pytest.mark.parametrize("entry, message", [
        ([0, 0.1], "[0][0]: value 0 outside the domain (n ≥ 1)"),
        ([10, -0.1], "[0][1]: value -0.1 outside the domain (a > 0)"),
        ([10, "x"], "[0][1]: must be a finite number (a > 0)"),
        ([10, None], "[0][1]: must be a finite number (a > 0)"),
        ([10, math.inf], "[0][1]: must be a finite number (a > 0)"),
        ([10], "[0]: must be an [n, a] pair"),
        ([10, 0.1, 0.2], "[0]: must be an [n, a] pair"),
        (10, "[0]: must be an [n, a] pair"),
        ([10.7, 0.1], "[0][0]: must be an integer (n ≥ 1)"),
    ], ids=["n-zero", "a-negative", "a-string", "a-null", "a-inf", "short",
            "long", "bare-n", "n-fractional"])
    def test_scaling_table_entries_are_checked(self, entry, message):
        # One line with the entry's key path; the table is then dropped, so
        # no coverage line follows. A fractional n is refused, never truncated.
        raw = md_raw()
        raw["experiment"].update(ns=[10], scaling={"table": [entry]})
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [f"experiment.scaling.table{message}"]

    def test_md_check_etas_are_distinct(self):
        # A repeated eta would write its rows, DAT file and bands twice.
        raw = md_raw()
        raw["experiment"]["etas"] = [0.5, 0.5]
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == ["experiment.etas: values must be distinct"]

    def test_scaling_table_covers_every_n(self):
        # A table without some n of ns is refused at validation, one line
        # per missing n, not by the sweep at run time.
        raw = md_raw()
        raw["experiment"]["ns"] = [10, 50, 100]
        raw["experiment"]["scaling"] = {"table": [[10, 0.1], [100, 0.01]]}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [
            "experiment.scaling.table: has no entry for n=50"]
        raw["experiment"]["scaling"]["table"].append([50, 0.05])
        assert normalize_config(raw)["experiment"]["ns"] == [10, 50, 100]

    def test_event_direction_rules(self):
        raw = ldp_raw()
        raw["experiment"]["event"] = {"mode": "sum", "level": 0.5}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert any("experiment.event.direction: required" in e
                   for e in excinfo.value.errors)

        raw["experiment"]["event"] = {"mode": "count", "level": 2.0,
                                      "direction": [1.0]}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert any("count events take no direction" in e
                   for e in excinfo.value.errors)

        # A sum event has no count term, so its direction must not vanish.
        raw["experiment"]["event"] = {"mode": "sum", "level": 0.5,
                                      "direction": [-0.0]}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [
            "experiment.event.direction: must not be all zero for a sum event"]

    def test_unknown_event_mode_is_reported(self):
        # "sum" and "count" are the config's only spellings of a face.
        raw = ldp_raw()
        raw["experiment"]["event"] = {"mode": "ball", "level": 0.5}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [
            "experiment.event.mode: must be one of sum, count, got 'ball'"]

    def test_output_formats_are_checked_and_ordered(self):
        raw = ldp_raw()
        raw["output"] = {"formats": ["json", "csv"]}
        config = normalize_config(raw)
        assert config["output"]["formats"] == ["csv", "json"]

        raw["output"] = {"formats": ["yaml"]}
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert any("output.formats" in e for e in excinfo.value.errors)

    def test_probability_sum_tolerance_message(self):
        raw = ldp_raw()
        raw["summand"]["probs"] = [0.5, 0.499]
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        (error,) = excinfo.value.errors
        assert "not 1 within 1e-12" in error

    @pytest.mark.parametrize("weights, rejected", [
        ([9, 4, 7, 9, 6, 8, 7, 7, 4, 8, 2], True),
        ([4, 8, 3, 5, 3, 3, 9, 8, 2, 9, 9], False),
    ], ids=["numpy-sum-off", "python-sum-off"])
    def test_config_and_models_sum_probabilities_alike(self, weights, rejected):
        # Scaled by 1 + 1e-12, each vector is off one by more than 1e-12 by
        # one of Python's left-to-right sum and numpy's pairwise sum, and
        # within it by the other. The config and every model decide by
        # numpy's sum, the one rule, so they agree on both.
        w = np.array(weights, dtype=float)
        probs = (w / w.sum() * (1.0 + 1e-12)).tolist()
        assert (abs(sum(probs) - 1.0) > 1e-12) is not rejected
        atoms = list(range(len(probs)))
        raw = dict(rate_eval_raw(), summand={
            "kind": "finite_support", "atoms": atoms, "probs": probs})
        models = (lambda: FiniteSupportSummands([[a] for a in atoms], probs),
                  lambda: IidSumCounting(atoms, probs),
                  lambda: LatticeInterarrival([a + 1 for a in atoms], probs))
        if not rejected:
            assert build_models(normalize_config(raw))[0].probs.tolist() == probs
            for build in models:
                build()
            return
        message = (f"probabilities sum to {float(np.sum(probs))!r}, "
                   "not 1 within 1e-12")
        with pytest.raises(ConfigError) as excinfo:
            normalize_config(raw)
        assert excinfo.value.errors == [f"summand.probs: {message}"]
        for build in models:
            with pytest.raises(ValidationError) as error:
                build()
            assert str(error.value) == message

    def test_parse_config_reports_json_errors(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("{not json")
        assert "not valid JSON" in excinfo.value.errors[0]

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            normalize_config([1, 2, 3])


class TestSerializeRoundTrip:
    def test_parse_inverts_serialize(self):
        for raw in (ldp_raw(), md_raw()):
            config = normalize_config(raw)
            assert parse_config(serialize_config(config)) == config

    def test_hash_ignores_raw_key_order(self):
        raw = ldp_raw()
        shuffled = {key: raw[key] for key in
                    ("experiment", "counting", "summand")}
        assert config_hash(normalize_config(raw)) == config_hash(
            normalize_config(shuffled)
        )

    def test_hash_is_hex_and_value_sensitive(self):
        config = normalize_config(ldp_raw())
        digest = config_hash(config)
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        changed = normalize_config(ldp_raw())
        changed["experiment"]["reps"] = 3001
        assert config_hash(changed) != digest


class TestBuildModels:
    def test_finite_support_and_poisson(self):
        mx, mn = build_models(normalize_config(ldp_raw()))
        assert isinstance(mx, FiniteSupportSummands)
        assert isinstance(mn, PoissonCounting)
        assert mx.dim == 1
        assert mn.derivs_at_zero().mean_rate == 1.0

    def test_gaussian_block(self):
        model = build_block("summand", {"kind": "gaussian", "mean": [0.5, -1.0],
                                        "cov": [[2.0, 0.5], [0.5, 1.0]]})
        assert isinstance(model, GaussianSummands)
        np.testing.assert_allclose(model.mean(), [0.5, -1.0])

    def test_grid_paths_block(self):
        model = build_block("summand", {
            "kind": "grid_finite_support",
            "grid": [0.0, 1.0, 2.0],
            "paths": [[0.0, 1.0, 2.0], [0.0, 1.0, 4.0]],
            "probs": [0.5, 0.5],
        })
        assert isinstance(model, FiniteSupportSummands)
        np.testing.assert_array_equal(model.atoms,
                                      [[0.0, 1.0, 2.0], [0.0, 1.0, 4.0]])

    @pytest.mark.parametrize("kind", sorted(COUNTING_BLOCKS))
    def test_md_auto_mode_matches_the_sweep(self, kind):
        # md-check has one mode for every kind, the exact sweep; its values
        # match a_n log sum_k P(N_n = k) e^{t (k - E N_n)} over exact_pmf,
        # up to the tilted weight of the tail that a truncated table drops.
        raw = md_raw()
        raw["counting"] = COUNTING_BLOCKS[kind]
        raw["experiment"].update(ns=[20, 40], etas=[-0.5, 0.5])
        config = normalize_config(raw)
        _, mn = build_models(config)
        scales = [n ** -0.5 for n in (20, 40)]
        sweep = md_scaling_sweep(mn, scales, etas=[-0.5, 0.5], ns=[20, 40])
        for row in sweep.rows:
            a_n = row.n ** -0.5
            t = row.eta / math.sqrt(row.n * a_n)
            pmf = mn.exact_pmf(row.n)
            k = np.arange(pmf.size) - mn.mean(row.n)
            np.testing.assert_allclose(
                row.value, a_n * math.log(float(pmf @ np.exp(t * k))),
                rtol=1e-8, atol=1e-13)

    def test_counting_variants(self):
        fractional = build_block("counting", {"kind": "fractional_poisson",
                                              "nu": 0.5, "rate": 1.0})
        assert isinstance(fractional, FractionalPoissonCounting)
        runs = build_block("counting", {"kind": "bernoulli_sum", "preset": "runs",
                                        "lam": 1.0, "c": 2.0})
        assert isinstance(runs, BernoulliSumCounting)
        renewal = build_block("counting", {
            "kind": "renewal",
            "law": {"kind": "gamma", "shape": 2.0, "rate": 4.0},
        })
        assert isinstance(renewal, RenewalCounting)


class TestTableFormatting:
    def test_format_cell_by_type(self):
        assert format_cell("label") == "label"
        assert format_cell(True) == "true"
        assert format_cell(np.bool_(False)) == "false"
        assert format_cell(3) == "3"
        assert format_cell(np.int64(-4)) == "-4"
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell(math.inf) == "inf"

    @pytest.mark.parametrize("cell, text", [
        (0.1, "0.1"),
        (-0.0, "-0.0"),
        (5e-324, "5e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (np.float64(0.1), "0.1"),
        (np.float64(-0.0), "-0.0"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (np.float64(math.inf), "inf"),
        (3, "3"),
        (np.int64(-4), "-4"),
        (True, "true"),
        (np.bool_(False), "false"),
    ])
    def test_float_cells_keep_their_text(self, cell, text):
        # A Python float goes straight to repr; a numpy float takes the type
        # chain to repr(float(v)), the same text, and never its own repr.
        assert format_cell(cell) == text

    def test_result_table_layout(self):
        table = ResultTable(columns=["n", "value"],
                            metadata={"b": 2, "a": 1})
        table.add(10, 0.5)
        table.add(20, math.inf)
        text = table.csv_text()
        assert text == "# a=1\n# b=2\nn,value\n10,0.5\n20,inf\n"
        with pytest.raises(ValueError):
            table.add(30)

    def test_table_metadata_has_no_timestamp(self):
        config = normalize_config(ldp_raw())
        meta = table_metadata(config, seed=42)
        assert set(meta) == {"config_hash", "versions", "seed"}
        assert meta["config_hash"] == config_hash(config)

    def test_versions_string_shape(self):
        text = versions_string()
        keys = [part.split("=")[0] for part in text.split(",")]
        assert keys == ["python", "numpy", "scipy", "compound-deviations"]


# Two moments-checks (two and three atoms: one binomial stage, and two
# drawn from guide tables) and one clt-check at 20,000 reps, written under
# argv[1].
CHECK_RUNS = """
import sys
from compound_deviations import normalize_config, run_experiment

pm = {"kind": "finite_support", "atoms": [1.0, -1.0], "probs": [0.5, 0.5]}
fs2 = {"kind": "finite_support", "atoms": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
       "probs": [0.3, 0.3, 0.4]}
gauss = {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]}
poisson = {"kind": "poisson", "rate": 1.0}
for name, summand, experiment in [
    ("moments", pm, {"kind": "moments-check", "n": 200, "reps": 20000,
                     "u": [1.0], "v": [1.0], "seed": 5}),
    ("moments-3-atom", fs2, {"kind": "moments-check", "n": 50, "reps": 20000,
                             "u": [1.0, 0.0], "v": [0.0, 1.0], "seed": 5}),
    ("clt", gauss, {"kind": "clt-check", "n": 400, "reps": 20000,
                    "v": [1.0], "seed": 5}),
]:
    config = normalize_config({"summand": summand, "counting": poisson,
                               "experiment": experiment})
    run_experiment(config, out_dir=f"{sys.argv[1]}/{name}")
"""


class TestRunExperiment:
    @pytest.mark.parametrize("event, summand, face", [
        ({"mode": "count", "level": 1.0}, ldp_raw()["summand"],
         HalfSpaceEvent([0.0], 1.0, 1.0)),
        ({"mode": "sum", "level": 0.5, "direction": [1.0]},
         {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]},
         HalfSpaceEvent([1.0], 0.0, 0.5)),
    ], ids=["count", "sum"])
    def test_gamma_renewal_ldp_check_tilts_within_band(self, tmp_path, event,
                                                       summand, face):
        # The two config spellings name the faces (0, 1) and (d, 0).
        config = normalize_config({
            "summand": summand, "counting": COUNTING_BLOCKS["renewal"],
            "experiment": {"kind": "ldp-check", "event": event,
                           "ns": [50, 100, 200, 400], "reps": 10_000,
                           "method": "tilted", "seed": 5},
        })
        code, summary = run_experiment(config, out_dir=str(tmp_path))
        mx, mn = build_models(config)
        tilt = tilt_parameters(mx, mn, face)
        assert summary["details"]["method"] == "tilted"
        assert summary["details"]["rate_infimum"] == tilt.rate
        assert code == 0 and summary["bands"][0]["pass"]

    def test_zero_rate_ldp_check_reports_plain_sampling(self, tmp_path):
        # The event {N/n >= 0.5} holds the limit point 1: no tilt exists,
        # so the tilted method samples plainly and the summary says so.
        raw = ldp_raw()
        raw["experiment"].update(event={"mode": "count", "level": 0.5},
                                 ns=[20, 40], reps=2000)
        _, summary = run_experiment(normalize_config(raw), out_dir=str(tmp_path))
        assert summary["details"]["method"] == "plain"
        assert summary["details"]["rate_infimum"] == 0.0

    def test_ldp_check_passes_and_reruns_identically(self, tmp_path):
        config = normalize_config(ldp_raw())
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        code_a, summary_a = run_experiment(config, out_dir=str(dir_a))
        code_b, summary_b = run_experiment(config, out_dir=str(dir_b))
        assert code_a == code_b == 0
        assert summary_a["pass"] and summary_b["pass"]

        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(summary_a["outputs"])
        for name in names:
            if name.endswith("_summary.json"):
                with open(dir_a / name) as fh:
                    json_a = json.load(fh)
                with open(dir_b / name) as fh:
                    json_b = json.load(fh)
                # The run timestamp lives only in the summary; everything
                # else reruns equal.
                assert json_a.pop("timestamp") != ""
                assert json_b.pop("timestamp") != ""
                assert json_a == json_b
            else:
                assert (dir_a / name).read_bytes() == (
                    dir_b / name
                ).read_bytes()

    def test_check_tables_do_not_depend_on_the_blas_thread_count(self,
                                                                 tmp_path):
        # Each run is a fresh interpreter, since OpenBLAS reads its thread
        # count once, at import.
        src = Path(__file__).resolve().parents[1] / "src"
        tables = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-c", CHECK_RUNS, str(out)], check=True,
                env=dict(os.environ, PYTHONPATH=str(src),
                         OPENBLAS_NUM_THREADS=threads),
            )
            tables[threads] = {str(p.relative_to(out)): p.read_bytes()
                               for p in sorted(out.glob("*/*.csv"))}
        assert sorted(tables["1"]) == [
            "clt/clt_check.csv", "moments-3-atom/moments_check.csv",
            "moments/moments_check.csv"]
        assert tables["1"] == tables["2"]

    def test_rate_eval_table_values(self, tmp_path):
        config = normalize_config({
            "summand": ldp_raw()["summand"],
            "counting": ldp_raw()["counting"],
            "experiment": {"kind": "rate-eval", "x_values": [0.0],
                           "y_values": [2.0]},
        })
        code, summary = run_experiment(config, out_dir=str(tmp_path))
        assert code == 0
        assert summary["bands"] == []
        csv_name = [n for n in summary["outputs"] if n.endswith(".csv")][0]
        lines = (tmp_path / csv_name).read_text().splitlines()
        header = lines[-2].split(",")
        cells = dict(zip(header, lines[-1].split(",")))
        assert float(cells["rate_ld"]) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-10
        )

    @staticmethod
    def run_rate_grid(tmp_path, summand):
        """The 10 x 10 x-by-y rate grid of the benchmark, Poisson counts."""
        config = normalize_config(dict(rate_eval_raw(), summand=summand, experiment={
            "kind": "rate-eval",
            "x_values": [-0.9 + 0.2 * i for i in range(10)],
            "y_values": [0.2 * (i + 1) for i in range(10)],
        }))
        code, _ = run_experiment(config, out_dir=str(tmp_path))
        assert code == 0

    @pytest.mark.parametrize("summand, probed", [
        ({"kind": "finite_support", "atoms": [1.0, -1.0], "probs": [0.5, 0.5]},
         [1]),
        ({"kind": "finite_support", "atoms": [-1.0, 0.0, 1.0],
          "probs": [0.25, 0.5, 0.25]}, [1, 1]),
    ], ids=["pm-one", "three-atoms-1d"])
    def test_rate_eval_probes_each_cumulant_once(self, tmp_path, monkeypatch,
                                                 summand, probed):
        # Every grid point conjugates the same count cumulant, and the
        # summand's too when it has no closed-form conjugate (three atoms
        # on a line); each is probed once, when its model builds it.
        probe, dims = variational.probe_convexity, []

        def counted(f, dim):
            dims.append(dim)
            return probe(f, dim)

        monkeypatch.setattr(variational, "probe_convexity", counted)
        self.run_rate_grid(tmp_path, summand)
        assert dims == probed

    def test_rate_eval_solves_each_count_rate_once(self, tmp_path, monkeypatch):
        # The +-1 law's conjugate is closed-form and the count rate is
        # deduplicated per call: ten solves for the hundred grid points.
        solve, calls = variational.legendre_transform, []

        def counted(cumulant, z):
            calls.append(float(z[0]))
            return solve(cumulant, z)

        monkeypatch.setattr(variational, "legendre_transform", counted)
        self.run_rate_grid(tmp_path, ldp_raw()["summand"])
        assert calls == [0.2 * (i + 1) for i in range(10)]

    @pytest.mark.parametrize("experiment", [
        {"kind": "rate-eval", "x_values": [[0.3, -0.1], [0.0, 0.5]],
         "y_values": [0.5, 1.5]},
        {"kind": "ldp-check", "method": "tilted", "ns": [20, 40],
         "reps": 2000, "seed": 5,
         "event": {"mode": "sum", "level": 0.5, "direction": [1.0, 1.0]}},
    ], ids=["rate-eval", "ldp-check"])
    @pytest.mark.parametrize("kind", sorted(GRID_PAIRS))
    def test_grid_summands_match_flat_tables(self, tmp_path, kind, experiment):
        def table_rows(summand, name):
            config = normalize_config({
                "summand": summand, "counting": COUNTING_BLOCKS["poisson"],
                "experiment": experiment,
            })
            run_experiment(config, out_dir=str(tmp_path / name))
            return {
                path.name: [line for line in path.read_text().splitlines()
                            if not line.startswith("#")]
                for path in (tmp_path / name).iterdir()
                if path.suffix in (".csv", ".dat")
            }

        flat, grid = GRID_PAIRS[kind]
        rows = table_rows(flat, "flat")
        assert rows and all(len(lines) > 1 for lines in rows.values())
        assert table_rows(grid, "grid") == rows

    def test_md_check_exact_sweep_passes(self, tmp_path):
        config = normalize_config(md_raw())
        code, summary = run_experiment(config, out_dir=str(tmp_path))
        assert code == 0
        assert "mode" not in summary["details"]
        assert summary["details"]["a_decreases"]
        assert summary["details"]["na_increases"]
        dat_names = [n for n in summary["outputs"] if n.endswith(".dat")]
        assert dat_names
        first = (tmp_path / dat_names[0]).read_text()
        assert first.startswith("# eta=")

    def test_ml_eval_overflow_goes_to_inf(self, tmp_path):
        config = normalize_config({
            "experiment": {"kind": "ml-eval", "nu": 0.5, "beta": 1.0,
                           "x_values": [1.0, 40.0]},
        })
        code, summary = run_experiment(config, out_dir=str(tmp_path))
        assert code == 0
        csv_name = [n for n in summary["outputs"] if n.endswith(".csv")][0]
        text = (tmp_path / csv_name).read_text()
        last = text.splitlines()[-1].split(",")
        # log E(40) for this order is x^2 plus the log of the 1/nu
        # prefactor, far past float range for E itself.
        assert float(last[1]) == pytest.approx(1600.0 + math.log(2.0),
                                               rel=1e-6)
        assert last[2] == "inf"
        with open(tmp_path / "ml_eval_summary.json") as fh:
            data = json.load(fh)
        assert data["pass"] is True

    def test_infinite_margin_is_a_string_in_strict_json(self, tmp_path):
        # Two draws at seed 0 give every band a zero width, so each margin
        # is inf; the summary writes it as "inf", which a strict parser loads.
        raw = dict(ldp_raw(), experiment={"kind": "clt-check", "n": 10,
                                          "v": [1.0], "reps": 2, "seed": 0})
        run_experiment(normalize_config(raw), out_dir=str(tmp_path))

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "clt_check_summary.json").read_text()
        data = json.loads(text, parse_constant=refuse)
        assert [band["margin"] for band in data["bands"]] == ["inf"] * 5

    def test_ml_eval_keeps_values_below_the_float_limit(self, tmp_path):
        # exp(709.5) is finite although its log is past 709.
        config = normalize_config({
            "experiment": {"kind": "ml-eval", "nu": 1.0, "beta": 1.0,
                           "x_values": [709.5]},
        })
        run_experiment(config, out_dir=str(tmp_path))
        last = (tmp_path / "ml_eval.csv").read_text().splitlines()[-1].split(",")
        assert float(last[2]) == math.exp(log_mittag_leffler(1.0, 1.0, 709.5))
        # E(1, 1; x) = e^x.
        assert float(last[2]) == pytest.approx(math.exp(709.5), rel=1e-12)
        assert math.isfinite(float(last[2]))

    def test_writes_stay_inside_the_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = normalize_config({
            "experiment": {"kind": "ml-eval", "nu": 0.5, "beta": 1.0,
                           "x_values": [1.0]},
        })
        run_experiment(config, out_dir="nested/out")
        assert [p.name for p in tmp_path.iterdir()] == ["nested"]

    def test_formats_limit_outputs(self, tmp_path):
        raw = ldp_raw()
        raw["output"] = {"formats": ["json"]}
        code, summary = run_experiment(normalize_config(raw),
                                       out_dir=str(tmp_path))
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["ldp_check_summary.json"]
        assert summary["outputs"] == ["ldp_check_summary.json"]


class TestCli:
    def test_defaults_prints_json(self, capsys):
        assert cli.main(["defaults"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == DEFAULTS

    def test_missing_config_flag(self, capsys):
        assert cli.main(["ldp-check"]) == 2
        err = capsys.readouterr().err
        assert "error: config: --config is required" in err

    def test_config_errors_get_one_line_each(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "summand": {"kind": "finite_support", "atoms": [1.0],
                        "probs": [0.7, 0.3], "extra": 1},
            "counting": {"kind": "fractional_poisson", "nu": 1.5,
                         "rate": -2.0},
            "experiment": {"kind": "ldp-check",
                           "event": {"mode": "count", "level": 2.0},
                           "ns": [100, 50]},
            "nonsense": True,
        })
        assert cli.main(["ldp-check", "--config", path]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 7
        assert all(line.startswith("error: ") for line in err_lines)

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert cli.main(["rate-eval", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config: cannot read {path!r}")

    def test_config_that_is_not_json_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["rate-eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config: not valid JSON (")

    def test_seed_on_a_config_that_is_not_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path / "list.json", [ldp_raw()])
        assert cli.main(["ldp-check", "--config", path, "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: config: must be a JSON object\n"

    GAUSS_2D = {"kind": "gaussian", "mean": [0.1, 0.2],
                "cov": [[1.0, 0.2], [0.2, 1.0]]}
    GRID_GAUSS = {"kind": "grid_gaussian", "grid": [0.0, 1.0], "mean": [0.1, 0.2],
                  "kernel": [[1.0, 0.2], [0.2, 1.0]]}
    MD = {"kind": "md-check", "scaling": {"gamma": 0.5}, "etas": [1.0], "ns": [10]}
    RUNS = {"kind": "bernoulli_sum", "preset": "runs", "lam": 1.0, "c": 1.0}

    @pytest.mark.parametrize("edit, error", [
        (lambda raw: raw.update(summand=dict(TestCli.GRID_GAUSS, mean=[0.1])),
         "summand.mean: must have length 2, got 1"),
        (lambda raw: raw.update(summand=dict(TestCli.GAUSS_2D, cov=[1.0, 0.2])),
         "summand.cov: must be a list of rows"),
        (lambda raw: raw.update(summand=dict(TestCli.GAUSS_2D, cov=[[1.0, 0.2]])),
         "summand.cov: must have 2 rows, got 1"),
        (lambda raw: raw.update(summand=dict(TestCli.GAUSS_2D, cov=[[1.0], [0.2]])),
         "summand.cov: must have 2 columns, got 1"),
        (lambda raw: raw.update(summand=dict(TestCli.GRID_GAUSS, grid=[1.0, 0.0])),
         "summand.grid: grid sites must be strictly increasing"),
        (lambda raw: raw.update(experiment=dict(TestCli.MD, ns=10)),
         "experiment.ns: must be a list of at least 1 integers"),
        (lambda raw: raw.update(experiment=dict(TestCli.MD, scaling={"table": []})),
         "experiment.scaling.table: must be a nonempty list of [n, a] pairs"),
        (lambda raw: raw.update(summand=None, counting=None, experiment={
            "kind": "ml-eval", "nu": 0.5, "beta": 1.0, "x_values": [-1.0]}),
         "experiment.x_values: arguments must be ≥ 0 (series domain)"),
        (lambda raw: raw.update(output={"directory": ""}),
         "output.directory: must be a nonempty string"),
        (lambda raw: raw.update(summand=[1.0]), "summand: must be an object"),
        (lambda raw: raw.pop("experiment"), "experiment: required key is missing"),
        (lambda raw: raw.update(counting=dict(TestCli.RUNS, lam=1e200, c=1e200)),
         "counting.c: runs lam·c must be a positive finite real of at least "
         "2.2e-308, got inf"),
        (lambda raw: raw.update(counting=dict(TestCli.RUNS, lam=1e-200, c=1e-200)),
         "counting.c: runs lam·c must be a positive finite real of at least "
         "2.2e-308, got 0.0"),
    ], ids=["grid-gaussian-mean", "matrix-rows", "cov-rows", "cov-columns",
            "grid-order", "ns-list", "empty-table", "negative-ml-x",
            "empty-directory", "block-object", "no-experiment",
            "runs-product-overflow", "runs-product-underflow"])
    def test_config_errors_name_their_key_path(self, tmp_path, capsys, edit, error):
        raw = rate_eval_raw()
        edit(raw)
        raw = {key: block for key, block in raw.items() if block is not None}
        command = raw.get("experiment", {}).get("kind", "rate-eval")
        path = write_json(tmp_path / "bad.json", raw)
        assert cli.main([command, "--config", path, "--out",
                         str(tmp_path / "out")]) == 2
        assert f"error: {error}" in capsys.readouterr().err.splitlines()

    def test_kind_mismatch_is_a_config_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "ldp.json", ldp_raw())
        assert cli.main(["md-check", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "declares 'ldp-check'" in err

    def test_ldp_check_run_reports_bands(self, tmp_path, capsys):
        path = write_json(tmp_path / "ldp.json", ldp_raw())
        code = cli.main(["ldp-check", "--config", path, "--out",
                         str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: all bands passed" in out
        assert "pass: " in out
        wrote = [line for line in out.splitlines()
                 if line.startswith("wrote ")]
        assert any(line.endswith(".csv") for line in wrote)
        assert any(line.endswith("ldp_check_summary.json") for line in wrote)

    def test_tilt_past_an_underflowed_atom_passes(self, tmp_path, capsys):
        # The -800 atom's tilted weight underflows to 0 at the tilt.
        path = write_json(tmp_path / "underflow.json", {
            "summand": {"kind": "finite_support", "atoms": [1.0, 0.0, -800.0],
                        "probs": [0.45, 0.45, 0.1]},
            "counting": {"kind": "poisson", "rate": 1.0},
            "experiment": {"kind": "ldp-check", "ns": [10, 20], "reps": 20_000,
                           "seed": 3, "event": {"mode": "sum", "level": 2.0,
                                                "direction": [1]}},
        })
        code = cli.main(["ldp-check", "--config", path, "--out",
                         str(tmp_path / "out")])
        assert "result: all bands passed" in capsys.readouterr().out
        assert code == 0

    def test_seed_flag_satisfies_the_requirement(self, tmp_path, capsys):
        raw = ldp_raw()
        del raw["experiment"]["seed"]
        raw["experiment"]["ns"] = [40, 80]
        raw["experiment"]["reps"] = 1500
        path = write_json(tmp_path / "unseeded.json", raw)
        assert cli.main(["ldp-check", "--config", path]) == 2

        code = cli.main(["ldp-check", "--config", path, "--seed", "42",
                         "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code in (0, 1)

    def test_ml_eval_beta_past_its_range_is_a_config_error(self, tmp_path, capsys):
        assert cli.main(["ml-eval", "--nu", "0.5", "--beta", "200", "--x", "0",
                         "--out", str(tmp_path / "out")]) == 2
        assert "error: experiment.beta: value 200.0 outside the domain" in (
            capsys.readouterr().err)

    def test_ml_eval_direct_flags(self, tmp_path, capsys):
        code = cli.main(["ml-eval", "--nu", "0.5", "--beta", "1.0",
                         "--x", "1.0", "--x", "2.0",
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote ml_values.dat" in out

        assert cli.main(["ml-eval", "--nu", "0.5", "--x", "1.0",
                         "--out", str(tmp_path / "out2")]) == 2
        err = capsys.readouterr().err
        assert "missing: beta" in err

    @pytest.mark.parametrize("nu, x", [("0.3", "1e100"), ("0.5", "1e200")])
    def test_ml_eval_past_the_float_range_writes_inf(self, tmp_path, capsys,
                                                     nu, x):
        out = tmp_path / "out"
        assert cli.main(["ml-eval", "--nu", nu, "--beta", "1", "--x", x,
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "ml_values.dat").read_text().split()[1] == "inf"

    @pytest.mark.parametrize("counting, model", [
        ({"kind": "fractional_poisson", "nu": 0.001, "rate": 1.0},
         "FractionalPoissonCounting"),
        ({"kind": "renewal", "law": {"kind": "gamma", "shape": 0.001, "rate": 1.0}},
         "RenewalCounting"),
    ], ids=["fractional", "gamma-renewal"])
    def test_cumulant_overflow_at_build_is_typed(self, tmp_path, capsys, counting,
                                                 model):
        # The config is valid, but the count's cumulant overflows a float at
        # the construction probe: a typed error, not an internal one.
        path = write_json(tmp_path / "overflow.json", {**rate_eval_raw(),
                                                       "counting": counting})
        assert cli.main(["rate-eval", "--config", path, "--out",
                         str(tmp_path / "out")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == ["error [compound_deviations.errors.ValidationError]: "
                             f"{model}: limit cumulant is not finite on the probe grid"]

    def test_rate_at_the_least_positive_y_is_written(self, tmp_path, capsys):
        # x / y overflows at y = 5e-324: the rate is +inf, and 1.0 (the
        # Poisson(1) count part) at x = 0.
        path = write_json(tmp_path / "tiny.json", dict(
            rate_eval_raw(), experiment={"kind": "rate-eval", "x_values": [0.0, 0.5],
                                         "y_values": [5e-324]}))
        out = tmp_path / "out"
        assert cli.main(["rate-eval", "--config", path, "--out", str(out)]) == 0
        rows = (out / "rate_eval.csv").read_text().splitlines()[-2:]
        assert [row.split(",")[:3] for row in rows] == [
            ["0.0", "5e-324", "1.0"], ["0.5", "5e-324", "inf"]]

    @pytest.mark.parametrize("y, rate_ld", [
        ("1e+200", "4.595170185988092e+202"),
        ("1e+300", "6.897755278982137e+302"),
    ])
    def test_md_rates_past_the_float_range_are_written(self, tmp_path, y, rate_ld):
        # y ** 2 leaves the float range, so both MD rates are +inf; the
        # Poisson count rate y log y - y + 1 is still finite.
        path = write_json(tmp_path / "huge_y.json", dict(
            rate_eval_raw(), experiment={"kind": "rate-eval", "x_values": [0.0],
                                         "y_values": [float(y)]}))
        out = tmp_path / "out"
        assert cli.main(["rate-eval", "--config", path, "--out", str(out)]) == 0
        row = (out / "rate_eval.csv").read_text().splitlines()[-1]
        assert row.split(",") == ["0.0", y, rate_ld, "inf", "inf"]

    def test_iid_sum_count_rate_at_the_largest_y_is_written(self, tmp_path):
        # The first Newton step scores r t = 2 * 1.7e308 past the float
        # range; the tilted step law is then the point mass on the top step,
        # so the count rate, and every rate, is +inf, with no warning.
        path = write_json(tmp_path / "huge_y.json", dict(
            rate_eval_raw(), counting=COUNTING_BLOCKS["iid_sum"],
            experiment={"kind": "rate-eval", "x_values": [0.0, 1.0],
                        "y_values": [1.7e308]}))
        out = tmp_path / "out"
        assert cli.main(["rate-eval", "--config", path, "--out", str(out)]) == 0
        rows = (out / "rate_eval.csv").read_text().splitlines()[-2:]
        assert [row.split(",") for row in rows] == [
            ["0.0", "1.7e+308", "inf", "inf", "inf"],
            ["1.0", "1.7e+308", "inf", "inf", "inf"]]

    def test_count_rate_past_the_float_range_is_typed(self, tmp_path, capsys):
        # The gamma renewal's curvature underflows on the way to y = 1e300:
        # rejected steps end the solve inconclusive, a typed error.
        path = write_json(tmp_path / "huge_y.json", dict(
            rate_eval_raw(), counting=COUNTING_BLOCKS["renewal"],
            experiment={"kind": "rate-eval", "x_values": [0.0],
                        "y_values": [1e300]}))
        assert cli.main(["rate-eval", "--config", path, "--out",
                         str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip().startswith(
            "error [compound_deviations.errors.InconclusiveOptimizationError]: ")

    def test_model_build_error_is_typed(self, tmp_path, capsys):
        path = write_json(tmp_path / "overflow.json", {
            "summand": ldp_raw()["summand"],
            "counting": {"kind": "fractional_poisson", "nu": 0.01,
                         "rate": 1e10},
            "experiment": {"kind": "rate-eval", "x_values": [0.0],
                           "y_values": [2.0]},
        })
        assert cli.main(["rate-eval", "--config", path, "--out",
                         str(tmp_path / "out")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(
            "error [compound_deviations.errors.ValidationError]: "
        )

    @staticmethod
    def assert_grid_fails_typed(tmp_path, capsys, raw, error):
        """The grid raises ``error`` from run_experiment, and compdev exits
        with 2 and names it."""
        with pytest.raises(error):
            run_experiment(normalize_config(raw), out_dir=str(tmp_path / "api"))
        path = write_json(tmp_path / "grid.json", raw)
        assert cli.main(["rate-eval", "--config", path, "--out",
                         str(tmp_path / "out")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines[-1].startswith(
            f"error [compound_deviations.errors.{error.__name__}]: ")

    def test_inconclusive_fallback_solve_is_typed(self, tmp_path, capsys,
                                                  monkeypatch):
        # Three atoms on a line have no closed-form conjugate, so the grid
        # solves the summand conjugate once per row; a row whose solve ends
        # inconclusive (x / y = 0.25 here) stops the whole grid.
        solve = variational.legendre_transform

        def failing(cumulant, z):
            if float(z[0]) == 0.25:
                raise InconclusiveOptimizationError("iteration limit reached")
            return solve(cumulant, z)

        monkeypatch.setattr(variational, "legendre_transform", failing)
        self.assert_grid_fails_typed(tmp_path, capsys, {
            "summand": {"kind": "finite_support", "atoms": [-1.0, 0.0, 1.0],
                        "probs": [0.25, 0.5, 0.25]},
            "counting": {"kind": "poisson", "rate": 1.0},
            "experiment": {"kind": "rate-eval", "x_values": [-0.5, 0.25, 0.5],
                           "y_values": [1.0, 2.0]},
        }, InconclusiveOptimizationError)

    def test_zero_count_variance_rate_is_typed(self, tmp_path, capsys):
        # N_n = n has no count fluctuation: the moderate-deviation columns
        # are undefined and the grid fails as the one-point rates do.
        self.assert_grid_fails_typed(tmp_path, capsys, {
            "summand": ldp_raw()["summand"],
            "counting": {"kind": "iid_sum", "values": [1], "probs": [1.0]},
            "experiment": {"kind": "rate-eval", "x_values": [-0.5, 0.5],
                           "y_values": [0.5, 1.0]},
        }, ValidationError)

    @pytest.mark.parametrize("block, key", [
        ({"counting": {"kind": "poisson", "rate": 10 ** 401}}, "counting.rate"),
        ({"summand": {"kind": "finite_support", "atoms": [10 ** 401, -1],
                      "probs": [0.5, 0.5]}}, "summand.atoms[0]"),
    ], ids=["number", "vector"])
    def test_integer_beyond_float_range_is_a_config_error(
        self, tmp_path, capsys, block, key,
    ):
        # JSON integers have no size limit; one past float range is not a
        # finite number and must not escape as an OverflowError.
        raw = {
            "summand": ldp_raw()["summand"],
            "counting": {"kind": "poisson", "rate": 1.0},
            "experiment": {"kind": "rate-eval", "x_values": [0.0],
                           "y_values": [2.0]},
        }
        raw.update(block)
        path = write_json(tmp_path / "huge.json", raw)
        assert cli.main(["rate-eval", "--config", path, "--out",
                         str(tmp_path / "out")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"error: {key}: must be ")
        assert "finite number" in err_lines[0]

    def test_lattice_renewal_ldp_check(self, tmp_path, capsys):
        # N(0.2, 1) summands over renewals of inter-arrivals 1 or 2: the
        # tilted decay fit of P(S/n >= 0.5) lands within the band of the
        # rate infimum.
        path = write_json(tmp_path / "ldp.json", {
            "summand": {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]},
            "counting": LATTICE_RENEWAL,
            "experiment": {"kind": "ldp-check", "ns": [50, 100, 200], "seed": 5,
                           "event": {"mode": "sum", "level": 0.5,
                                     "direction": [1]}},
        })
        assert cli.main(["ldp-check", "--config", path, "--out",
                         str(tmp_path / "out")]) == 0
        capsys.readouterr()
        summary = json.loads(
            (tmp_path / "out" / "ldp_check_summary.json").read_text())
        band = summary["bands"][0]
        assert band["pass"]
        np.testing.assert_allclose(band["value"], 0.10274, rtol=1e-4)
        np.testing.assert_allclose(band["reference"], 0.098390, rtol=1e-5)

    @pytest.mark.parametrize("counting", ["renewal", "renewal-lattice"])
    def test_renewal_clt_check_is_worker_invariant(self, tmp_path, capsys,
                                                   counting):
        path = write_json(tmp_path / "clt.json", {
            "summand": {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]},
            "counting": {"renewal": COUNTING_BLOCKS["renewal"],
                         "renewal-lattice": LATTICE_RENEWAL}[counting],
            "experiment": {"kind": "clt-check", "n": 200, "reps": 20_000,
                           "v": [1.0], "seed": 17},
        })
        for workers in (1, 2):
            assert cli.main(["clt-check", "--config", path, "--workers",
                             str(workers), "--out",
                             str(tmp_path / f"w{workers}")]) == 0
        capsys.readouterr()
        assert (tmp_path / "w1" / "clt_check.csv").read_bytes() == (
            tmp_path / "w2" / "clt_check.csv").read_bytes()

    def test_internal_error_exits_3_with_one_line(self, tmp_path,
                                                  monkeypatch, capsys):
        def broken(config, out_dir=None, workers=None):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "run_experiment", broken)
        path = write_json(tmp_path / "ldp.json", ldp_raw())
        assert cli.main(["ldp-check", "--config", path]) == 3
        assert capsys.readouterr().err == (
            "error [internal] ZeroDivisionError: float division by zero\n"
        )

    def test_cli_reruns_are_byte_identical(self, tmp_path, capsys):
        args = ["ml-eval", "--nu", "0.7", "--beta", "1.0", "--x", "5.0"]
        assert cli.main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "r2")]) == 0
        capsys.readouterr()
        for name in ("ml_eval.csv", "ml_values.dat"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()
