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
    ScalingFamily,
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
        ({"kind": "renewal", "law": {"kind": "table", "r_values": [-1.0, 0.0, 1.0],
                                     "kappa_values": [-1.0, 0.0, 1.0]}},
         "counting.law.r_values: must have at least 4 points"),
        ({"kind": "renewal", "law": {"kind": "table",
                                     "r_values": [-1.0, 0.0, 1.0, 2.0],
                                     "kappa_values": [-1.0, 0.0, 1.0]}},
         "counting.law.kappa_values: must have length 4, got 3"),
        ({"kind": "iid_sum", "values": [0, 1, 1], "probs": [0.3, 0.3, 0.4]},
         "counting.values: step values must be distinct"),
    ], ids=["short-table", "table-lengths", "repeated-steps"])
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
        family = ScalingFamily(**config["experiment"]["scaling"])
        sweep = md_scaling_sweep(mn, family, etas=[-0.5, 0.5], ns=[20, 40])
        for row in sweep.rows:
            a_n = family.a(row.n)
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
    @pytest.mark.parametrize("event, summand", [
        ({"mode": "count", "level": 1.0}, ldp_raw()["summand"]),
        ({"mode": "sum", "level": 0.5, "direction": [1.0]},
         {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]}),
    ], ids=["count", "sum"])
    def test_gamma_renewal_ldp_check_tilts_within_band(self, tmp_path, event,
                                                       summand):
        config = normalize_config({
            "summand": summand, "counting": COUNTING_BLOCKS["renewal"],
            "experiment": {"kind": "ldp-check", "event": event,
                           "ns": [50, 100, 200, 400], "reps": 10_000,
                           "method": "tilted", "seed": 5},
        })
        code, summary = run_experiment(config, out_dir=str(tmp_path))
        mx, mn = build_models(config)
        tilt = tilt_parameters(mx, mn, HalfSpaceEvent(**config["experiment"]["event"]))
        assert summary["details"]["method"] == "tilted"
        assert summary["details"]["rate_infimum"] == tilt.rate
        assert code == 0 and summary["bands"][0]["pass"]

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
        # memoised per y: ten solves for the hundred grid points.
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

    def test_tabulated_renewal_rate_eval(self, tmp_path, capsys):
        # Exp(1) cumulant tabulated on [-3, 0.9]; the count cumulant's left
        # tail is minus the table's last r.
        rs = [-3.0 + 0.25 * i for i in range(12)] + [0.1 * i for i in range(10)]
        path = write_json(tmp_path / "table.json", {
            "summand": ldp_raw()["summand"],
            "counting": {"kind": "renewal", "law": {
                "kind": "table", "r_values": rs,
                "kappa_values": [-math.log1p(-r) for r in rs]}},
            "experiment": {"kind": "rate-eval", "x_values": [-0.5, 0.0, 0.5],
                           "y_values": [0.5, 1.0, 1.5]},
        })
        assert cli.main(["rate-eval", "--config", path, "--out",
                         str(tmp_path / "out")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "out" / "rate_eval.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows[0][-2:] == ["md_centered_summands", "md_centered_sum"]
        assert len(rows) == 10
        assert all(math.isfinite(float(cell)) for row in rows[1:]
                   for cell in row[-2:])

    def test_renewal_clt_check_is_worker_invariant(self, tmp_path, capsys):
        path = write_json(tmp_path / "clt.json", {
            "summand": {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]},
            "counting": COUNTING_BLOCKS["renewal"],
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

    def test_tabulated_renewal_clt_check_is_unsupported(self, tmp_path,
                                                        capsys):
        rs = [-3.0 + 0.25 * i for i in range(12)] + [0.1 * i for i in range(10)]
        path = write_json(tmp_path / "clt.json", {
            "summand": {"kind": "gaussian", "mean": [0.2], "cov": [[1.0]]},
            "counting": {"kind": "renewal", "law": {
                "kind": "table", "r_values": rs,
                "kappa_values": [-math.log1p(-r) for r in rs]}},
            "experiment": {"kind": "clt-check", "n": 50, "reps": 100,
                           "v": [1.0], "seed": 3},
        })
        assert cli.main(["clt-check", "--config", path, "--out",
                         str(tmp_path / "out")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(
            "error [compound_deviations.errors.UnsupportedModelError]: "
        )

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
