"""The package's public names: ``__all__`` lists exactly what ``__init__``
imports, and every listed name resolves. Every name a module imports is used
in it. Importing the package loads no scipy submodule, and a run loads only
the ones it calls."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import compound_deviations


def imported_names():
    """Names bound by the import statements of the package's ``__init__``."""
    tree = ast.parse(Path(compound_deviations.__file__).read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_all_lists_exactly_the_imported_names():
    exported = compound_deviations.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == set(imported_names())


def test_every_exported_name_resolves():
    for name in compound_deviations.__all__:
        assert getattr(compound_deviations, name, None) is not None, name


def traced_functions():
    """The (module, function) pairs of the benchmark tracer's ``FUNCTIONS``,
    read from its source without importing it."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("the tracer defines no FUNCTIONS")


def test_every_traced_function_resolves():
    # The tracer wraps each pair by name, so a renamed one would stop it.
    pairs = traced_functions()
    assert pairs
    missing = [(module, name) for module, name in pairs if not callable(getattr(
        importlib.import_module(f"compound_deviations.{module}"), name, None))]
    assert missing == []


def unused_imports(tree):
    """Names that the module's import statements bind, at any depth, and
    that no expression of the module reads and its ``__all__`` does not list."""
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    listed = {elt.value for node in tree.body if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)
              for elt in node.value.elts}
    return sorted(set(bound) - read - listed)


def test_every_imported_name_is_used():
    package = Path(compound_deviations.__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if (names := unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


# A fresh interpreter imports the package and the CLI, records which of
# scipy's submodules are loaded, enumerates a +-1 sum event under
# constant-p Bernoulli counts, runs a tilted and a plain +-1/Poisson
# ldp-check, one +-1/Poisson rate-eval config, then a +-1/Poisson
# moments-check and clt-check (enough reps for the normality p-values) and a
# clt-check on runs-profile Bernoulli counts, and records them after each
# step, with the first clt-check's p-values last.
IMPORT_PROBE = """
import json, sys
import compound_deviations, compound_deviations.cli
from compound_deviations import (
    BernoulliSumCounting, FiniteSupportSummands, HalfSpaceEvent,
    enumerate_exact, normalize_config, run_experiment,
)

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy."))

after_import = loaded()
enumerate_exact(FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5]),
                BernoulliSumCounting(p=0.5), 6,
                HalfSpaceEvent([1.0], 0.0, 0.5))
after_enumeration = loaded()
pm_poisson = {
    "summand": {"kind": "finite_support", "atoms": [1.0, -1.0], "probs": [0.5, 0.5]},
    "counting": {"kind": "poisson", "rate": 1.0},
}
for method in ("tilted", "plain"):
    run_experiment(normalize_config(dict(pm_poisson, experiment={
        "kind": "ldp-check", "method": method, "ns": [50, 100], "reps": 2000,
        "event": {"mode": "sum", "level": 0.2, "direction": [1.0]}, "seed": 1,
    })), out_dir=sys.argv[1])
after_ldp = loaded()
run_experiment(normalize_config(dict(pm_poisson, experiment={
    "kind": "rate-eval", "x_values": [-0.5, 0.0, 0.5], "y_values": [0.5, 1.0, 2.0],
})), out_dir=sys.argv[1])
after_run = loaded()
run_experiment(normalize_config(dict(pm_poisson, experiment={
    "kind": "moments-check", "n": 50, "reps": 1000, "u": [1.0], "v": [1.0],
    "seed": 1,
})), out_dir=sys.argv[1])
_, clt = run_experiment(normalize_config(dict(pm_poisson, experiment={
    "kind": "clt-check", "n": 50, "reps": 1000, "v": [1.0], "seed": 1,
})), out_dir=sys.argv[1])
runs = dict(pm_poisson, counting={"kind": "bernoulli_sum", "preset": "runs",
                                  "lam": 1.0, "c": 1.0})
run_experiment(normalize_config(dict(runs, experiment={
    "kind": "clt-check", "n": 50, "reps": 1000, "v": [1.0], "seed": 1,
})), out_dir=sys.argv[1])
print(json.dumps([after_import, after_enumeration, after_ldp, after_run, loaded(),
                  clt["details"]["normality_pvalues"]]))
"""


def test_import_loads_no_scipy_submodule_a_run_does_not_call(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    after_import, after_enumeration, after_ldp, after_run, after_checks, pvalues = (
        json.loads(done.stdout.strip().splitlines()[-1]))
    deferred = ("scipy.stats", "scipy.integrate", "scipy.optimize",
                "scipy.interpolate", "scipy.special")
    assert [m for m in deferred if m in after_import] == []
    assert after_enumeration == after_import
    # The event estimator, plain and tilted, needs no solver or quadrature.
    solvers = ("scipy.stats", "scipy.integrate", "scipy.optimize",
               "scipy.interpolate")
    assert [m for m in solvers if m in after_ldp] == []
    unused = ("scipy.stats", "scipy.integrate", "scipy.interpolate")
    assert [m for m in unused if m in after_run] == []
    # The checks' K^2 p-values take chdtrc from scipy.special alone.
    assert sorted(pvalues) == ["count_coord", "sum_coord"]
    assert all(isinstance(p, float) for p in pvalues.values())
    # A runs count's limit triple is in closed form: no quadrature loads.
    heavy = ("scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy.ndimage")
    assert [m for m in heavy if m in after_checks] == []
