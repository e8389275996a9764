"""Set-up probe, run in a fresh interpreter: import the package, then
normalise and build every config of one workload.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON object with the import time; the caller times the whole
process, interpreter start included, as the set-up time.
"""

import json
import os
import sys
from time import perf_counter

start = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from compound_deviations.config import build_models, normalize_config  # noqa: E402

import_s = perf_counter() - start

from workloads import make_configs  # noqa: E402

configs, _ = make_configs(sys.argv[1], int(sys.argv[2]))
for _, raw in configs:
    build_models(normalize_config(raw))
print(json.dumps({"import_s": import_s}))
