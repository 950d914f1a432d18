"""Set-up probe, run in a fresh interpreter by run.py.

Imports acoufilt.cli, generates the workload's inputs, then prints one JSON
line with the time each step took.  The line marks the moment the first op
could start.

    python3 perfbench/probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]
import acoufilt.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]]().inputs(int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
