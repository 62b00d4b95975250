"""Time the first two steps of a server's start in a fresh interpreter.

Prints one JSON line: ``import_s`` (the modules ``repro serve`` loads
before it builds a detector) and ``create_detector_s`` (building the
workload's detector).  Run by the traced benchmark:

    python e2ebench/setup_probe.py trickle-tbf
"""

import json
import sys
import time

start = time.perf_counter()
import repro.cli  # noqa: E402  (what ``python -m repro`` loads)
import repro.serve  # noqa: E402,F401  (loaded by the serve command)

imported = time.perf_counter()

from repro.detection import create_detector  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

spec = WORKLOADS[sys.argv[1]].spec()
built_at = time.perf_counter()
create_detector(spec)
done = time.perf_counter()
print(json.dumps({"import_s": imported - start,
                  "create_detector_s": done - built_at}))
