"""End-to-end benchmark of the click-dedup service.

Run from the repository root; it imports the package from ``src/``::

    python3 e2ebench/run.py --workload trickle-tbf --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 when every check passed, 1 when a check failed and 2 when the
package source is missing.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds, split over the offline, open-loop "
                        "and closed-loop phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from an instrumented run")
    return parser.parse_args(argv)


def use_checkout_source() -> Path:
    """Put ``./src`` first on the import path; exit 2 when it is missing."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'repro'}; run "
              "from the repository root", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(root / "src"))
    return root


def main(argv=None) -> int:
    root = use_checkout_source()
    from bench import run
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), root)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
