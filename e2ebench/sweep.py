"""One-off offered-load sweep: open-loop verdict latency against rate.

Boots one server for the workload, sends the warm-up, then runs the
open loop at each rate in turn over fresh frames of the same stream,
and prints one row per rate.  The knee is the highest rate whose tail
stays bounded and whose latency does not grow across the step (a
growing backlog).  Not part of the timed runs::

    python3 e2ebench/sweep.py --workload trickle-tbf --rates 100 200 400 800
"""

from __future__ import annotations

import argparse
import shutil

import numpy as np

from run import use_checkout_source


def main(argv=None) -> int:
    root = use_checkout_source()
    from bench import HERE, Server, child_env, fix_allocator, tail_percentile
    from loadgen import Connection, closed_loop, open_loop
    from workloads import WORKLOADS, Stream

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rates", type=float, nargs="+", required=True,
                        help="offered frames per second, one step each")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="length of each step")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    fix_allocator()
    warm = workload.warmup_clicks() // workload.frame
    steps = [max(1, round(rate * args.seconds)) for rate in args.rates]
    frames = Stream(workload, args.seed)
    frames.ensure(warm + sum(steps))
    out_dir = root / ".bench_build" / "e2ebench" / f"sweep-{workload.name}"
    out_dir.mkdir(parents=True, exist_ok=True)
    server = Server(workload.server_command(str(HERE / "serve_timed.py")),
                    child_env(root / "src"), out_dir / "server.err")
    conn = None
    try:
        conn = Connection(server.port, client_id=args.seed + 1)
        closed_loop(conn, frames, 0, workload.depth, float("inf"), stop=warm)
        first = warm
        print(f"{workload.name}: {workload.frame}-click frames, "
              f"{args.seconds:g} s per step")
        print("rate/s  clicks/s  frames  p50_ms  tail_ms  tail_pct  "
              "late_max_ms  p50_last_quarter_ms")
        for rate, count in zip(args.rates, steps):
            run = open_loop(conn, frames, first, count, rate)
            first += count
            latency = run.latencies_ms()
            tail, pct = tail_percentile(latency)
            last = np.median(latency[-max(1, count // 4):])
            print(f"{rate:6g}  {rate * workload.frame:8.0f}  {count:6d}  "
                  f"{np.median(latency):6.2f}  {tail:7.2f}  {pct:8.2f}  "
                  f"{run.lateness_ms().max():11.2f}  {last:8.2f}", flush=True)
        server.drain()
    finally:
        if conn is not None:
            conn.close()
        server.close()
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
