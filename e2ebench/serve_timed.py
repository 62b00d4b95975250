"""Boot the ingest server for a time-based workload.

``repro serve --algorithm`` offers no time-based variant and has no
``--duration``, so the timed workload starts its server here, with the
detector its ``Workload.spec()`` describes.  The wiring mirrors
``repro serve`` (``repro.cli._command_serve``): the same
``ServeConfig`` defaults, an enabled ``TelemetrySession``, a
``DeadLetterSink``, drain on SIGTERM/SIGINT and the same stdout lines.

    python e2ebench/serve_timed.py timed-tlbf --port 0
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from repro.detection import create_detector
from repro.resilience import DeadLetterSink
from repro.serve import ClickIngestServer, ServeConfig
from repro.telemetry import TelemetrySession

from workloads import WORKLOADS


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--flight-dir", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = WORKLOADS[args.workload].spec()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        trace_dir=args.trace_dir,
        flight_dir=args.flight_dir,
    )
    session = TelemetrySession()
    dead_letters = DeadLetterSink()

    async def _serve_main() -> ClickIngestServer:
        server = ClickIngestServer(
            create_detector(spec),
            config=config,
            telemetry=session,
            dead_letters=dead_letters,
        )
        await server.start()
        print(f"serving {spec.algorithm} (window {spec.window.size}) "
              f"on {config.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.drain())
            )
        await server.wait_drained()
        return server

    server = asyncio.run(_serve_main())
    print(f"drained: {server.processed_clicks} clicks classified, "
          f"{dead_letters.total} frames dead-lettered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
