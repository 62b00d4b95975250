"""Run one asyncio service on a background thread, driven synchronously.

:class:`LoopThread` is the harness behind
:class:`~repro.serve.server.ServerThread`,
:class:`~repro.cluster.router.RouterThread` and
:class:`~repro.chaos.proxy.ProxyThread`: tests, benchmarks, the chaos
soak and the local cluster start a service with it, call into its loop
from plain threads, and stop it with the same graceful drain a
``SIGTERM`` would run.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Optional

from ..errors import ConfigurationError

__all__ = ["LoopThread"]


class LoopThread:
    """A daemon thread running one service on its own event loop.

    ``build`` constructs the service; it runs on the new loop, because
    services bind asyncio primitives at construction.  The service must
    offer ``async start()``, ``port`` and ``async drain()``.
    """

    def __init__(self, build: Callable[[], object], name: str) -> None:
        self._build = build
        self._name = name
        self.service = None
        self.port: Optional[int] = None
        #: The running loop; ``None`` before start and after stop.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._finished: Optional[asyncio.Event] = None

    def start(self, timeout: float = 10.0):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name=self._name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ConfigurationError(f"{self._name} thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    async def _main(self) -> None:
        try:
            self.service = self._build()
            await self.service.start()
            self.port = self.service.port
            self._finished = asyncio.Event()
            self._loop = asyncio.get_running_loop()
        except BaseException as error:  # surface to start()
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        # Leaving here ends asyncio.run, which cancels every task still
        # running: after stop() nothing is, after a halt the rest dies.
        await self._finished.wait()

    def _call(self, method, *args, timeout: float = 30.0):
        """Run ``await method(*args)`` on the loop; block for the result."""
        if self._loop is None:
            raise ConfigurationError(f"{self._name} thread not running")
        return asyncio.run_coroutine_threadsafe(
            method(*args), self._loop
        ).result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the service gracefully, then end the loop and join it."""
        if self._loop is None:
            return

        async def drain_then_finish() -> None:
            try:
                await self.service.drain()
            finally:
                self._finished.set()

        self._call(drain_then_finish, timeout=timeout)
        self._join(timeout)

    def _halt(self, last: Callable[[], None], timeout: float) -> None:
        """Run ``last`` on the loop, then end it without draining."""
        if self._loop is None:
            return

        def halt() -> None:
            last()
            self._finished.set()

        try:
            self._loop.call_soon_threadsafe(halt)
        except RuntimeError:
            pass  # loop already gone
        self._join(timeout)

    def _join(self, timeout: float) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
