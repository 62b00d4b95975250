"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause,
while configuration problems and runtime-state problems stay
distinguishable.

Recovery taxonomy
-----------------

Three exception classes partition restart/recovery failures, and an
operator's response differs for each:

* :class:`StreamError` — the *input* is at fault: a malformed record or
  a non-monotonic timestamp.  The detector state is intact; quarantine
  the record (the readers' ``on_malformed`` hook takes a
  ``repro.resilience.DeadLetterSink``; the ingest server answers such a
  frame with ``ERROR`` and dead-letters it) and keep going.  Retrying
  the same record will fail the same way.
* :class:`CheckpointError` — one *artifact* is at fault: a checkpoint
  blob is corrupt, truncated, or belongs to a different configuration.
  This is recoverable by fallback: discard that blob and load the
  previous generation (``CheckpointStore.load`` in
  :mod:`repro.core.checkpoint` does this automatically).
* :class:`RecoveryError` — the *resume itself* is impossible: the
  checkpoint store holds generations but none is usable.  There is no
  older artifact to fall back to; a human must decide between a cold
  start (forgetting the window — the attacker's free pass) and
  restoring infrastructure.  A serve node refuses to boot with it
  (``repro serve`` and ``repro cluster run`` exit 1) instead of
  silently serving an empty window.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A constructor or factory received inconsistent or invalid parameters.

    Examples: a Bloom filter with ``num_bits <= 0``, a jumping window whose
    size is not divisible by its sub-window count, a TBF whose cleanup
    budget ``C`` is negative.
    """


class CapacityError(ReproError, RuntimeError):
    """A bounded data structure was asked to exceed its designed capacity.

    Raised, for example, when a counting Bloom filter counter would
    overflow its configured width and saturation is disabled.
    """


class StreamError(ReproError, RuntimeError):
    """A click stream violated an ordering or format requirement.

    Examples: non-monotonic timestamps fed to a time-based window, or a
    malformed record encountered while parsing a stream file.
    """


class BudgetError(ReproError, RuntimeError):
    """An advertiser budget was exhausted or a charge was invalid."""


class ParallelError(ReproError, RuntimeError):
    """The multi-process detection engine lost a worker or a transport.

    Raised when a worker process reports an unrecoverable error, when a
    shared-memory ring times out (the deadlock guard), or when a dead
    worker cannot be respawned and no failover policy is configured.
    Unclean worker deaths are normally *handled* — respawn from the last
    checkpoint, or degrade the shard under its failover policy — so this
    surfacing means supervision itself has run out of options.
    """


class ProtocolError(ReproError, RuntimeError):
    """A malformed frame or message on the click-ingest wire protocol.

    Raised by :mod:`repro.serve.protocol` codecs; the server dead-letters
    the offending frame instead of crashing the connection loop.
    """


class OverloadedError(ReproError, RuntimeError):
    """The ingest server refused a batch under admission control.

    Client-side surfacing of an ``OVERLOADED`` response: the server's
    inflight budget was full, the batch was *not* processed, and the
    caller should back off and retry.
    """


class DeliveryError(ReproError, RuntimeError):
    """A client-side delivery failure on the click-ingest protocol.

    Base class for the retry-path errors of
    :class:`repro.serve.client.ServeClient`.  ``pending`` carries the
    request ids that were submitted but had no response when the error
    fired — with idempotent delivery enabled (the ``HELLO`` handshake)
    every one of them is safe to resend on a fresh connection: the
    server either replays the cached response or reports the batch
    already applied, never applies it twice.
    """

    def __init__(self, message: str, pending=()) -> None:
        super().__init__(message)
        #: Request ids submitted but unresolved when the error fired.
        self.pending = tuple(pending)


class ConnectionLost(DeliveryError):
    """The TCP connection to the ingest server dropped mid-exchange.

    Raised instead of leaking raw ``socket.error``/``struct.error``
    when the server dies mid-frame.  Also raised (fast, without
    touching the network) while the client's circuit breaker is open.
    """


class DeadlineExceeded(DeliveryError):
    """A request's response did not arrive within its deadline."""


class RetriesExhausted(DeliveryError):
    """The retry budget ran out without re-establishing delivery.

    The last underlying failure is available as ``__cause__``.
    """


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint is corrupt, truncated, or does not match the config.

    Recoverable by fallback: discard the offending blob and restore the
    previous good generation (see the recovery taxonomy in the module
    docstring).
    """


class RecoveryError(CheckpointError):
    """A resume is impossible: the checkpoint store holds no usable
    generation.

    Unlike a plain :class:`CheckpointError` there is nothing left to
    fall back to — continuing requires a human decision (cold start vs.
    restoring the checkpoint store), so callers must not swallow this.
    """
