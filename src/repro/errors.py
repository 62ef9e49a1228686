"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause while
letting genuine bugs (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class GraphError(ReproError):
    """Structural problem with a graph (bad vertex, malformed edge, ...)."""


class DisconnectedGraphError(GraphError):
    """An operation that requires connectivity received a disconnected graph."""


class ReductionNotApplicableError(ReproError):
    """The Theorem-2 reduction preconditions do not hold.

    Raised when ``diam(G) > len(p)`` or ``p_max > 2 * p_min`` (or p is
    malformed).  The message always explains which precondition failed.
    """


class InfeasibleInstanceError(ReproError):
    """A solver was handed an instance with no feasible solution."""


class SolverError(ReproError):
    """An engine failed to produce a valid solution."""


class InstanceTooLargeError(ReproError):
    """An instance exceeds the size cap of the engine the caller chose.

    The exact engines refuse work they cannot finish: Held–Karp's table
    grows as ``2^n n`` and branch-and-bound's DFS factorially.  The cap is
    a property of the chosen engine, not a server fault, so the wire maps
    it to HTTP 422; the message names the engine, ``n`` and the cap.
    """


class NotMetricError(ReproError):
    """A TSP instance violated the triangle inequality where one was required."""


class ServiceClosedError(ReproError):
    """A request was submitted to a serving front-end after shutdown began."""


class WorkerCrashedError(ReproError):
    """A pool worker process died while (or before) running a solve.

    Raised into every future that was in flight on the dead worker; the
    pool respawns the worker and counts the death in
    ``repro_pool_worker_restarts_total``, so callers may simply resubmit.
    """


class ServiceOverloadedError(ReproError):
    """A non-blocking submission found the serving queue at its high-water mark.

    Raised only when backpressure is configured to reject (``block=False``);
    blocking submissions wait for queue space instead.
    """


class DeadlineExpiredError(ReproError):
    """A request's latency budget ran out before a solve started.

    The QoS router drops expired work instead of solving it — the answer
    could no longer be used — and counts the drop in
    ``repro_router_expired_total``.  Intentional shedding, not a server
    fault: the wire maps it to HTTP 504 and the load harness counts it as
    ``dropped``, never as an error.
    """


class RequestValidationError(ReproError):
    """A wire payload failed schema validation before reaching a solver.

    Raised by :meth:`repro.service.protocol.SolveRequest.from_json` (and the
    response counterpart) on any malformed input, so the network layer maps
    every bad payload to a clean HTTP 400 instead of a stack trace.
    """


#: The single error contract shared by the CLI and the network server:
#: every :class:`ReproError` subclass maps to a stable machine-readable
#: ``code`` and the HTTP status the server answers with.  Lookup walks the
#: exception's MRO (:func:`error_code`), so new subclasses inherit their
#: parent's row until given one of their own.  The CLI prints the code in
#: its ``error: [code] message`` exit-2 line; the server puts the same code
#: in its JSON error payload — one vocabulary, two transports.
ERROR_TABLE: dict[type, tuple[str, int]] = {
    ReproError: ("internal", 500),
    GraphError: ("bad_graph", 400),
    DisconnectedGraphError: ("disconnected_graph", 400),
    ReductionNotApplicableError: ("not_applicable", 422),
    InfeasibleInstanceError: ("infeasible_instance", 422),
    InstanceTooLargeError: ("too_large", 422),
    SolverError: ("solver_error", 500),
    NotMetricError: ("not_metric", 500),
    ServiceClosedError: ("service_closed", 503),
    WorkerCrashedError: ("worker_crashed", 503),
    ServiceOverloadedError: ("overloaded", 429),
    DeadlineExpiredError: ("deadline_expired", 504),
    RequestValidationError: ("invalid_request", 400),
}


def _table_row(exc: ReproError | type) -> tuple[str, int]:
    """The ``(code, status)`` row for an error, resolved through the MRO."""
    cls = exc if isinstance(exc, type) else type(exc)
    for base in cls.__mro__:
        if base in ERROR_TABLE:
            return ERROR_TABLE[base]
    return ERROR_TABLE[ReproError]


def error_code(exc: ReproError | type) -> str:
    """The stable machine-readable code for an error (class or instance).

    >>> error_code(ServiceOverloadedError("queue full"))
    'overloaded'
    """
    return _table_row(exc)[0]


def http_status(exc: ReproError | type) -> int:
    """The HTTP status the network server answers this error with.

    >>> http_status(RequestValidationError)
    400
    """
    return _table_row(exc)[1]


def error_payload(exc: ReproError) -> dict:
    """The JSON error body the server sends: ``{"error", "code", "status"}``."""
    code, status = _table_row(exc)
    return {"error": str(exc), "code": code, "status": status}
