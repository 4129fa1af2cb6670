"""The frozen v1 wire schema of the join service.

One schema, three consumers: the HTTP service (:mod:`repro.serve.service`)
speaks it on the wire, the CLI embeds it in structured run reports, and
the Python API round-trips it through
:meth:`repro.join.run.JoinRun.to_wire` / ``from_wire`` — which this
module re-exports as the canonical response envelope. What is frozen:

- ``API_VERSION = 1`` is stamped into every response and required from
  every decoder; an incompatible envelope change bumps it.
- Byte-level strictness: :func:`dumps_wire` refuses non-finite floats
  (``NaN``/``Infinity`` are not JSON) and :func:`loads_wire` rejects
  them on the way in, so a v1 document is always parseable by any
  strict JSON implementation.
- Forward compatibility: decoders — request and response alike —
  ignore unknown fields, so additive v1.x growth never breaks a v1
  reader. ``tests/golden/joinrun_wire_v1.json`` pins the exact bytes.

Request schemas (:class:`JoinRequest`, :class:`BuildIndexRequest`)
validate payloads into typed records; violations raise
:class:`WireError`, which the service maps to ``400``. The request
vocabulary (methods, modes, codecs) is hardcoded here deliberately: it
is part of the frozen API surface, not an import from the engine.

Stdlib-only (plus the :mod:`repro.join.run` / :mod:`repro.topology`
dataclasses), so clients can import this module without pulling in
numpy or the execution stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.join.run import WIRE_VERSION, JoinRun
from repro.topology.de9im import TopologicalRelation

#: The service's wire API version — the same constant the ``JoinRun``
#: envelope stamps, re-exported under the serving layer's name.
API_VERSION = WIRE_VERSION

#: The frozen v1 request vocabulary. Deliberately *not* imported from
#: the execution layer: adding an engine mode does not silently widen
#: the wire API.
JOIN_METHODS = ("ST2", "OP2", "APRIL", "P+C")
#: ``"batch"`` stays for v1 compatibility; the engine runs it as serial.
JOIN_MODES = ("auto", "serial", "batch", "parallel", "disk")
PAYLOAD_CODECS = ("varint", "raw")


#: The frozen vocabulary of machine-readable error reasons a v1 error
#: document may carry. Clients branch on ``reason``, never on the
#: human-readable ``error`` text.
ERROR_REASONS = (
    "queue_full",      # admission queue bound hit on arrival (429)
    "deadline",        # request deadline lapsed while queued (429)
    "worker_crash",    # engine worker died mid-request (503)
    "worker_hang",     # engine worker exceeded the deadline, was killed (503)
    "pool_exhausted",  # no live engine worker to dispatch to (503)
    "pool_closed",     # the daemon is draining (503)
    "breaker_open",    # the dataset's circuit breaker is open (503)
)


class WireError(ValueError):
    """A payload that violates the wire schema (service answers 400)."""


def error_document(
    status: int,
    message: str,
    *,
    reason: str | None = None,
    retry_after: float | None = None,
) -> dict:
    """The versioned v1 error body every non-200 response carries.

    Always ``{"api_version", "error", "status"}``; transient refusals
    (429/503) add a machine-readable ``reason`` from
    :data:`ERROR_REASONS` and a ``retry_after`` hint in seconds (also
    sent as the ``Retry-After`` header). Additive only — a v1 client
    that predates ``reason`` keeps working.
    """
    document: dict = {"api_version": API_VERSION, "error": message, "status": status}
    if reason is not None:
        document["reason"] = reason
    if retry_after is not None:
        document["retry_after"] = round(max(0.0, float(retry_after)), 3)
    return document


def _reject_constant(token: str) -> float:
    raise WireError(f"non-finite JSON token {token!r} is not valid wire data")


def dumps_wire(document: Any) -> str:
    """Serialize a wire document to canonical JSON text.

    Deterministic (sorted keys, fixed separators) so equal documents
    produce equal bytes — the property the golden-file pin and the CI
    ``cmp`` checks rely on — and strict: any non-finite float raises
    :class:`WireError` here instead of emitting the invalid-JSON
    ``NaN``/``Infinity`` tokens downstream parsers reject.
    """
    try:
        return json.dumps(
            document, sort_keys=True, allow_nan=False, separators=(",", ":")
        )
    except ValueError as exc:
        raise WireError(f"document is not wire-safe: {exc}") from exc


def loads_wire(text: str | bytes) -> Any:
    """Parse wire JSON, rejecting non-finite constants and bad syntax."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"body is not UTF-8: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except WireError:
        raise
    except ValueError as exc:
        raise WireError(f"malformed JSON: {exc}") from exc


def validate_wire_run(document: Mapping) -> JoinRun:
    """Decode a response document into a :class:`JoinRun`, mapping
    envelope violations to :class:`WireError`."""
    try:
        return JoinRun.from_wire(document)
    except (ValueError, KeyError, TypeError) as exc:
        raise WireError(str(exc)) from exc


# ----------------------------------------------------------------------
# request schemas
# ----------------------------------------------------------------------
def _field(payload: Mapping, name: str, kind, default, *, required: bool = False):
    """One validated request field; unknown keys are the caller's to ignore."""
    if name not in payload:
        if required:
            raise WireError(f"missing required field {name!r}")
        return default
    value = payload[name]
    if value is None and not required:
        return default
    if kind is bool:
        if not isinstance(value, bool):
            raise WireError(f"field {name!r} must be a boolean, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise WireError(f"field {name!r} must be an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise WireError(f"field {name!r} must be a string, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise WireError(f"field {name!r} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise WireError(f"field {name!r} must be finite, got {value!r}")
        return float(value)
    raise AssertionError(f"unknown field kind {kind!r}")


def parse_predicate(name: str) -> TopologicalRelation:
    """Resolve a wire predicate name to a relation (case/space tolerant)."""
    folded = name.replace(" ", "").replace("_", "").lower()
    for relation in TopologicalRelation:
        if relation.value.replace(" ", "") == folded:
            return relation
    raise WireError(
        f"unknown predicate {name!r}; choose from "
        f"{[r.value for r in TopologicalRelation]}"
    )


@dataclass(frozen=True)
class JoinRequest:
    """A validated ``POST /v1/join`` (or ``/v1/predicate``) payload.

    ``r`` and ``s`` name datasets *on the server* — index directories or
    ``.wkt``/``.geojson`` files, resolved (and confined) by the
    service's dataset root. The service never accepts inline geometry:
    heavy inputs travel once via ``build-index``, then joins reference
    them by name.
    """

    r: str
    s: str
    method: str = "P+C"
    grid_order: int = 11
    mode: str = "auto"
    predicate: str | None = None
    workers: int | None = None
    include_disjoint: bool = False

    @classmethod
    def from_dict(
        cls, payload: Mapping, *, require_predicate: bool = False
    ) -> "JoinRequest":
        """Validate a request payload (unknown fields are ignored)."""
        if not isinstance(payload, Mapping):
            raise WireError(f"request body must be a JSON object, got {payload!r}")
        method = _field(payload, "method", str, "P+C")
        if method not in JOIN_METHODS:
            raise WireError(f"unknown method {method!r}; available: {list(JOIN_METHODS)}")
        mode = _field(payload, "mode", str, "auto")
        if mode not in JOIN_MODES:
            raise WireError(f"unknown mode {mode!r}; available: {list(JOIN_MODES)}")
        grid_order = _field(payload, "grid_order", int, 11)
        if not 1 <= grid_order <= 20:
            raise WireError(f"grid_order must be in [1, 20], got {grid_order}")
        workers = _field(payload, "workers", int, None)
        if workers is not None and workers < 1:
            raise WireError(f"workers must be >= 1, got {workers}")
        predicate = _field(payload, "predicate", str, None)
        if require_predicate and predicate is None:
            raise WireError("the predicate endpoint requires a 'predicate' field")
        if predicate is not None:
            parse_predicate(predicate)  # vocabulary check; keep the raw name
        return cls(
            r=_field(payload, "r", str, None, required=True),
            s=_field(payload, "s", str, None, required=True),
            method=method,
            grid_order=grid_order,
            mode=mode,
            predicate=predicate,
            workers=workers,
            include_disjoint=_field(payload, "include_disjoint", bool, False),
        )


@dataclass(frozen=True)
class BuildIndexRequest:
    """A validated ``POST /v1/build-index`` payload."""

    data: str
    index: str
    grid_order: int = 11
    payload_codec: str = "varint"
    approximate: bool = True
    workers: int = 1

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BuildIndexRequest":
        if not isinstance(payload, Mapping):
            raise WireError(f"request body must be a JSON object, got {payload!r}")
        codec = _field(payload, "payload_codec", str, "varint")
        if codec not in PAYLOAD_CODECS:
            raise WireError(
                f"unknown payload_codec {codec!r}; available: {list(PAYLOAD_CODECS)}"
            )
        grid_order = _field(payload, "grid_order", int, 11)
        if not 1 <= grid_order <= 20:
            raise WireError(f"grid_order must be in [1, 20], got {grid_order}")
        workers = _field(payload, "workers", int, 1)
        if workers < 1:
            raise WireError(f"workers must be >= 1, got {workers}")
        return cls(
            data=_field(payload, "data", str, None, required=True),
            index=_field(payload, "index", str, None, required=True),
            grid_order=grid_order,
            payload_codec=codec,
            approximate=_field(payload, "approximate", bool, True),
            workers=workers,
        )


__all__ = [
    "API_VERSION",
    "BuildIndexRequest",
    "ERROR_REASONS",
    "JOIN_METHODS",
    "JOIN_MODES",
    "JoinRequest",
    "PAYLOAD_CODECS",
    "WireError",
    "dumps_wire",
    "error_document",
    "loads_wire",
    "parse_predicate",
    "validate_wire_run",
]
