"""The serving wire protocol: JSON-lines frames over a byte stream.

Stdlib-only and deliberately small.  One frame per line (``\\n``
terminated, UTF-8 JSON object).  Requests carry ``id`` (echoed verbatim
on the response — responses may arrive out of order), ``op`` and
op-specific fields; responses are either::

    {"id": ..., "ok": true,  "result": {...}}
    {"id": ..., "ok": false, "error": {"type": "...", "message": "..."}}

``error.type`` is the exception class name (``AdmissionRejected``,
``QueryBudgetExceeded``, ``NodeNotFoundError``, ``UnknownTenantError``,
``ProtocolError``, ...), so clients can switch on it without parsing
messages.  The full frame reference lives in ``docs/serving_protocol.md``.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.exceptions import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "jsonable",
    "result_frame",
]

#: Upper bound on one request frame, its newline not counted (longer lines
#: are refused with a :class:`ProtocolError` instead of buffering without
#: limit).
MAX_FRAME_BYTES = 1 << 20

#: Member types :func:`jsonable` returns as they are (``jsonable(x) is x``).
_JSON_SCALARS = frozenset((bool, int, float, str, type(None)))


def jsonable(value: Any) -> Any:
    """Recursively convert a result value into JSON-encodable form.

    Sets (audiences) become **sorted** lists so frames are deterministic;
    tuples become lists; mapping keys are stringified.  Anything already
    JSON-native passes through; other objects fall back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        if _JSON_SCALARS.issuperset(map(type, value)):
            # Every member is its own jsonable() form: skip the walk.
            return sorted(value, key=repr)
        return sorted((jsonable(item) for item in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return str(value)


#: Compact, key-sorted, and calling :func:`jsonable` only for what JSON has
#: no form for (sets, arbitrary objects); everything else it encodes in C.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, check_circular=False, default=jsonable
)


_NESTED = (dict, list, tuple)


def _require_string_keys(value: Any) -> None:
    """Raise ``TypeError`` on any dict key in ``value`` that is not a str."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key.__class__ is not str:
                raise TypeError(f"frame keys must be strings, not {key!r}")
            if isinstance(item, _NESTED):
                _require_string_keys(item)
    else:
        for item in value:
            if isinstance(item, _NESTED):
                _require_string_keys(item)


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialize one frame to its wire form (compact JSON + newline).

    The bytes are those of ``json.dumps(jsonable(frame), separators=(",",
    ":"), sort_keys=True)``, without walking the frame to build a copy.
    The one input where the two would differ is a dict with a key that is
    not a string: ``jsonable`` stringified it (``True`` -> ``"True"``,
    numbers sorted as text), JSON spells and sorts it its own way.  Every
    frame the server builds has string keys only — JSON-decoded request
    ids included — so such a key is a bug, and it raises ``TypeError``.
    """
    _require_string_keys(frame)
    return (_ENCODER.encode(frame) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a frame dict, or raise ProtocolError."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        frame = json.loads(text)
    except ValueError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    return frame


def result_frame(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """Build the success response for one request id."""
    return {"id": request_id, "ok": True, "result": result}


def error_frame(request_id: Any, error: BaseException) -> Dict[str, Any]:
    """Build the structured error response for one request id."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }
