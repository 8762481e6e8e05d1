"""Versioned JSON wire codec for the UDP runtime.

The normative shape follows the gossip-network protocol family: every
datagram is one JSON frame carrying a protocol version, a frame type, a
per-sender message id, and a TTL; receivers deduplicate on message id with
a bounded seen-set and decrement TTL before any relay. The codec is the
*only* place bytes are interpreted — layers above see Python values
(descriptors, profiles) and layers below see ``bytes``.

Design rules, enforced by tests:

- **Hostile input never crashes.** :func:`decode` raises
  :class:`~repro.errors.WireError` (and nothing else) for truncated
  frames, non-UTF-8 bytes, non-JSON text, wrong top-level type, missing
  or ill-typed header fields, unknown frame types, out-of-range TTLs,
  oversized datagrams, and protocol-version skew.
- **Values round-trip exactly.** JSON alone collapses tuples to lists,
  which would corrupt shape-coordinate profiles and
  :class:`~repro.gossip.descriptors.Provenance` tags crossing the wire.
  A tagged encoding (:func:`pack_value` / :func:`unpack_value`)
  preserves tuples, descriptors, node profiles, and provenance
  bit-for-bit — the loopback digest gate rests on this.
- **Determinism.** Message ids are ``"<src>:<seq>"`` from a per-node
  monotonic counter (:class:`MsgIdSource`), not random UUIDs, so a
  seeded swarm emits a reproducible id stream.
- **Optional trace context.** A frame may carry a ``tr`` field — a
  Lamport logical clock plus provenance tags (:func:`make_trace`),
  validated by :func:`check_trace` on decode. The field is strictly
  additive: ``WIRE_VERSION`` stays 1, frames without it decode exactly
  as before, and decoders that predate the field interoperate because
  they never look for the key.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.core.profiles import NodeProfile
from repro.errors import WireError
from repro.gossip.descriptors import Descriptor, Provenance

#: Protocol version spoken by this build. Frames carrying any other value
#: are rejected with a typed error (version-skew test).
WIRE_VERSION = 1

#: Hard ceiling on a decoded datagram; larger input is hostile by fiat.
MAX_FRAME_BYTES = 64 * 1024

#: Highest TTL a frame may carry; bounds relay storms from hostile peers.
MAX_TTL = 16

# Frame types. HELLO/GET_PEERS/PEERS_LIST implement bootstrap rendezvous,
# PING/PONG liveness, GOSSIP_REQ/GOSSIP_RESP the layer exchanges, and
# ANNOUNCE the TTL-bounded flood (membership news).
HELLO = "HELLO"
GET_PEERS = "GET_PEERS"
PEERS_LIST = "PEERS_LIST"
PING = "PING"
PONG = "PONG"
GOSSIP_REQ = "GOSSIP_REQ"
GOSSIP_RESP = "GOSSIP_RESP"
ANNOUNCE = "ANNOUNCE"

FRAME_TYPES = frozenset(
    (HELLO, GET_PEERS, PEERS_LIST, PING, PONG, GOSSIP_REQ, GOSSIP_RESP, ANNOUNCE)
)

# Tagged-value markers. A plain dict from application code could collide
# with a marker only by carrying these exact keys; encode() guards that.
_TAG_TUPLE = "__t"
_TAG_DESCRIPTOR = "__d"
_TAG_PROVENANCE = "__p"
_TAG_MAP = "__m"
_TAG_NODE_PROFILE = "__n"
_TAGS = (_TAG_TUPLE, _TAG_DESCRIPTOR, _TAG_PROVENANCE, _TAG_MAP, _TAG_NODE_PROFILE)

#: Optional trace-context field: a Lamport clock plus provenance tags.
#: Version-tolerant by construction — WIRE_VERSION stays 1, decoders that
#: predate the field simply never look for the key, and encoders attach it
#: only when tracing is enabled (zero wire-format change otherwise).
TRACE_KEY = "tr"
#: Ceiling on provenance tags one trace field may carry; bounds hostile
#: frames that try to smuggle unbounded tag lists past the size cap.
MAX_TRACE_TAGS = 256


def make_trace(clock: int, tags: Any = ()) -> Dict[str, Any]:
    """A trace-context record ready to attach as the ``tr`` frame field.

    ``clock`` is the sender's Lamport timestamp for the send event
    (:class:`repro.runtime.lamport.LamportClock`); ``tags`` the
    :class:`Provenance` records of any descriptors the frame carries.
    """
    return {"lc": int(clock), "tags": list(tags)}


def check_trace(value: Any) -> Dict[str, Any]:
    """Validate a decoded trace field; hostile shapes raise :class:`WireError`.

    Unknown extra keys are tolerated (future encoders may add fields under
    the same wire version); the known keys are strictly typed — a trace
    field is observability data, but a malformed one is still hostile
    input and must surface as a counted decode error, never a crash in
    the receive loop.
    """
    if not isinstance(value, dict):
        raise WireError(f"trace field must be a map, got {type(value).__name__!r}")
    clock = value.get("lc")
    if not isinstance(clock, int) or isinstance(clock, bool) or clock < 0:
        raise WireError(f"bad trace clock {clock!r}")
    tags = value.get("tags", [])
    if not isinstance(tags, (list, tuple)):
        raise WireError(f"trace tags must be a list, got {type(tags).__name__!r}")
    if len(tags) > MAX_TRACE_TAGS:
        raise WireError(f"trace carries {len(tags)} tags (max {MAX_TRACE_TAGS})")
    for tag in tags:
        if not isinstance(tag, Provenance):
            raise WireError(
                f"trace tag must be provenance, got {type(tag).__name__!r}"
            )
    return {"lc": clock, "tags": list(tags)}


def pack_value(value: Any) -> Any:
    """A JSON-safe encoding of ``value`` that :func:`unpack_value` inverts.

    Supports the payload vocabulary of the gossip layers: scalars, strings,
    lists, tuples, string-keyed dicts, arbitrary-keyed dicts (as tagged
    pair lists), :class:`Descriptor`, :class:`Provenance`, and
    :class:`~repro.core.profiles.NodeProfile` (a named tuple the UO layers
    test with ``isinstance``: as a plain tuple it would be dropped). Anything
    else is a programming error on the *sending* side and raises
    :class:`WireError` immediately rather than emitting garbage.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Descriptor):
        return {
            _TAG_DESCRIPTOR: [
                value.node_id,
                value.age,
                pack_value(value.profile),
                pack_value(value.provenance),
            ]
        }
    if isinstance(value, Provenance):
        return {_TAG_PROVENANCE: [value.origin, value.minted_round, value.hops]}
    if isinstance(value, NodeProfile):
        component, rank, comp_size, coord = value
        return {_TAG_NODE_PROFILE: [component, rank, comp_size, pack_value(coord)]}
    if isinstance(value, tuple):
        return {_TAG_TUPLE: [pack_value(item) for item in value]}
    if isinstance(value, list):
        return [pack_value(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and not any(
            tag in value for tag in _TAGS
        ):
            return {key: pack_value(item) for key, item in value.items()}
        return {_TAG_MAP: [[pack_value(k), pack_value(v)] for k, v in value.items()]}
    raise WireError(f"cannot encode value of type {type(value).__name__!r}")


def unpack_value(value: Any) -> Any:
    """Invert :func:`pack_value`; hostile shapes raise :class:`WireError`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [unpack_value(item) for item in value]
    if isinstance(value, dict):
        if _TAG_DESCRIPTOR in value:
            fields = value[_TAG_DESCRIPTOR]
            if not isinstance(fields, list) or len(fields) != 4:
                raise WireError("malformed descriptor tag")
            node_id, age, profile, provenance = fields
            if not isinstance(node_id, int) or not isinstance(age, int):
                raise WireError("malformed descriptor tag")
            provenance = unpack_value(provenance)
            if provenance is not None and not isinstance(provenance, Provenance):
                raise WireError("malformed descriptor provenance")
            return Descriptor(node_id, age, unpack_value(profile), provenance)
        if _TAG_PROVENANCE in value:
            fields = value[_TAG_PROVENANCE]
            if (
                not isinstance(fields, list)
                or len(fields) != 3
                or not all(isinstance(item, int) for item in fields)
            ):
                raise WireError("malformed provenance tag")
            return Provenance(*fields)
        if _TAG_TUPLE in value:
            items = value[_TAG_TUPLE]
            if not isinstance(items, list):
                raise WireError("malformed tuple tag")
            return tuple(unpack_value(item) for item in items)
        if _TAG_NODE_PROFILE in value:
            fields = value[_TAG_NODE_PROFILE]
            if not isinstance(fields, list) or len(fields) != 4:
                raise WireError("malformed node-profile tag")
            component, rank, comp_size, coord = fields
            if not isinstance(component, str) or not all(
                isinstance(item, int) and not isinstance(item, bool)
                for item in (rank, comp_size)
            ):
                raise WireError("malformed node-profile tag")
            return NodeProfile(component, rank, comp_size, unpack_value(coord))
        if _TAG_MAP in value:
            pairs = value[_TAG_MAP]
            if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in pairs
            ):
                raise WireError("malformed map tag")
            return {unpack_value(k): unpack_value(v) for k, v in pairs}
        return {key: unpack_value(item) for key, item in value.items()}
    raise WireError(f"cannot decode value of type {type(value).__name__!r}")


def make_frame(
    frame_type: str,
    src: int,
    msg_id: str,
    ttl: int = 0,
    **fields: Any,
) -> Dict[str, Any]:
    """A well-formed frame dict ready for :func:`encode`."""
    frame: Dict[str, Any] = {
        "v": WIRE_VERSION,
        "t": frame_type,
        "id": msg_id,
        "ttl": ttl,
        "src": src,
    }
    frame.update(fields)
    return frame


def encode(frame: Dict[str, Any]) -> bytes:
    """Serialize a frame to wire bytes (canonical, compact JSON)."""
    _check_header(frame)
    payload = {
        key: (pack_value(value) if key not in ("v", "t", "id", "ttl", "src") else value)
        for key, value in frame.items()
    }
    try:
        data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"unencodable frame: {exc}") from exc
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes ({len(data)})")
    return data


def decode(data: bytes) -> Dict[str, Any]:
    """Parse wire bytes into a frame dict, or raise :class:`WireError`.

    The single funnel for untrusted input: every malformation — truncation,
    bad UTF-8, bad JSON, wrong version, unknown type, hostile ids, TTL out
    of range — surfaces as a typed error, never as a stray ``KeyError`` or
    ``UnicodeDecodeError`` escaping into a receive loop.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise WireError(f"expected bytes, got {type(data).__name__!r}")
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"datagram exceeds {MAX_FRAME_BYTES} bytes ({len(data)})")
    try:
        text = bytes(data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise WireError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise WireError(f"frame must be a JSON object, got {type(raw).__name__!r}")
    _check_header(raw)
    frame: Dict[str, Any] = {}
    for key, value in raw.items():
        if key in ("v", "t", "id", "ttl", "src"):
            frame[key] = value
        else:
            frame[key] = unpack_value(value)
    if TRACE_KEY in frame:
        frame[TRACE_KEY] = check_trace(frame[TRACE_KEY])
    return frame


def _check_header(frame: Dict[str, Any]) -> None:
    version = frame.get("v")
    if version != WIRE_VERSION:
        raise WireError(
            f"protocol version skew: frame speaks {version!r}, "
            f"this build speaks {WIRE_VERSION}"
        )
    frame_type = frame.get("t")
    if frame_type not in FRAME_TYPES:
        raise WireError(f"unknown frame type {frame_type!r}")
    msg_id = frame.get("id")
    if not isinstance(msg_id, str) or not msg_id or len(msg_id) > 128:
        raise WireError(f"bad message id {msg_id!r}")
    ttl = frame.get("ttl")
    if not isinstance(ttl, int) or isinstance(ttl, bool) or not (0 <= ttl <= MAX_TTL):
        raise WireError(f"ttl out of range: {ttl!r}")
    src = frame.get("src")
    if not isinstance(src, int) or isinstance(src, bool) or src < 0:
        raise WireError(f"bad source id {src!r}")


class MsgIdSource:
    """Deterministic per-node message-id stream: ``"<src>:<seq>"``."""

    __slots__ = ("_src", "_seq")

    def __init__(self, src: int):
        self._src = int(src)
        self._seq = 0

    def next(self) -> str:
        self._seq += 1
        return f"{self._src}:{self._seq}"


class SeenSet:
    """Bounded message-id dedup set with FIFO eviction.

    ``add`` returns ``True`` for a fresh id (caller should process the
    frame) and ``False`` for a duplicate. Capacity bounds memory against
    hostile id floods; the oldest entries are evicted first, which is the
    correct bias — replays of ancient ids are harmless once their TTL
    window has passed.
    """

    __slots__ = ("_capacity", "_seen")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise WireError(f"seen-set capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._seen: "OrderedDict[str, None]" = OrderedDict()

    def add(self, msg_id: str) -> bool:
        if msg_id in self._seen:
            return False
        self._seen[msg_id] = None
        while len(self._seen) > self._capacity:
            self._seen.popitem(last=False)
        return True

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    @property
    def capacity(self) -> int:
        return self._capacity


def relay_frame(frame: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The frame to forward for a TTL-bounded flood, or ``None`` to stop.

    Decrements TTL; a frame received at TTL 0 has exhausted its budget.
    """
    ttl = frame.get("ttl", 0)
    if ttl <= 0:
        return None
    relayed = dict(frame)
    relayed["ttl"] = ttl - 1
    return relayed
