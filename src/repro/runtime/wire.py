"""Versioned JSON wire codec for the UDP runtime.

Every datagram is one JSON frame carrying a protocol version, a frame
type, a per-sender message id and the sender's node id; receivers
deduplicate on message id with a bounded seen-set. Nothing is relayed:
each frame travels one hop, from its sender to its addressee. The codec is
the *only* place bytes are interpreted — layers above see Python values
(descriptors, profiles) and layers below see ``bytes``.

Design rules, enforced by tests:

- **Hostile input never crashes.** :func:`decode` raises
  :class:`~repro.errors.WireError` (and nothing else) for truncated
  frames, non-UTF-8 bytes, non-JSON text, wrong top-level type, missing
  or ill-typed header fields, unknown frame types, oversized datagrams,
  malformed tags, and protocol-version skew.
- **Values round-trip exactly.** JSON alone collapses tuples to lists,
  which would corrupt shape-coordinate profiles crossing the wire. A
  tagged encoding (:func:`pack_value`, undone inside the parse by
  :func:`decode`) preserves tuples, descriptors and node profiles
  bit-for-bit — the loopback digest gate rests on this.
- **A descriptor is one row.** ``[id, age, profile, minted_round]`` with
  trailing nulls dropped (``[72,0]``, ``[72,0,[7,2]]``); in the profile
  slot a bare array is a tuple, so a list-valued profile is refused at
  encode. A list made only of descriptors — every gossip buffer — ships
  as one table, ``{"__D":[row, …]}``; a lone descriptor as ``{"__d":row}``.
- **Determinism.** Message ids are ``"<src>:<seq>"`` from a per-node
  monotonic counter (:class:`MsgIdSource`), not random UUIDs, so a
  seeded swarm emits a reproducible id stream.
- **Optional trace context.** A frame may carry a ``tr`` field — a
  Lamport logical clock (:func:`make_trace`), validated by
  :func:`check_trace` on decode. The field is strictly additive: frames
  without it decode exactly as before, and decoders that predate the
  field interoperate because they never look for the key.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from json.decoder import WHITESPACE
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, List, Optional

from repro.core.profiles import NodeProfile
from repro.errors import WireError
from repro.gossip.descriptors import Descriptor

#: Protocol version spoken by this build. Frames carrying any other value
#: are rejected with a typed error (version-skew test). Version 2 dropped
#: the ``ttl`` header key, which every version-1 decoder requires; version
#: 3 made descriptors rows and added the ``__D`` table, which a version-2
#: decoder would take for a plain map.
WIRE_VERSION = 3

#: Hard ceiling on a decoded datagram; larger input is hostile by fiat.
MAX_FRAME_BYTES = 64 * 1024

# Frame types. HELLO/PEERS_LIST implement the bootstrap rendezvous (the
# one membership path), PING/PONG liveness, GOSSIP_REQ/GOSSIP_RESP the
# layer exchanges.
HELLO = "HELLO"
PEERS_LIST = "PEERS_LIST"
PING = "PING"
PONG = "PONG"
GOSSIP_REQ = "GOSSIP_REQ"
GOSSIP_RESP = "GOSSIP_RESP"

FRAME_TYPES = frozenset((HELLO, PEERS_LIST, PING, PONG, GOSSIP_REQ, GOSSIP_RESP))

# Tagged-value markers. A plain dict from application code could collide
# with a marker only by carrying these exact keys; encode() guards that.
_TAG_TUPLE = "__t"
_TAG_DESCRIPTOR = "__d"
_TAG_TABLE = "__D"
_TAG_MAP = "__m"
_TAG_NODE_PROFILE = "__n"
#: Marker -> what a decode error calls it.
_TAGS = {
    _TAG_TUPLE: "tuple",
    _TAG_DESCRIPTOR: "descriptor",
    _TAG_TABLE: "descriptor-table",
    _TAG_MAP: "map",
    _TAG_NODE_PROFILE: "node-profile",
}

#: Optional trace-context field: the sender's Lamport clock.
#: Version-tolerant by construction — decoders that predate the field
#: simply never look for the key, and encoders attach it only when tracing
#: is enabled (zero wire-format change otherwise).
TRACE_KEY = "tr"


def make_trace(clock: int) -> Dict[str, Any]:
    """A trace-context record ready to attach as the ``tr`` frame field.

    ``clock`` is the sender's Lamport timestamp for the send event
    (:class:`repro.runtime.lamport.LamportClock`).
    """
    return {"lc": int(clock)}


def check_trace(value: Any) -> Dict[str, Any]:
    """Validate a decoded trace field; hostile shapes raise :class:`WireError`.

    Unknown extra keys are tolerated and dropped (future encoders may add
    fields under the same wire version, and older ones shipped a ``tags``
    list nobody read); the clock is strictly typed — a trace field is
    observability data, but a malformed one is still hostile input and
    must surface as a counted decode error, never a crash in the receive
    loop.
    """
    if not isinstance(value, dict):
        raise WireError(f"trace field must be a map, got {type(value).__name__!r}")
    clock = value.get("lc")
    if not isinstance(clock, int) or isinstance(clock, bool) or clock < 0:
        raise WireError(f"bad trace clock {clock!r}")
    return {"lc": clock}


_SCALARS = frozenset((type(None), bool, int, float, str))
_HEADER = frozenset(("v", "t", "id", "src"))
_new = tuple.__new__


def _pack_rows(items: Any) -> Optional[List[list]]:
    """One ``[id, age, profile, minted_round]`` row per descriptor, in one loop.

    Trailing nulls are dropped; a tuple of scalars (a coordinate, the
    common profile) becomes a bare array with one ``list`` call, and only a
    nested value goes through :func:`pack_value`. Returns ``None`` at the
    first item that is not exactly a :class:`Descriptor`.
    """
    rows = []
    append = rows.append
    for item in items:
        if type(item) is not Descriptor:
            return None
        node_id, age, profile, minted_round = item
        kind = type(profile)
        if kind is tuple:
            for field in profile:
                if type(field) not in _SCALARS:
                    profile = _pack_items(profile)
                    break
            else:
                profile = list(profile)
        elif kind not in _SCALARS:
            if isinstance(profile, list):  # a bare array already means a tuple
                raise WireError("a descriptor profile cannot be a list")
            profile = pack_value(profile)
        if minted_round is None:
            append([node_id, age] if profile is None else [node_id, age, profile])
        elif type(minted_round) is int and minted_round >= 0:
            append([node_id, age, profile, minted_round])
        else:
            raise WireError(f"descriptor tag must be a round, got {minted_round!r}")
    return rows


def _pack_items(items: Any) -> list:
    return [item if type(item) in _SCALARS else pack_value(item) for item in items]


def _pack_list(value: list) -> Any:
    """A list of nothing but descriptors is one table; any other, item by item."""
    rows = _pack_rows(value)
    if rows is None:
        return _pack_items(value)
    return {_TAG_TABLE: rows} if rows else rows


def _pack_dict(value: dict) -> Any:
    if all(isinstance(key, str) for key in value) and _TAGS.keys().isdisjoint(value):
        return {key: pack_value(item) for key, item in value.items()}
    return {_TAG_MAP: [_pack_items(pair) for pair in value.items()]}


_PACKERS = {
    # A subclass reaches this packer too, and the row loop takes exact types.
    Descriptor: lambda value: {_TAG_DESCRIPTOR: _pack_rows([_new(Descriptor, value)])[0]},
    NodeProfile: lambda value: {_TAG_NODE_PROFILE: _pack_items(value)},
    tuple: lambda value: {_TAG_TUPLE: _pack_items(value)},
    list: _pack_list,
    dict: _pack_dict,
}


def pack_value(value: Any) -> Any:
    """A JSON-safe encoding of ``value`` that :func:`decode` inverts.

    Supports the payload vocabulary of the gossip layers: scalars, strings,
    lists, tuples, string-keyed dicts, arbitrary-keyed dicts (as tagged
    pair lists), :class:`Descriptor` (a list of nothing else packs as one
    table), and :class:`~repro.core.profiles.NodeProfile` (a named tuple
    the UO layers test with ``isinstance``: as a plain tuple it would be
    dropped). Anything else is a programming error on the *sending* side
    and raises :class:`WireError` immediately rather than emitting garbage.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    for base in kind.__mro__:  # exact type first, then the nearest known base
        packer = _PACKERS.get(base)
        if packer is not None:
            return packer(value)
        if base in _SCALARS:  # an IntEnum, a str subclass: JSON's business
            return value
    raise WireError(f"cannot encode value of type {kind.__name__!r}")


def _unpack_row(row: Any) -> Descriptor:
    """One descriptor row, checked: the inverse of :func:`_pack_rows`."""
    if type(row) is list:
        size = len(row)
        if size == 2:
            node_id, age = row
            profile = minted_round = None
        elif size == 3:
            node_id, age, profile = row
            minted_round = None
        elif size == 4:
            node_id, age, profile, minted_round = row
        else:
            raise WireError("malformed descriptor tag")
        if (
            type(node_id) is int
            and type(age) is int
            and node_id >= 0
            and age >= 0
            and (minted_round is None or (type(minted_round) is int and minted_round >= 0))
        ):
            if type(profile) is list:  # a bare array in the profile slot
                profile = tuple(profile)
            return _new(Descriptor, (node_id, age, profile, minted_round))
    raise WireError("malformed descriptor tag")


def _rebuild(obj: Dict[str, Any]) -> Any:
    """The parser's ``object_hook``: every JSON object, innermost first.

    By the time an object arrives its members are already rebuilt, so a
    tagged object is checked and replaced on the spot — exact types (a bool
    is neither an id nor a round), no negative id, age or minted round, a
    row of two to four fields, a non-empty table, and a tag is its object's
    only key — and :func:`decode` never walks the parsed tree again.
    """
    if len(obj) != 1:
        if _TAGS.keys().isdisjoint(obj):
            return obj
        raise WireError("tagged object carries other keys")
    (tag,) = obj
    if tag not in _TAGS:
        return obj
    fields = obj[tag]
    if type(fields) is list:
        if tag == _TAG_TABLE:
            if fields:
                return [_unpack_row(row) for row in fields]
        elif tag == _TAG_DESCRIPTOR:
            return _unpack_row(fields)
        elif tag == _TAG_TUPLE:
            return tuple(fields)
        elif tag == _TAG_NODE_PROFILE:
            if len(fields) == 4 and [type(n) for n in fields[:3]] == [str, int, int]:
                return _new(NodeProfile, fields)
        elif all(type(pair) is list and len(pair) == 2 for pair in fields):
            try:
                return dict(fields)
            except TypeError:  # a list or a map as a key
                pass
    raise WireError(f"malformed {_TAGS[tag]} tag")


# ``pack_value`` builds a fresh tree, so the encoder's cycle check is dead work.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
#: The C encoder ``_ENCODER.encode`` builds on every call (same arguments, as
#: ``JSONEncoder.iterencode`` passes them), built once; ``None`` on an
#: interpreter without the ``_json`` accelerator, which keeps ``_ENCODER``.
_C_ENCODE = (
    None
    if c_make_encoder is None
    else c_make_encoder(
        None,  # no cycle markers: check_circular=False
        _ENCODER.default,
        encode_basestring_ascii,
        _ENCODER.indent,
        _ENCODER.key_separator,
        _ENCODER.item_separator,
        _ENCODER.sort_keys,
        _ENCODER.skipkeys,
        _ENCODER.allow_nan,
    )
)
_DECODER = json.JSONDecoder(object_hook=_rebuild)
_SCAN = _DECODER.scan_once
_SKIP_SPACE = WHITESPACE.match


def make_frame(frame_type: str, src: int, msg_id: str, **fields: Any) -> Dict[str, Any]:
    """A well-formed frame dict ready for :func:`encode`."""
    return {"v": WIRE_VERSION, "t": frame_type, "id": msg_id, "src": src, **fields}


def encode(frame: Dict[str, Any]) -> bytes:
    """Serialize a frame to wire bytes (canonical, compact JSON)."""
    _check_header(frame)
    payload = {
        key: value if key in _HEADER or type(value) in _SCALARS else pack_value(value)
        for key, value in frame.items()
    }
    try:
        if _C_ENCODE is None:
            text = _ENCODER.encode(payload)
        else:
            text = "".join(_C_ENCODE(payload, 0))
    except (TypeError, ValueError) as exc:
        raise WireError(f"unencodable frame: {exc}") from exc
    data = text.encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes ({len(data)})")
    return data


def decode(data: bytes) -> Dict[str, Any]:
    """Parse wire bytes into a frame dict, or raise :class:`WireError`.

    The single funnel for untrusted input: every malformation — truncation,
    bad UTF-8, bad JSON, a malformed tag, wrong version, unknown type,
    hostile ids — surfaces as a typed error, never as a
    stray ``KeyError`` or ``UnicodeDecodeError`` escaping into a receive
    loop. One pass: tags are rebuilt while the text is parsed
    (:func:`_rebuild`).
    """
    if not isinstance(data, (bytes, bytearray)):
        raise WireError(f"expected bytes, got {type(data).__name__!r}")
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"datagram exceeds {MAX_FRAME_BYTES} bytes ({len(data)})")
    try:
        text = str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"frame is not valid UTF-8: {exc}") from exc
    # ``_DECODER.decode`` without its two Python frames: skip leading
    # space, scan one value, refuse anything but space after it.
    try:
        frame, end = _SCAN(text, _SKIP_SPACE(text, 0).end())
    except StopIteration as exc:  # no value where one must start
        raise WireError(f"frame is not valid JSON: expecting value at {exc.value}") from None
    except (ValueError, RecursionError) as exc:  # the latter: hostile nesting
        raise WireError(f"frame is not valid JSON: {exc}") from exc
    if _SKIP_SPACE(text, end).end() != len(text):
        raise WireError(f"frame is not valid JSON: extra data at {end}")
    if type(frame) is not dict:
        raise WireError(f"frame must be a JSON object, got {type(frame).__name__!r}")
    _check_header(frame)
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
    frame) and ``False`` for a duplicate. Its reason is the one frame type
    that is not idempotent: a replayed or duplicated ``GOSSIP_REQ`` would
    run the layer's ``on_request`` twice and merge the same view twice.
    Every other frame is safe to repeat (``HELLO`` re-registers a known
    peer, ``PEERS_LIST`` re-adds known rows). Capacity bounds memory
    against hostile id floods; the oldest entries are evicted first, which
    is the correct bias — a replay that old re-runs one stale passive
    exchange, which every layer already tolerates.
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

