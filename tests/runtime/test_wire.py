"""Wire-codec hardening: round-trip exactness and hostile-input behavior."""

from __future__ import annotations

import collections
import enum
import json
from pathlib import Path

import pytest

from repro.core.profiles import NodeProfile
from repro.errors import WireError
from repro.gossip.descriptors import Descriptor
from repro.runtime import wire

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


def roundtrip(payload):
    frame = wire.make_frame(wire.GOSSIP_REQ, src=3, msg_id="3:1", payload=payload)
    return wire.decode(wire.encode(frame))["payload"]


def same(a, b):
    """Equal values of equal types, all the way down.

    ``==`` alone would pass a list for a tuple's place only by accident of
    nesting, and passes any two descriptors of one node and age: this
    compares all four fields, and the types of a map's keys.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):  # the encoder sorts string keys: order is not kept
        return same(sorted(a.items(), key=repr), sorted(b.items(), key=repr))
    return a == b


def corpus_frames():
    """The frames whose bytes ``wire_frames.json`` pins, by name."""
    ring = lambda name, rank: NodeProfile(name, rank, 8, rank)  # noqa: E731
    frames = {
        "hello": wire.make_frame(wire.HELLO, 4, "4:1", host="127.0.0.1", port=9004),
        "peers_list": wire.make_frame(
            wire.PEERS_LIST, 0, "0:7", peers=[[1, "127.0.0.1", 9001], [0, "::1", 9000]]
        ),
        "ping": wire.make_frame(wire.PING, 2, "2:40"),
        "pong": wire.make_frame(wire.PONG, 3, "3:41"),
        "peer_sampling_req": wire.make_frame(
            wire.GOSSIP_REQ, 72, "72:1", layer="peer_sampling", profile=None,
            payload=[Descriptor(72), Descriptor(86, 1), Descriptor(8, 12)],
        ),
        "peer_sampling_resp": wire.make_frame(
            wire.GOSSIP_RESP, 4, "4:1", re="72:1", layer="peer_sampling",
            payload=[Descriptor(4), Descriptor(72)],
        ),
        "vicinity_grid_req": wire.make_frame(
            wire.GOSSIP_REQ, 72, "72:2", layer="overlay", profile=(7, 2),
            payload=[Descriptor(72, 0, (7, 2)), Descriptor(83, 3, (8, 3))],
        ),
        "vicinity_ring_resp": wire.make_frame(
            wire.GOSSIP_RESP, 81, "81:1", layer="overlay",
            payload=[Descriptor(62, 0, 0.625), Descriptor(5, 1, 0.05)],
        ),
        "uo1_req_have_digest": wire.make_frame(
            wire.GOSSIP_REQ, 0, "0:1", layer="uo1", profile=(3, 5, 2, 1, 4, 6, 7),
            payload=[Descriptor(0, 0, ring("ring0", 0)), Descriptor(5, 2, ring("ring0", 5))],
        ),
        "uo1_resp_advert_alone": wire.make_frame(
            wire.GOSSIP_RESP, 1, "1:1", layer="uo1",
            payload=[Descriptor(1, 0, ring("ring0", 1))],
        ),
        "uo2_req_have_digest": wire.make_frame(
            wire.GOSSIP_REQ, 0, "0:2", layer="uo2", profile=("ring1", "ring2", "ring3"),
            payload=[
                Descriptor(0, 0, ring("ring0", 0)),
                Descriptor(25, 0, NodeProfile("grid3", 1, 9, (0, 1))),
            ],
        ),
        "uo2_req_empty_digest": wire.make_frame(
            wire.GOSSIP_REQ, 0, "0:3", layer="uo2", profile=(), payload=[]
        ),
        "provenance_tagged": wire.make_frame(
            wire.GOSSIP_RESP, 9, "9:5", layer="overlay",
            payload=[Descriptor(9, 4, (1.0, 2.0), 3), Descriptor(3, 0, None, 0)],
        ),
        "traced": wire.make_frame(
            wire.GOSSIP_REQ, 2, "2:1", layer="peer_sampling", profile=None,
            payload=[Descriptor(2, 0, None, 7)],
        ),
        "values": wire.make_frame(
            wire.GOSSIP_REQ, 1, "1:9",
            payload={
                "nested": (1, (2.5, ("x", ())), [None, True, (False,)]),
                "map": {(0, 1): "a", 7: [Descriptor(1, 1)], "k": -3},
                "mixed": [Descriptor(2, 0, (1, 2), 4), "x"],
                "tag_named_key": {"__t": [1], "plain": 2},
                "text": "caf\u00e9 \u2603 \"quoted\" \\ \n",
                "numbers": [0, -7, 2**40, 3.5, -0.0, 1e-07, 1e22],
                "empty": [{}, [], ()],
            },
        ),
    }
    frames["traced"][wire.TRACE_KEY] = wire.make_trace(31)
    return frames


CORPUS = json.loads(Path(__file__).with_name("wire_frames.json").read_text("utf-8"))


class TestPinnedBytes:
    """``wire_frames.json`` holds the bytes the two-pass codec emitted for
    :func:`corpus_frames`: the codec may get faster, the wire may not move.
    Two frames were re-pinned since, when the flow tag became one integer
    (``provenance_tagged``) and the trace field stopped repeating the payload's
    tags (``traced``). Wire version 2 then re-pinned every frame: each lost its
    ``"ttl":0,`` bytes, and ``ANNOUNCE`` / ``GET_PEERS`` left the corpus with
    their frame types. Wire version 3 re-pinned every frame once more: a
    descriptor became one row and a list of them one ``__D`` table, and the
    ``values`` frame gained a mixed list so the lone ``__d`` tag stays pinned."""

    def test_corpus_covers_every_frame_type_and_tag(self):
        assert sorted(CORPUS) == sorted(corpus_frames())
        assert wire.WIRE_VERSION == 3
        assert wire.FRAME_TYPES == {
            "HELLO", "PEERS_LIST", "PING", "PONG", "GOSSIP_REQ", "GOSSIP_RESP"
        }
        assert {frame["t"] for frame in corpus_frames().values()} == wire.FRAME_TYPES
        for marker in ('"__d"', '"__D"', '"__t"', '"__n"', '"__m"', '"tr"'):
            assert any(marker in text for text in CORPUS.values()), marker

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_encode_reproduces_the_pinned_bytes(self, name):
        """Through the cached C encoder (every CI interpreter has ``_json``)."""
        assert wire._C_ENCODE is not None
        assert wire.encode(corpus_frames()[name]) == CORPUS[name].encode("utf-8")

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_stdlib_encoder_reproduces_the_pinned_bytes(self, name, monkeypatch):
        """Through the stdlib ``JSONEncoder``, the path of an interpreter
        without the ``_json`` accelerator: the same bytes."""
        monkeypatch.setattr(wire, "_C_ENCODE", None)
        assert wire.encode(corpus_frames()[name]) == CORPUS[name].encode("utf-8")

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_decode_restores_values_and_types(self, name):
        """The direct ``scan_once`` call restores the frame, and parses it
        exactly as the stdlib ``JSONDecoder.decode`` it replaces."""
        frame = corpus_frames()[name]
        decoded = wire.decode(CORPUS[name].encode("utf-8"))
        assert same(decoded, frame)
        assert same(decoded, wire._DECODER.decode(CORPUS[name]))


class TestValueRoundTrip:
    def test_scalars(self):
        for value in (None, True, False, 0, -7, 3.5, "text", ""):
            assert roundtrip(value) == value

    def test_tuple_survives_as_tuple(self):
        value = (1, 2, (3, "x"))
        out = roundtrip(value)
        assert out == value
        assert isinstance(out, tuple)
        assert isinstance(out[2], tuple)

    def test_list_stays_list(self):
        out = roundtrip([1, (2, 3)])
        assert isinstance(out, list)
        assert isinstance(out[1], tuple)

    def test_descriptor_bit_for_bit(self):
        descriptor = Descriptor(9, age=4, profile=(1.0, 2.0), provenance=3)
        out = roundtrip(descriptor)
        assert isinstance(out, Descriptor)
        assert out.node_id == 9 and out.age == 4
        assert out.profile == (1.0, 2.0) and isinstance(out.profile, tuple)
        assert out.provenance == 3 and type(out.provenance) is int

    def test_descriptor_without_provenance(self):
        out = roundtrip(Descriptor(1, age=0, profile=None))
        assert isinstance(out, Descriptor)
        assert out.provenance is None

    def test_non_string_key_map(self):
        value = {(0, 1): "a", 7: "b"}
        out = roundtrip(value)
        assert out == value
        assert set(map(type, out)) == {tuple, int}

    def test_string_key_map_plain(self):
        assert roundtrip({"a": [1], "b": (2,)}) == {"a": [1], "b": (2,)}

    def test_descriptor_list_payload(self):
        payload = [Descriptor(i, age=i, profile=(float(i),)) for i in range(5)]
        out = roundtrip(payload)
        assert [d.node_id for d in out] == list(range(5))

    def test_subclasses_pack_as_their_nearest_base(self):
        """Dispatch is on the exact type; a subclass still crosses, as before."""

        class Pair(collections.namedtuple("Pair", "a b")):
            pass

        class Level(enum.IntEnum):
            HIGH = 3

        class Name(str):
            pass

        payload = [Level.HIGH, Name("x"), Pair(1, (2,)), collections.OrderedDict(a=1)]
        frame = wire.make_frame(wire.PING, 1, "1:1", payload=payload)
        assert wire.encode(frame) == (
            b'{"id":"1:1","payload":[3,"x",{"__t":[1,{"__t":[2]}]},{"a":1}],'
            b'"src":1,"t":"PING","v":3}'
        )
        assert same(roundtrip(payload), [3, "x", (1, (2,)), {"a": 1}])

    def test_descriptor_lists_pack_as_one_table(self):
        """Rows drop trailing nulls; a bare array in the profile slot is a
        tuple; a list of nothing but descriptors is one ``__D`` table."""
        rows = [Descriptor(72), Descriptor(83, 3, (8, 3)), Descriptor(5, 1, None, 0)]
        assert wire.pack_value(rows) == {"__D": [[72, 0], [83, 3, [8, 3]], [5, 1, None, 0]]}
        assert same(roundtrip(rows), rows)
        assert wire.pack_value([]) == []

    def test_mixed_list_keeps_per_item_tags(self):
        payload = [Descriptor(1), 2, [Descriptor(3, 0, 0.5)], (Descriptor(4),)]
        assert wire.pack_value(payload) == [
            {"__d": [1, 0]},
            2,
            {"__D": [[3, 0, 0.5]]},
            {"__t": [{"__d": [4, 0]}]},
        ]
        assert same(roundtrip(payload), payload)

    def test_list_profile_is_refused_on_send(self):
        """In a row, a bare array is a tuple: a list would come back as one."""
        for payload in (
            [Descriptor(1, 0, [1, 2])],
            Descriptor(1, 0, []),
            [Descriptor(1), 2, Descriptor(3, 0, [0])],
        ):
            with pytest.raises(WireError, match="profile cannot be a list"):
                roundtrip(payload)

    def test_unencodable_value_raises_on_send(self):
        with pytest.raises(WireError):
            roundtrip(object())

    def test_unencodable_set_raises_on_send(self):
        with pytest.raises(WireError):
            roundtrip({1, 2})


HEADER = {"v": wire.WIRE_VERSION, "t": wire.GOSSIP_REQ, "id": "1:1", "src": 1}

if HAVE_HYPOTHESIS:
    finite = st.floats(allow_nan=False, allow_infinity=False)
    profiles = (
        st.none()
        | finite
        | st.tuples(finite)
        | st.tuples(st.integers(0, 99), st.integers(0, 99))
        | st.builds(
            NodeProfile,
            st.text(max_size=8),
            st.integers(0, 500),
            st.integers(1, 500),
            st.integers(0, 500) | st.tuples(st.integers(0, 30), st.integers(0, 30)),
        )
    )
    payloads = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**31), max_value=2**31)
        | finite
        | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
        | st.dictionaries(st.integers(0, 9) | st.tuples(st.integers(0, 9)), children, max_size=3)
        | st.builds(
            Descriptor,
            st.integers(min_value=0, max_value=10_000),
            age=st.integers(min_value=0, max_value=64),
            profile=profiles,
            provenance=st.none() | st.integers(min_value=0, max_value=500),
        ),
        max_leaves=12,
    )

    @given(payloads)
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_roundtrip(payload):
        assert same(roundtrip(payload), payload)

    @given(st.binary(max_size=256))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_hostile_bytes_never_crash(data):
        try:
            wire.decode(data)
        except WireError:
            pass  # the only allowed failure mode

    # Random bytes die in the JSON parser and never reach a tag branch. This
    # soup always parses and always carries a valid header: objects keyed by
    # the tags (alone, together, beside plain keys) over field lists of every
    # arity and maps of near-pairs, holding scalars of every type and, by
    # recursion, other tagged objects where a scalar belongs — the flow-tag
    # slot of an otherwise well-formed descriptor included — and descriptor
    # tables of empty, short, long and non-list rows.
    soup_keys = st.sampled_from(["__d", "__D", "__t", "__n", "__m", "x"])
    soup = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-3, max_value=2**33)
        | finite
        | st.text(max_size=4),
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(soup_keys, children, max_size=2)
        | st.dictionaries(soup_keys, st.lists(children, min_size=2, max_size=4), max_size=1)
        | st.fixed_dictionaries(
            {"__m": st.lists(st.lists(children, min_size=1, max_size=3), max_size=3)}
        )
        | st.fixed_dictionaries(
            {"__d": st.tuples(st.integers(0, 9), st.integers(0, 9), st.none(), children).map(list)}
        )
        | st.fixed_dictionaries(
            {"__D": st.lists(st.lists(children, max_size=5), max_size=3)}
        ),
        max_leaves=14,
    )

    @given(st.sampled_from(["payload", "profile", "peers", wire.TRACE_KEY, "id"]), soup)
    @settings(max_examples=400, deadline=None)
    def test_hypothesis_hostile_tag_soup_never_crashes(field, value):
        data = json.dumps({**HEADER, field: value}).encode("utf-8")
        try:
            frame = wire.decode(data)
        except WireError:
            return  # the only allowed failure mode
        # What the decoder lets through, the encoder can say again, unchanged.
        assert same(wire.decode(wire.encode(frame)), frame)


class TestHostileDecode:
    def ok_frame(self, **overrides):
        frame = {"v": wire.WIRE_VERSION, "t": wire.PING, "id": "1:1", "src": 1}
        frame.update(overrides)
        return json.dumps(frame).encode("utf-8")

    def test_truncated(self):
        with pytest.raises(WireError):
            wire.decode(self.ok_frame()[:-4])

    def test_not_utf8(self):
        with pytest.raises(WireError):
            wire.decode(b"\xff\xfe\x00")

    def test_not_json(self):
        with pytest.raises(WireError):
            wire.decode(b"not json at all")

    def test_not_an_object(self):
        with pytest.raises(WireError):
            wire.decode(b"[1, 2, 3]")

    def test_version_skew(self):
        # 1 is the version that still carried a ``ttl`` header key, 2 the one
        # whose descriptors were objects and that had no ``__D`` table.
        for version in (1, 2, wire.WIRE_VERSION + 1):
            with pytest.raises(WireError, match="version skew"):
                wire.decode(self.ok_frame(v=version))

    def test_missing_version(self):
        frame = json.loads(self.ok_frame())
        del frame["v"]
        with pytest.raises(WireError, match="version skew"):
            wire.decode(json.dumps(frame).encode("utf-8"))

    def test_unknown_type(self):
        # ANNOUNCE and GET_PEERS were frame types of wire version 1.
        for frame_type in ("EVIL", "ANNOUNCE", "GET_PEERS"):
            with pytest.raises(WireError, match="unknown frame type"):
                wire.decode(self.ok_frame(t=frame_type))

    def test_bad_msg_id(self):
        for bad in ("", 7, None, "x" * 200):
            with pytest.raises(WireError, match="message id"):
                wire.decode(self.ok_frame(id=bad))

    def test_bad_src(self):
        for bad in (-1, "3", None, True):
            with pytest.raises(WireError, match="source"):
                wire.decode(self.ok_frame(src=bad))

    def test_oversized_datagram(self):
        with pytest.raises(WireError, match="exceeds"):
            wire.decode(b" " * (wire.MAX_FRAME_BYTES + 1))

    def test_oversized_frame_rejected_on_encode(self):
        frame = wire.make_frame(
            wire.GOSSIP_REQ, src=1, msg_id="1:1", payload="x" * wire.MAX_FRAME_BYTES
        )
        with pytest.raises(WireError, match="exceeds"):
            wire.encode(frame)

    def test_malformed_tag_payloads(self):
        for tag_value in ({"__d": [1]}, {"__n": "x"}, {"__t": 3}, {"__m": [[1]]}):
            hostile = self.ok_frame(payload=tag_value)
            with pytest.raises(WireError):
                wire.decode(hostile)

    def test_unhashable_map_key(self):
        """``dict()`` over hostile pairs used to raise ``TypeError`` into the
        receive loop; the datagram below is the one from the bug report."""
        with pytest.raises(WireError, match="malformed map tag"):
            wire.decode(
                b'{"id":"1:1","payload":{"__m":[[[1],2]]},"src":1,'
                b'"t":"GOSSIP_REQ","v":3}'
            )
        for key in ([1], {"a": 1}, {"__m": []}, [[]]):
            with pytest.raises(WireError, match="malformed map tag"):
                wire.decode(self.ok_frame(payload={"__m": [[key, 2]]}))
        assert wire.decode(self.ok_frame(payload={"__m": [[{"__t": [1]}, 2]]}))[
            "payload"
        ] == {(1,): 2}

    @pytest.mark.parametrize(
        "hostile",
        [
            {"__d": [True, False, None, None]},  # bools are not ids or ages
            {"__d": [1, True, None, None]},
            {"__d": [-5, 0, None, None]},
            {"__d": [5, -3, None, None]},
            {"__d": [1.0, 0, None, None]},
            {"__d": [1, 0, None, [1, 2, 3]]},  # the flow tag is one bare round
            {"__d": [1, 0, None, {"__t": [1, 2, 3]}]},
            {"__d": {"__t": [1, 0, None, None]}},  # fields come as a list
            {"__d": []},  # arity: a row has two to four fields
            {"__d": [1, 0, None, None, None]},
            {"__n": ["ring", 0, 8]},
            {"__n": ["ring", 0, True, 0]},
            {"__t": {"a": 1}},
            {"__n": ["ring", True, 8, 0]},
            {"__n": [7, 0, 8, 0]},
            {"__d": [1, 2, None, None], "x": 1},  # a tag is the only key
            {"__t": [1], "__m": []},
            {"x": 1, "__n": ["ring", 0, 8, 0]},
            {"__m": [{"__t": [1, 2]}]},  # a pair is a list, not a tuple
            {"__D": [[]]},  # a table row has two to four fields too
            {"__D": [[1]]},
            {"__D": [[1, 0, None, None, None]]},
            {"__D": [[1, 0], [True, 0]]},  # one bad row spoils the table
            {"__D": [[1, -1]]},
            {"__D": [[1, 0], 7]},  # a row is a list
            {"__D": [{"__t": [1, 0]}]},
            {"__D": []},  # a table is non-empty
            {"__D": 3},  # and a list
            {"__D": [[1, 0]], "x": 1},  # a tag is the only key
        ],
    )
    def test_strict_tags(self, hostile):
        for field in ("payload", "profile"):
            for value in (hostile, [hostile], {"k": hostile}, {"__t": [hostile]}):
                with pytest.raises(WireError):
                    wire.decode(self.ok_frame(**{field: value}))

    def test_hostile_nesting(self):
        """The parser's recursion limit is a decode error like any other."""
        for opener, closer in ((b"[", b"]"), (b'{"__t":[', b"]}"), (b'{"a":', b"}")):
            deep = opener * 3_000 + b"1" + closer * 3_000
            with pytest.raises(WireError):
                wire.decode(self.ok_frame()[:-1] + b',"payload":' + deep + b"}")
            with pytest.raises(WireError):
                wire.decode(opener * 3_000)

    def test_non_bytes_input(self):
        with pytest.raises(WireError):
            wire.decode("a string")  # type: ignore[arg-type]


class TestTraceField:
    """Version-tolerant trace context: optional, validated, interoperable."""

    def encode_with_trace(self, trace, payload=(1,)):
        frame = wire.make_frame(wire.GOSSIP_REQ, src=2, msg_id="2:1", payload=list(payload))
        frame[wire.TRACE_KEY] = trace
        return wire.encode(frame)

    def test_round_trip_with_trace(self):
        out = wire.decode(self.encode_with_trace(wire.make_trace(31)))
        assert out[wire.TRACE_KEY] == {"lc": 31}

    def test_round_trip_without_trace(self):
        frame = wire.make_frame(wire.GOSSIP_REQ, src=2, msg_id="2:1", payload=[1])
        out = wire.decode(wire.encode(frame))
        assert wire.TRACE_KEY not in out

    def test_traced_frame_decodes_on_trace_unaware_peer(self):
        """A decoder that ignores the field still gets an intact frame.

        The forward-compat contract: the field never moved WIRE_VERSION,
        so a build without the trace feature sees ``tr`` as just another
        extra key — stripping it must leave a frame the same decoder
        accepts.
        """
        data = self.encode_with_trace(wire.make_trace(5))
        frame = json.loads(data.decode("utf-8"))
        del frame[wire.TRACE_KEY]
        stripped = wire.decode(json.dumps(frame).encode("utf-8"))
        assert stripped["payload"] == [1]
        assert wire.TRACE_KEY not in stripped

    def test_make_trace_normalizes(self):
        assert wire.make_trace(True) == {"lc": 1}
        assert type(wire.make_trace(True)["lc"]) is int

    def test_hostile_trace_shapes_raise(self):
        for bad in ([1, 2], "trace", 7, True):
            with pytest.raises(WireError, match="trace"):
                wire.decode(self.encode_with_trace(bad))

    def test_hostile_clock_raises(self):
        for bad_clock in (None, "5", -1, True, 3.5):
            with pytest.raises(WireError, match="trace clock"):
                wire.decode(self.encode_with_trace({"lc": bad_clock}))

    def test_missing_clock_raises(self):
        with pytest.raises(WireError, match="trace clock"):
            wire.decode(self.encode_with_trace({}))

    def test_hostile_tags_raise(self):
        """The fourth descriptor slot is outside input: ``None`` or a
        non-negative, non-bool integer, anything else a counted error."""
        retired = {"__p": [2, 7, 0]}
        for bad_tag in (True, -1, 2.0, "2", [2, 7, 0], {"__t": [2]}, retired):
            frame = {**HEADER, "payload": [{"__d": [2, 0, None, bad_tag]}], "tr": {"lc": 1}}
            with pytest.raises(WireError, match="malformed descriptor tag"):
                wire.decode(json.dumps(frame).encode("utf-8"))

    def test_non_provenance_tag_items_raise(self):
        """Nor does the sender emit a tag its peer would refuse."""
        for bad_tag in (True, -1, 2.0, "2", (2, 7, 0)):
            with pytest.raises(WireError, match="descriptor tag"):
                self.encode_with_trace(wire.make_trace(1), [Descriptor(2, 0, None, bad_tag)])

    def test_retired_tags_key_is_dropped_unread(self):
        """Older encoders shipped every payload tag a second time under
        ``tr.tags``; nobody read the copy, so any shape of it still decodes."""
        old_tags = [{"__p": [2, 7, 0]}] * 300
        for tags in (old_tags, [], "tags", 7, {"a": 1}, [1, 2]):
            out = wire.decode(self.encode_with_trace({"lc": 4, "tags": tags}))
            assert out[wire.TRACE_KEY] == {"lc": 4}

    def test_truncated_traced_frame_raises(self):
        data = self.encode_with_trace(wire.make_trace(3))
        for cut in (1, len(data) // 2, len(data) - 2):
            with pytest.raises(WireError):
                wire.decode(data[:cut])

    def test_unknown_extra_trace_keys_tolerated(self):
        out = wire.decode(
            self.encode_with_trace({"lc": 9, "future": "field"})
        )
        assert out[wire.TRACE_KEY] == {"lc": 9}


if HAVE_HYPOTHESIS:

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_trace_roundtrip(clock):
        frame = wire.make_frame(wire.GOSSIP_RESP, src=1, msg_id="1:1")
        frame[wire.TRACE_KEY] = wire.make_trace(clock)
        out = wire.decode(wire.encode(frame))
        assert out[wire.TRACE_KEY] == {"lc": clock}

    trace_shapes = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-10, max_value=2**33)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=10),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=8,
    )

    @given(trace_shapes)
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_hostile_trace_never_crashes(trace):
        frame = {
            "v": wire.WIRE_VERSION,
            "t": wire.PING,
            "id": "1:1",
            "src": 1,
            wire.TRACE_KEY: trace,
        }
        try:
            out = wire.decode(json.dumps(frame).encode("utf-8"))
        except WireError:
            return  # the only allowed failure mode
        checked = out[wire.TRACE_KEY]
        assert isinstance(checked["lc"], int) and checked["lc"] >= 0


class TestSeenSet:
    def test_dedup(self):
        seen = wire.SeenSet(capacity=8)
        assert seen.add("a:1") is True
        assert seen.add("a:1") is False

    def test_bounded_under_flood(self):
        seen = wire.SeenSet(capacity=64)
        for i in range(10_000):
            seen.add(f"flood:{i}")
        assert len(seen) == 64

    def test_fifo_eviction_bias(self):
        seen = wire.SeenSet(capacity=2)
        seen.add("old")
        seen.add("mid")
        seen.add("new")
        assert "old" not in seen
        assert "mid" in seen and "new" in seen
        # an evicted id is treated as fresh again
        assert seen.add("old") is True

    def test_capacity_validated(self):
        with pytest.raises(WireError):
            wire.SeenSet(capacity=0)


class TestMsgIdsAndRelay:
    def test_msg_id_stream_deterministic(self):
        a, b = wire.MsgIdSource(5), wire.MsgIdSource(5)
        assert [a.next() for _ in range(3)] == [b.next() for _ in range(3)]
        assert a.next() == "5:4"
