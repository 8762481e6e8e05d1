"""Tests for node descriptors."""

from __future__ import annotations

import pickle

import pytest

from repro.gossip.descriptors import Descriptor, youngest
from repro.runtime import wire


class TestImmutability:
    def test_cannot_set_attributes(self):
        descriptor = Descriptor(1, 2, "p")
        with pytest.raises(AttributeError):
            descriptor.age = 5  # type: ignore[misc]

    def test_aged_returns_new_object(self):
        descriptor = Descriptor(1, 2)
        older = descriptor.aged()
        assert older is not descriptor
        assert older.age == 3
        assert descriptor.age == 2

    def test_aged_increment(self):
        assert Descriptor(0, 0).aged(5).age == 5

    def test_fresh_resets_age(self):
        assert Descriptor(1, 9, "p").fresh().age == 0

    def test_fresh_keeps_profile(self):
        assert Descriptor(1, 9, "p").fresh().profile == "p"

    def test_with_profile(self):
        updated = Descriptor(1, 3, "old").with_profile("new")
        assert updated.profile == "new"
        assert updated.age == 3
        assert updated.node_id == 1


class TestEquality:
    def test_equal_same_id_and_age(self):
        assert Descriptor(1, 2, "x") == Descriptor(1, 2, "y")

    def test_unequal_different_age(self):
        assert Descriptor(1, 2) != Descriptor(1, 3)

    def test_hashable(self):
        assert len({Descriptor(1, 2), Descriptor(1, 2), Descriptor(2, 2)}) == 2

    def test_not_equal_to_other_types(self):
        assert Descriptor(1, 2) != (1, 2)


class TestTupleBackedRecord:
    """What must survive the record being a tuple underneath."""

    TAG = 3  # the round the advert was minted in

    def test_attribute_and_item_assignment_refused(self):
        descriptor = Descriptor(1, 2, "p")
        for name in ("node_id", "age", "profile", "provenance", "extra"):
            with pytest.raises(AttributeError):
                setattr(descriptor, name, 5)
        with pytest.raises(TypeError):
            descriptor[1] = 5  # type: ignore[index]
        with pytest.raises(AttributeError):
            del descriptor.age
        assert not hasattr(descriptor, "__dict__")

    def test_a_plain_tuple_is_never_equal_in_either_order(self):
        # A tuple subclass answering NotImplemented would hand the question
        # to tuple.__eq__, which compares the four fields and says yes.
        descriptor, fields = Descriptor(1, 2), (1, 2, None, None)
        assert tuple(descriptor) == fields
        assert descriptor != fields and fields != descriptor
        assert not descriptor == fields and not fields == descriptor
        assert descriptor != (1, 2) and descriptor != [1, 2, None, None]

    def test_equality_and_hash_ignore_profile_and_provenance(self):
        plain, loaded = Descriptor(1, 2), Descriptor(1, 2, (0.5,), self.TAG)
        assert plain == loaded and not plain != loaded
        assert hash(plain) == hash(loaded) == hash((1, 2))
        assert Descriptor(1, 3, (0.5,), self.TAG) != loaded
        assert {plain: "x"}[loaded] == "x"

    def test_unordered_as_before(self):
        with pytest.raises(TypeError):
            Descriptor(1, 2) < Descriptor(1, 3)  # noqa: B015
        with pytest.raises(TypeError):
            sorted([Descriptor(2, 0), Descriptor(1, 0)])

    def test_constructor_coerces_ids_and_ages(self):
        descriptor = Descriptor("7", 2.0)  # type: ignore[arg-type]
        assert (descriptor.node_id, descriptor.age) == (7, 2)
        assert type(descriptor.node_id) is type(descriptor.age) is int

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_type_and_provenance(self, protocol):
        original = Descriptor(4, 9, ("ring", 3), self.TAG)
        clone = pickle.loads(pickle.dumps([original, original.aged()], protocol))[0]
        assert type(clone) is Descriptor
        assert tuple(clone) == tuple(original)
        assert type(clone.provenance) is int and type(clone.profile) is tuple

    def test_the_codec_tags_it_as_a_descriptor_not_a_tuple(self):
        packed = wire.pack_value([Descriptor(4, 9, (1, 2), self.TAG)])
        assert packed == {"__D": [[4, 9, [1, 2], 3]]}
        assert wire.pack_value(Descriptor(4)) == {"__d": [4, 0]}
        assert wire.pack_value((Descriptor(4),)) == {"__t": [{"__d": [4, 0]}]}

    def test_copies_keep_type_fields_and_the_tag_object(self):
        tagged = Descriptor(1, 2, "p", self.TAG)
        for copy, expected in (
            (tagged.aged(), (1, 3, "p", self.TAG)),
            (tagged.aged(4), (1, 6, "p", self.TAG)),
            (tagged.fresh(), (1, 0, "p", self.TAG)),
            (tagged.with_profile("q"), (1, 2, "q", self.TAG)),
            (tagged.tagged(None), (1, 2, "p", None)),
            (Descriptor(1, 2, "p").tagged(3), (1, 2, "p", 3)),
        ):
            assert type(copy) is Descriptor and tuple(copy) == expected


class TestYoungest:
    def test_picks_lower_age(self):
        young = Descriptor(1, 1)
        old = Descriptor(1, 7)
        assert youngest(young, old) is young
        assert youngest(old, young) is young

    def test_handles_none(self):
        descriptor = Descriptor(1, 0)
        assert youngest(None, descriptor) is descriptor
        assert youngest(descriptor, None) is descriptor
        assert youngest(None, None) is None

    def test_tie_prefers_first(self):
        a = Descriptor(1, 3, "a")
        b = Descriptor(1, 3, "b")
        assert youngest(a, b) is a
