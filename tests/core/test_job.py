"""Unit tests for repro.core.job."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.job import BLACK, Job, color_sort_key


class TestJobConstruction:
    def test_basic_fields(self):
        job = Job(color=3, arrival=5, delay_bound=4)
        assert job.color == 3
        assert job.arrival == 5
        assert job.delay_bound == 4

    def test_deadline_is_arrival_plus_bound(self):
        assert Job(color=0, arrival=5, delay_bound=4).deadline == 9

    def test_uids_are_unique(self):
        a = Job(color=0, arrival=0, delay_bound=1)
        b = Job(color=0, arrival=0, delay_bound=1)
        assert a.uid != b.uid

    def test_explicit_uid_respected(self):
        assert Job(color=0, arrival=0, delay_bound=1, uid=99).uid == 99

    def test_black_color_rejected(self):
        with pytest.raises(ValueError, match="non-black"):
            Job(color=BLACK, arrival=0, delay_bound=1)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            Job(color=0, arrival=-1, delay_bound=1)

    def test_zero_delay_bound_rejected(self):
        with pytest.raises(ValueError, match="delay bound"):
            Job(color=0, arrival=0, delay_bound=0)

    def test_frozen(self):
        job = Job(color=0, arrival=0, delay_bound=1)
        with pytest.raises(Exception):
            job.color = 1  # type: ignore[misc]


class TestHandWrittenInit:
    """``Job.__init__`` is written by hand; everything the generated one
    gave (messages, stored values, the dataclass protocol) must hold."""

    @pytest.mark.parametrize("args, message", [
        ((BLACK, 0, 1), "jobs must have a non-black color"),
        ((0, -1, 1), "arrival must be >= 0, got -1"),
        ((0, 0, 0), "delay bound must be a positive integer, got 0"),
        ((0, 0, -3), "delay bound must be a positive integer, got -3"),
        # The checks run in field order: the color first, then the arrival.
        ((BLACK, -1, 0), "jobs must have a non-black color"),
        ((0, -1, 0), "arrival must be >= 0, got -1"),
    ])
    def test_same_errors_and_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            Job(*args)
        assert str(info.value) == message

    def test_explicit_uid_none_is_stored(self):
        assert Job(0, 0, 1, uid=None).uid is None
        assert Job(0, 0, 1, None).uid is None

    def test_keywords_and_positions_agree(self):
        assert Job(color=2, arrival=3, delay_bound=4, uid=5, origin=6) == Job(2, 3, 4, 5, 6)

    @pytest.mark.parametrize("field", ["color", "arrival", "delay_bound", "uid", "origin"])
    def test_every_field_is_frozen(self, field):
        job = Job(color=0, arrival=0, delay_bound=1, uid=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(job, field, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(job, field)

    def test_dataclass_protocol(self):
        job = Job(color=(1, 2), arrival=3, delay_bound=4, uid=5, origin=2)
        assert [f.name for f in dataclasses.fields(Job)] == [
            "color", "arrival", "delay_bound", "uid", "origin",
        ]
        assert dataclasses.replace(job) == job
        assert dataclasses.replace(job, arrival=9) == Job((1, 2), 9, 4, 5, 2)
        assert dataclasses.astuple(job) == ((1, 2), 3, 4, 5, 2)
        assert copy.copy(job) == job
        assert copy.deepcopy(job) == job
        assert pickle.loads(pickle.dumps(job)) == job
        assert hash(pickle.loads(pickle.dumps(job))) == hash(job)
        assert not hasattr(job, "__dict__")

    def test_repr_is_byte_identical(self):
        # The digests hash reprs of colors and jobs; pin the exact text.
        assert repr(Job(color=3, arrival=5, delay_bound=4, uid=99)) == (
            "Job(color=3, arrival=5, delay_bound=4, uid=99, origin=None)"
        )
        assert repr(Job(color=("a", 1.0), arrival=0, delay_bound=1, uid=1, origin=7)) == (
            "Job(color=('a', 1.0), arrival=0, delay_bound=1, uid=1, origin=7)"
        )

    def test_fresh_uids_count_up(self):
        first = Job(0, 0, 1)
        second = Job(0, 0, 1)
        assert isinstance(first.uid, int)
        assert second.uid == first.uid + 1


class TestExecutableWindow:
    def test_executable_at_arrival(self):
        job = Job(color=0, arrival=3, delay_bound=2)
        assert job.executable_in(3)

    def test_executable_until_deadline_minus_one(self):
        job = Job(color=0, arrival=3, delay_bound=2)
        assert job.executable_in(4)
        assert not job.executable_in(5)

    def test_not_executable_before_arrival(self):
        assert not Job(color=0, arrival=3, delay_bound=2).executable_in(2)

    def test_bound_one_single_round_window(self):
        job = Job(color=0, arrival=7, delay_bound=1)
        assert job.executable_in(7)
        assert not job.executable_in(8)


class TestDerived:
    def test_derived_points_to_origin(self):
        native = Job(color=0, arrival=3, delay_bound=4)
        derived = native.derived(color=(0, 1))
        assert derived.origin == native.uid
        assert derived.color == (0, 1)
        assert derived.arrival == native.arrival

    def test_chained_derivation_keeps_native_origin(self):
        native = Job(color=0, arrival=3, delay_bound=4)
        first = native.derived(arrival=4, delay_bound=2)
        second = first.derived(color=(0, 0))
        assert second.origin == native.uid

    def test_derived_overrides(self):
        native = Job(color=0, arrival=3, delay_bound=4)
        derived = native.derived(arrival=4, delay_bound=2)
        assert derived.arrival == 4
        assert derived.delay_bound == 2
        assert derived.deadline == 6


class TestSortKey:
    def test_deadline_first(self):
        early = Job(color=5, arrival=0, delay_bound=2)
        late = Job(color=0, arrival=0, delay_bound=4)
        assert early.sort_key() < late.sort_key()

    def test_tie_broken_by_delay_bound(self):
        # same deadline 4, bounds 2 vs 4
        tight = Job(color=9, arrival=2, delay_bound=2)
        loose = Job(color=0, arrival=0, delay_bound=4)
        assert tight.sort_key() < loose.sort_key()

    def test_tie_broken_by_color_order(self):
        a = Job(color=1, arrival=0, delay_bound=4)
        b = Job(color=2, arrival=0, delay_bound=4)
        assert a.sort_key() < b.sort_key()


class TestColorSortKey:
    def test_int_colors_sort_numerically(self):
        assert color_sort_key(2) < color_sort_key(10)

    def test_tuple_colors_sort_after_ints(self):
        assert color_sort_key(999) < color_sort_key((0, 0))

    def test_tuple_colors_sort_lexicographically(self):
        assert color_sort_key((1, 2)) < color_sort_key((1, 3))
        assert color_sort_key((1, 9)) < color_sort_key((2, 0))

    def test_mixed_colors_totally_ordered(self):
        colors = [(1, 0), 3, (0, 2), 7, (1, 1)]
        ordered = sorted(colors, key=color_sort_key)
        assert ordered == [3, 7, (0, 2), (1, 0), (1, 1)]
