"""Unit tests for the repro-serve-v1 wire codec."""

import itertools
from types import MappingProxyType
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.job as job_module
from repro.core.job import Job
from repro.core.request import decode_color
from repro.serve.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    job_from_wire,
    job_to_wire,
)


class TestFrameCodec:
    def test_round_trip(self):
        frame = {"type": "submit", "jobs": [], "id": 7}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_is_one_line(self):
        assert encode_frame({"type": "tick"}).count(b"\n") == 1

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"[1, 2]\n")
        assert err.value.code == "bad_frame"

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"{nope\n")
        assert err.value.code == "bad_json"

    def test_rejects_missing_type(self):
        with pytest.raises(ProtocolError):
            decode_frame(b'{"jobs": []}\n')


class TestJobCodec:
    def test_round_trip_preserves_everything(self):
        job = Job(color="video", arrival=3, delay_bound=4, uid=99)
        back = job_from_wire(job_to_wire(job), default_arrival=0)
        assert back == job

    def test_tuple_colors_round_trip(self):
        job = Job(color=(1, "a"), arrival=0, delay_bound=2, uid=5)
        back = job_from_wire(job_to_wire(job), default_arrival=0)
        assert back.color == (1, "a")

    def test_arrival_defaults_to_current_round(self):
        job = job_from_wire({"color": 0, "delay_bound": 2}, default_arrival=17)
        assert job.arrival == 17

    def test_uid_defaults_to_fresh(self):
        a = job_from_wire({"color": 0, "delay_bound": 2}, default_arrival=0)
        b = job_from_wire({"color": 0, "delay_bound": 2}, default_arrival=0)
        assert a.uid != b.uid

    @pytest.mark.parametrize("bad", [
        {"delay_bound": 2},                            # no color
        {"color": 0},                                  # no bound
        {"color": 0, "delay_bound": 0},                # bound < 1
        {"color": 0, "delay_bound": True},             # bool is not an int
        {"color": 0, "delay_bound": 2, "arrival": -1},
        {"color": 0, "delay_bound": 2, "uid": "x"},
        "not an object",
    ])
    def test_invalid_jobs_rejected(self, bad):
        with pytest.raises(ProtocolError) as err:
            job_from_wire(bad, default_arrival=0)
        assert err.value.code == "bad_job"


# -- the decoder before its one-expression fast path, verbatim ---------------


def _int_field(value: object, key: str, minimum: int) -> int:
    """``value`` as the integer job field ``key``, or a ``bad_job`` error."""
    # bool is an int subclass; a job with delay_bound=true is a client bug.
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, int)
    ):
        raise ProtocolError("bad_job", f"job field {key!r} must be an integer")
    if value < minimum:
        raise ProtocolError(
            "bad_job", f"job field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def rule_by_rule_job_from_wire(obj: object, default_arrival: int) -> Job:
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise ProtocolError("bad_job", "each job must be a JSON object")
    color = obj.get("color")
    if color is None:
        raise ProtocolError("bad_job", "job is missing a non-null 'color'")
    if "delay_bound" not in obj:
        raise ProtocolError("bad_job", "job is missing 'delay_bound'")
    delay_bound = _int_field(obj["delay_bound"], "delay_bound", 1)
    arrival = obj.get("arrival")
    arrival = (
        default_arrival if arrival is None else _int_field(arrival, "arrival", 0)
    )
    uid = obj.get("uid")
    if uid is not None:
        uid = _int_field(uid, "uid", 0)
    try:
        kind = type(color)
        if kind is not int and kind is not str:
            color = decode_color(color)
            # Pools, ledgers and shard routing key on the color: refuse an
            # unhashable one (a list, an object) here, not inside the session.
            hash(color)
        if uid is None:
            return Job(color, arrival, delay_bound)
        return Job(color, arrival, delay_bound, uid)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_job", str(exc)) from None


# -- arbitrary wire objects ----------------------------------------------------

_color = st.one_of(
    st.integers(-3, 70),
    st.text(max_size=3),
    st.booleans(),
    st.floats(allow_nan=False, min_value=-2, max_value=70),
    st.none(),
    st.fixed_dictionaries({"t": st.lists(  # tuple colors, some unhashable
        st.one_of(st.integers(0, 3), st.text(max_size=1), st.booleans(),
                  st.lists(st.integers(), max_size=1)),
        max_size=3,
    )}),
    st.fixed_dictionaries({"t": st.integers()}),  # a "tuple" that is not a list
    st.lists(st.integers(0, 3), max_size=2),  # unhashable
)
#: integers straddle every field's minimum; the rest no field accepts.
_number = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, min_value=-2, max_value=12),
    st.text(max_size=2),
    st.integers(10**18, 10**20),
)


@st.composite
def wire_objects(draw):
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.one_of(
            st.none(), st.integers(), st.text(max_size=3),
            st.lists(st.integers(), max_size=2),
        ))
    # The shape every client sends, then each field, independently,
    # kept (most often), dropped, moved to either side of its minimum,
    # or given any value.
    fields = {
        "color": draw(st.one_of(st.integers(0, 70), st.text(max_size=3))),
        "arrival": draw(st.integers(0, 9)),
        "delay_bound": draw(st.integers(1, 9)),
        "uid": draw(st.integers(0, 99)),
    }
    minimum = {"color": 0, "arrival": 0, "delay_bound": 1, "uid": 0}
    for key in list(fields):
        spoil = draw(st.integers(0, 6))
        if spoil == 3:
            del fields[key]
        elif spoil == 4:
            fields[key] = draw(st.integers(minimum[key] - 2, minimum[key] + 1))
        elif spoil == 5:
            fields[key] = draw(_color if key == "color" else _number)
    if kind == 1:
        return MappingProxyType(fields)  # a Mapping that is not a dict
    return fields


def _decode(decode, obj, default_arrival):
    """Every field of the decoded job, fresh uid included, or the error."""
    saved = job_module._JOB_IDS
    job_module._JOB_IDS = itertools.count(1000)
    try:
        job = decode(obj, default_arrival)
    except Exception as exc:
        return ("error", type(exc).__name__, getattr(exc, "code", None), str(exc))
    finally:
        job_module._JOB_IDS = saved
    # type and repr tell 1 from 1.0 from True, inside tuples too.
    return ("job", type(job.color), repr(job.color), job.arrival,
            job.delay_bound, job.uid, job.origin)


class TestDecoderMatchesRuleByRule:
    @settings(max_examples=1000, deadline=None)
    @given(obj=wire_objects(), default_arrival=st.integers(0, 50))
    def test_same_job_or_same_error(self, obj, default_arrival):
        assert _decode(job_from_wire, obj, default_arrival) == _decode(
            rule_by_rule_job_from_wire, obj, default_arrival
        )

    @pytest.mark.parametrize("obj", [
        {"color": 3, "arrival": 2, "delay_bound": 1, "uid": 0},      # minima
        {"color": "x", "arrival": 0, "delay_bound": 4, "uid": 7},
        {"color": True, "arrival": 2, "delay_bound": 1, "uid": 0},   # bool color
        {"color": 1.0, "arrival": 2, "delay_bound": 1, "uid": 0},    # float color
        {"color": {"t": [1, "a"]}, "arrival": 2, "delay_bound": 1, "uid": 0},
        {"color": 3, "arrival": 2, "delay_bound": 1, "uid": -1},     # each minimum
        {"color": 3, "arrival": -1, "delay_bound": 1, "uid": 0},
        {"color": 3, "arrival": 2, "delay_bound": 0, "uid": 0},
        {"color": 3, "arrival": True, "delay_bound": 1, "uid": 0},   # bool fields
        {"color": 3, "arrival": 2, "delay_bound": True, "uid": 0},
        {"color": 3, "arrival": 2, "delay_bound": 1, "uid": False},
        {"color": 3, "arrival": 2.0, "delay_bound": 1, "uid": 0},    # float field
        {"color": 3, "arrival": None, "delay_bound": 1, "uid": None},
        {"color": None, "arrival": 2, "delay_bound": 1, "uid": 0},
        {"color": [1], "arrival": 2, "delay_bound": 1, "uid": 0},
        MappingProxyType({"color": 3, "arrival": 2, "delay_bound": 1, "uid": 0}),
        [3, 2, 1, 0],
    ])
    def test_edges_of_the_fast_shape(self, obj):
        assert _decode(job_from_wire, obj, 5) == _decode(
            rule_by_rule_job_from_wire, obj, 5
        )
