"""The serve submit path's fast paths against the loops they replaced.

``job_from_wire`` tests exact types before the ABC checks and decodes
int and str colors without ``decode_color``, ``ShardedSession.validate``
routes the batch once and clears it with one batch-wide test before it
falls back to its per-job loop, and ``ShardedSession.commit`` appends
each shard's slice with one ``LiveSequence.push_checked``, routed by the
shard ids ``validate`` computed, so each job is checked at most once.
``LiveSequence.push_many`` checks and appends a batch in one call.  The
per-job code they replaced is kept below, verbatim, as the reference:
Hypothesis checks that every generated input gets the same job, or the
same error code and message, or the same accepted batch and state.

The one intended difference: the reference decoder accepts an
unhashable color (a list, an object), which then crashed the session;
the decoder now rejects it with ``bad_job``.
"""

from __future__ import annotations

import copy
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Color, Job
from repro.core.live import LiveSequence, LiveSequenceError
from repro.core.request import decode_color
from repro.policies import make_policy
from repro.serve.protocol import ProtocolError, job_from_wire
from repro.serve.session import AdmissionError, ShardedSession, shard_of

# -- reference implementations ----------------------------------------------


def _ref_int_field(obj: Mapping, key: str, *, minimum: int) -> int:
    value = obj[key]
    # bool is an int subclass; a job with delay_bound=true is a client bug.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("bad_job", f"job field {key!r} must be an integer")
    if value < minimum:
        raise ProtocolError(
            "bad_job", f"job field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def reference_job_from_wire(obj: object, default_arrival: int) -> Job:
    """The per-field decoder, as it was before the exact-type tests."""
    if not isinstance(obj, Mapping):
        raise ProtocolError("bad_job", "each job must be a JSON object")
    if "color" not in obj or obj["color"] is None:
        raise ProtocolError("bad_job", "job is missing a non-null 'color'")
    if "delay_bound" not in obj:
        raise ProtocolError("bad_job", "job is missing 'delay_bound'")
    delay_bound = _ref_int_field(obj, "delay_bound", minimum=1)
    arrival = (
        _ref_int_field(obj, "arrival", minimum=0)
        if "arrival" in obj and obj["arrival"] is not None
        else default_arrival
    )
    kwargs: dict = {}
    if "uid" in obj and obj["uid"] is not None:
        kwargs["uid"] = _ref_int_field(obj, "uid", minimum=0)
    try:
        return Job(
            color=decode_color(obj["color"]),
            arrival=arrival,
            delay_bound=delay_bound,
            **kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_job", str(exc)) from None


def reference_validate(session: ShardedSession, jobs: list[Job]) -> None:
    """The per-job admission loop, as it was before batch routing
    (tenant-free sessions: every job is kept)."""
    if session._closed:
        raise AdmissionError("closed", "session is closed")
    bounds: dict[Color, int] = {}
    load: dict[int, int] = {}
    batch_uids: set[int] = set()
    for index, job in enumerate(jobs):
        shard = session.shards[shard_of(job.color, len(session.shards))]
        try:
            shard.live.check(job.color, job.arrival, job.delay_bound)
        except LiveSequenceError as exc:
            raise AdmissionError(
                exc.reason, f"job {job.uid}: {exc}", index
            ) from None
        prev = bounds.setdefault(job.color, job.delay_bound)
        if prev != job.delay_bound:
            raise AdmissionError(
                "inconsistent_delay_bound",
                f"job {job.uid}: color {job.color!r} appears in this "
                f"batch with delay bounds {prev} and {job.delay_bound}",
                index,
            )
        if job.uid in session._seen_uids or job.uid in batch_uids:
            raise AdmissionError(
                "duplicate_uid",
                f"job uid {job.uid} was already submitted",
                index,
            )
        batch_uids.add(job.uid)
        load[shard.shard_id] = load.get(shard.shard_id, 0) + 1
    for shard_id, extra in load.items():
        shard = session.shards[shard_id]
        if shard.pending + extra > session.max_pending:
            raise AdmissionError(
                "backpressure",
                f"shard {shard_id} would hold {shard.pending + extra} "
                f"in-flight jobs (limit {session.max_pending}); retry after "
                f"ticking",
            )


def reference_push(live: LiveSequence, job: Job) -> None:
    """One job's push, as it was before ``push_many``."""
    live.check(job.color, job.arrival, job.delay_bound)
    live._bounds.setdefault(job.color, job.delay_bound)
    live._buckets.setdefault(job.arrival, []).append(job)
    live._buffered += 1
    live._pushed += 1
    if job.deadline > live._max_deadline:
        live._max_deadline = job.deadline


# -- strategies -------------------------------------------------------------

#: colors whose equality and type disagree on purpose: 1, 1.0 and True are
#: one dict key but three shard labels.
COLORS = [0, 1, 2, 7, "a", "b", "1", (1, 2), 1.0, True, -0.0, 0.0]

#: field values no field accepts.
_junk = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-2, max_value=9),
    st.text(max_size=2),
)
#: colors that need ``decode_color`` (and some no decoder accepts).
_odd_color = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 3), max_size=2),  # unhashable
    st.fixed_dictionaries({"x": st.integers()}),  # unhashable, not a tuple
    st.fixed_dictionaries({"t": st.lists(
        st.one_of(
            st.integers(0, 3),
            st.text(max_size=1),
            st.lists(st.integers(), max_size=1),  # unhashable inside a tuple
        ),
        max_size=3,
    )}),
    st.fixed_dictionaries({"t": st.integers()}),  # not iterable
)
#: per field: the usual values (integers straddle each field's minimum).
_usual = {
    "color": st.one_of(st.integers(-5, 5), st.text(max_size=3)),
    "delay_bound": st.integers(-1, 6),
    "arrival": st.integers(-2, 9),
    "uid": st.integers(-3, 20),
}


@st.composite
def wire_jobs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(
            st.lists(st.integers(), max_size=2), st.text(max_size=3), st.none()
        ))
    obj = {}
    for key, usual in _usual.items():
        kind = draw(st.integers(0, 5))
        if kind <= 3:
            obj[key] = draw(usual)
        elif kind == 4:
            obj[key] = draw(_odd_color if key == "color" else _junk)
    return obj


def _decoded(decode, obj, default_arrival: int):
    try:
        job = decode(obj, default_arrival)
    except ProtocolError as exc:
        return ("error", exc.code, str(exc))
    # repr tells 1 from 1.0 from True, inside tuples too; fresh uids
    # differ between the two calls, so only explicit ones are compared.
    explicit = isinstance(obj, dict) and obj.get("uid") is not None
    return ("job", repr(job.color), job.arrival, job.delay_bound,
            job.uid if explicit else None, job.origin)


def _unhashable(color: object) -> str | None:
    try:
        hash(color)
    except TypeError as exc:
        return str(exc)
    return None


class TestDecoderMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(obj=wire_jobs(), default_arrival=st.integers(0, 50))
    def test_same_job_or_same_error(self, obj, default_arrival):
        expected = _decoded(reference_job_from_wire, obj, default_arrival)
        if expected[0] == "job":
            reason = _unhashable(reference_job_from_wire(obj, default_arrival).color)
            if reason is not None:
                expected = ("error", "bad_job", reason)
        assert _decoded(job_from_wire, obj, default_arrival) == expected

    def test_fresh_uids_come_from_the_counter(self):
        a = job_from_wire({"color": 3, "delay_bound": 2}, 0)
        b = job_from_wire({"color": "x", "delay_bound": 2, "uid": None}, 0)
        assert b.uid > a.uid


def _session(shards: int, max_pending: int) -> ShardedSession:
    return ShardedSession(
        n=12,
        delta=1,
        policy_factory=lambda: make_policy("edf", 1),
        shards=shards,
        max_pending=max_pending,
    )


def _job(draw, rnd: int, uids) -> Job:
    color = draw(st.sampled_from(COLORS))
    return Job(
        color=color,
        arrival=max(0, rnd + draw(st.integers(-2, 3))),
        delay_bound=draw(st.integers(1, 3)),
        uid=draw(uids),
    )


@st.composite
def sessions_and_batches(draw):
    """A session with history (registered bounds, seen uids, consumed
    rounds, pending jobs) and a next batch with violations anywhere."""
    session = _session(draw(st.integers(1, 3)), draw(st.integers(4, 40)))
    uids = st.integers(100, 140)
    for _ in range(draw(st.integers(0, 4))):
        history = [
            _job(draw, session.round, uids) for _ in range(draw(st.integers(0, 6)))
        ]
        try:
            session.submit(history)
        except AdmissionError:
            pass
        for _ in range(draw(st.integers(0, 2))):
            session.tick()
    if draw(st.integers(0, 9)) == 0:
        session.close()
    batch = [_job(draw, session.round, uids) for _ in range(draw(st.integers(0, 12)))]
    return session, batch


def _verdict(validate, session, batch):
    try:
        admission = validate(session, batch)
    except AdmissionError as exc:
        return ("reject", exc.reason, exc.index, str(exc))
    return ("ok", admission)


def _live_state(live: LiveSequence):
    return (
        [(repr(c), b) for c, b in live._bounds.items()],
        {r: [j.uid for j in jobs] for r, jobs in live._buckets.items()},
        live._buffered,
        live._pushed,
        live._max_deadline,
    )


class TestAdmissionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(case=sessions_and_batches())
    def test_same_reject_or_same_accept(self, case):
        session, batch = case
        expected = _verdict(reference_validate, session, batch)
        got = _verdict(ShardedSession.validate, session, batch)
        assert got[0] == expected[0]
        if got[0] == "ok":
            admission = got[1]
            assert admission.kept == batch
            assert admission.shed == []
            assert admission.tallies == {}
            assert admission.uids == {job.uid for job in batch}
            slices: dict[int, list[Job]] = {}
            for job in batch:
                slices.setdefault(shard_of(job.color, session.num_shards), []).append(job)
            assert admission.slices == slices
            assert list(admission.slices) == list(slices)  # first appearance
        else:
            assert got == expected

    @pytest.mark.parametrize("reason, index, batch", [
        ("stale_round", 1, [Job("a", 2, 2, uid=1), Job("b", 1, 2, uid=2)]),
        ("inconsistent_delay_bound", 0, [Job(1, 2, 3, uid=3)]),   # vs history
        ("inconsistent_delay_bound", 2,                           # in the batch
         [Job("c", 2, 1, uid=4), Job("d", 2, 1, uid=5), Job("c", 3, 2, uid=6)]),
        ("duplicate_uid", 0, [Job("a", 2, 2, uid=10)]),           # vs history
        ("duplicate_uid", 1, [Job("a", 2, 2, uid=7), Job("b", 2, 2, uid=7)]),
        ("backpressure", None, [Job("a", 2, 2, uid=100 + i) for i in range(9)]),
        ("closed", None, [Job("a", 2, 2, uid=8)]),
    ])
    def test_every_reason(self, reason, index, batch):
        session = _session(shards=2, max_pending=8)
        session.submit([Job(1, 0, 2, uid=10), Job("a", 1, 2, uid=11)])
        session.tick()
        session.tick()
        if reason == "closed":
            session.close()
        expected = _verdict(reference_validate, session, batch)
        assert expected[:3] == ("reject", reason, index)
        assert _verdict(ShardedSession.validate, session, batch) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=sessions_and_batches())
    def test_commit_equals_per_job_pushes(self, case):
        session, batch = case
        try:
            admission = session.validate(batch)
        except AdmissionError:
            return
        expected = [copy.deepcopy(shard.live) for shard in session.shards]
        for job in batch:
            reference_push(expected[shard_of(job.color, session.num_shards)], job)
        session.commit(admission)
        for ref, shard in zip(expected, session.shards):
            assert _live_state(shard.live) == _live_state(ref)
        assert all(job.uid in session._seen_uids for job in batch)


    def test_submit_checks_each_job_once(self, monkeypatch):
        calls = []
        check = LiveSequence.check

        def counted(live, *args):
            calls.append(args)
            check(live, *args)

        monkeypatch.setattr(LiveSequence, "check", counted)
        session = _session(shards=2, max_pending=100)
        # A batch the batch-wide test clears is not checked job by job.
        session.submit([Job(c, 0, 2, uid=i) for i, c in enumerate("abcabd")])
        assert calls == []
        # 4.0's bound on its shard keeps the batch-wide test from clearing
        # 4, which lives on the other shard: the per-job loop checks each
        # job once and admits the batch, and commit checks none again.
        session.submit([Job(4.0, 0, 3, uid=10)])
        batch = [Job(4, 0, 2, uid=11), Job("e", 0, 2, uid=12)]
        session.submit(batch)
        assert len(calls) == len(batch)


class TestPushManyMatchesPerJobPushes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_all_or_nothing_with_the_first_error(self, data):
        draw = data.draw
        uids = st.integers(0, 50)
        live = LiveSequence()
        ref = LiveSequence()
        for _ in range(draw(st.integers(0, 3))):
            rnd = live.next_round
            batch = [_job(draw, rnd, uids) for _ in range(draw(st.integers(0, 4)))]
            for sequence in (live, ref):
                try:
                    sequence.push_many(batch)
                except LiveSequenceError:
                    pass
                sequence.request(rnd)
        if draw(st.integers(0, 9)) == 0:
            live.close()
            ref.close()
        batch = [
            _job(draw, live.next_round, uids) for _ in range(draw(st.integers(0, 8)))
        ]
        before = _live_state(live)
        error = None
        for job in batch:
            try:
                reference_push(ref, job)
            except LiveSequenceError as exc:
                error = (exc.reason, str(exc))
                break
        try:
            live.push_many(batch)
        except LiveSequenceError as exc:
            assert (exc.reason, str(exc)) == error
            assert _live_state(live) == before
        else:
            assert error is None
            assert _live_state(live) == _live_state(ref)
