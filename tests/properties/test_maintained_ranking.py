"""Model-based tests: MaintainedRanking against ``sorted`` over a plain dict.

``apply`` only records key changes; ``top`` and ``ordered`` settle them
when read, by point updates or by one rebuild when more than half of the
settled members (and more than eight colors) changed since the last read.  Every read must
equal what sorting the current keys gives, however many batches, and
however many re-keys of one color, came between two reads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.ranking import MaintainedRanking

COLORS = range(12)


@st.composite
def batches(draw, colors=COLORS):
    """``("apply", updates, removals)``: inserts, re-keys (several of one
    color, and back to the key it holds), removals and re-adds.  Keys end
    in the color, like every paper ranking, so they are unique per color;
    the small first component makes repeated keys common."""
    removals = draw(st.lists(st.sampled_from(colors), max_size=4))
    updates = []
    for color in draw(st.lists(st.sampled_from(colors), max_size=14)):
        updates.append((color, (draw(st.integers(0, 3)), color)))
    return ("apply", updates, removals)


reads = st.one_of(
    st.tuples(st.just("top"), st.integers(0, 14)),
    st.tuples(st.just("ordered")),
    st.tuples(st.just("len")),
    st.tuples(st.just("in")),
    st.tuples(st.just("members")),
)

#: batches outnumber reads, so long stretches without a read are common.
operations = st.lists(
    st.one_of(batches(), batches(), batches(), reads), max_size=60
)


def _check_read(ranking, model, read):
    expected = sorted(model, key=model.__getitem__)
    kind = read[0]
    if kind == "top":
        assert ranking.top(read[1]) == expected[: read[1]]
    elif kind == "ordered":
        assert ranking.ordered() == expected
    elif kind == "len":
        assert len(ranking) == len(model)
    elif kind == "in":
        assert [c in ranking for c in COLORS] == [c in model for c in COLORS]
    else:
        assert set(ranking.members()) == set(model)


def _replay(ops):
    ranking = MaintainedRanking()
    model: dict = {}
    for op in ops:
        if op[0] == "apply":
            _, updates, removals = op
            ranking.apply(updates, removals)
            for color in removals:
                model.pop(color, None)
            for color, key in updates:
                model[color] = key
        else:
            _check_read(ranking, model, op)
    _check_read(ranking, model, ("ordered",))


@given(ops=operations)
@settings(max_examples=300, deadline=None)
def test_reads_match_sorted_model(ops):
    _replay(ops)


@given(
    stretch=st.one_of(
        st.lists(batches(range(6)), min_size=10, max_size=40),
        st.lists(batches(), min_size=10, max_size=40),
    ),
    k=st.integers(0, 14),
)
@settings(max_examples=100, deadline=None)
def test_first_read_after_a_long_stretch(stretch, k):
    # The order is settled on all twelve colors first.  A stretch over six
    # of them settles by point updates; one over all twelve mostly by a
    # rebuild.
    fill = ("apply", [(c, (0, c)) for c in COLORS], [])
    _replay([fill, ("ordered",), *stretch, ("top", k)])


class TestSettlePaths:
    """One explicit case per settle path, plus the order-free reads."""

    def _settled(self):
        ranking = MaintainedRanking()
        ranking.apply([(c, (0, c)) for c in COLORS])
        return ranking, ranking.ordered()

    def test_few_changes_move_in_place(self):
        # One color re-keyed twice, one re-keyed to the key it holds and
        # one removed, against twelve settled members: point updates.
        ranking, before = self._settled()
        ranking.apply([(3, (2, 3)), (3, (1, 3)), (5, (0, 5))], removals=[7])
        after = ranking.ordered()
        assert after is before
        assert after == [0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 3]

    def test_many_changes_rebuild(self):
        # Nine of twelve members changed: one rebuild.
        ranking, before = self._settled()
        ranking.apply([(c, (1, c)) for c in range(9)])
        after = ranking.ordered()
        assert after is not before
        assert after == [9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8]

    def test_membership_reads_do_not_settle(self):
        ranking, _ = self._settled()
        ranking.apply([(2, (1, 2))], removals=[5])
        ranking.apply([(12, (0, 12))])
        assert len(ranking) == 12
        assert 12 in ranking and 5 not in ranking
        assert set(ranking.members()) == (set(COLORS) - {5}) | {12}
        assert ranking._moved  # still pending until an ordered read
        assert ranking.top(3) == [0, 1, 3]
        assert not ranking._moved
