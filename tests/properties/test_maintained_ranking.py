"""Model-based tests: MaintainedRanking against ``sorted`` over a plain dict.

``mark`` only records which colors changed and in which round, and
``remove`` which left; ``top`` and ``ordered`` key the changed colors and
settle them when read, by point updates or by one rebuild when more than
half of the settled members (and more than eight colors) changed since the
last read.  The model keeps each color's current key and marks the color
whenever a batch changes that key; the ranking's key function answers with
the key the color was given in the round it was marked, so keying at any
other round fails.  Every read must equal what sorting the current keys
gives, however many batches, and however many re-keys of one color, came
between two reads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.ranking import MaintainedRanking

COLORS = range(12)


@st.composite
def batches(draw, colors=COLORS):
    """``("batch", updates, removals)``: inserts, re-keys (several of one
    color, and back to the key it holds), removals and re-adds.  Keys end
    in the color, like every paper ranking, so they are unique per color;
    the small first component makes repeated keys common."""
    removals = draw(st.lists(st.sampled_from(colors), max_size=4))
    updates = []
    for color in draw(st.lists(st.sampled_from(colors), max_size=14)):
        updates.append((color, (draw(st.integers(0, 3)), color)))
    return ("batch", updates, removals)


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


class Model:
    """The current keys, the keys given per mark round, and the number of
    membership changes."""

    def __init__(self):
        self.keys: dict = {}
        self.marked: dict = {}
        self.version = 0
        self.rnd = 0
        self.ranking = MaintainedRanking(self.key)

    def key(self, color, rnd):
        return self.marked[color, rnd]

    def batch(self, updates, removals):
        self.rnd += 1
        for color in removals:
            if self.keys.pop(color, None) is not None:
                self.version += 1
        self.ranking.remove(removals)
        for color, key in updates:
            if color not in self.keys:
                self.version += 1
            self.keys[color] = self.marked[color, self.rnd] = key
            self.ranking.mark(self.rnd, [color])

    def check(self, read):
        ranking, model = self.ranking, self.keys
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
        assert ranking.version == self.version


def _replay(ops):
    model = Model()
    for op in ops:
        if op[0] == "batch":
            model.batch(op[1], op[2])
        else:
            model.check(op)
    model.check(("ordered",))


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
    fill = ("batch", [(c, (0, c)) for c in COLORS], [])
    _replay([fill, ("ordered",), *stretch, ("top", k)])


class TestSettlePaths:
    """One explicit case per settle path, plus the order-free reads."""

    def _settled(self):
        model = Model()
        model.batch([(c, (0, c)) for c in COLORS], [])
        return model, model.ranking.ordered()

    def test_few_changes_move_in_place(self):
        # One color re-keyed twice, one re-keyed to the key it holds and
        # one removed, against twelve settled members: point updates.
        model, before = self._settled()
        model.batch([(3, (2, 3)), (3, (1, 3)), (5, (0, 5))], removals=[7])
        after = model.ranking.ordered()
        assert after is before
        assert after == [0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 3]

    def test_many_changes_rebuild(self):
        # Nine of twelve members changed: one rebuild.
        model, before = self._settled()
        model.batch([(c, (1, c)) for c in range(9)], [])
        after = model.ranking.ordered()
        assert after is not before
        assert after == [9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8]

    def test_membership_reads_do_not_settle(self):
        model, _ = self._settled()
        keyed = []
        model.ranking._key = lambda color, rnd: keyed.append(color) or model.key(color, rnd)
        model.batch([(2, (1, 2))], removals=[5])
        model.batch([(12, (0, 12))], [])
        ranking = model.ranking
        assert len(ranking) == 12
        assert 12 in ranking and 5 not in ranking
        assert set(ranking.members()) == (set(COLORS) - {5}) | {12}
        assert ranking.version == 14  # twelve inserts, one removal, one insert
        assert ranking._moved and not keyed  # still pending until an ordered read
        assert ranking.top(3) == [0, 1, 3]
        assert not ranking._moved
        assert sorted(keyed) == [2, 12]

    def test_rekeys_leave_the_version(self):
        model, _ = self._settled()
        model.batch([(c, (2, c)) for c in COLORS], [])
        assert model.ranking.version == 12
