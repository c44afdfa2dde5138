"""Property tests for the deterministic seed derivation.

Fault-plan coins and retry-backoff jitter rest on three properties of
``derive_seed``: it is a pure function of ``(root, path)``, distinct paths
get distinct seeds, and derivation never depends on the order in which
other seeds were derived.  Hypothesis searches for violations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.procs import SEED_BITS, derive_seed

roots = st.integers(min_value=0, max_value=2**63 - 1)
labels = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
)


class TestDeriveSeed:
    @given(roots, st.lists(labels, max_size=4))
    def test_pure_function(self, root, path):
        assert derive_seed(root, *path) == derive_seed(root, *path)

    @given(roots, st.lists(labels, max_size=4))
    def test_range(self, root, path):
        seed = derive_seed(root, *path)
        assert 0 <= seed < 2**SEED_BITS

    @given(roots)
    def test_framing_resists_label_splitting(self, root):
        assert derive_seed(root, "ab", "c") != derive_seed(root, "a", "bc")
        assert derive_seed(root, "ab") != derive_seed(root, "ab", "")

    @given(roots)
    def test_types_are_part_of_the_path(self, root):
        assert derive_seed(root, 1) != derive_seed(root, "1")

    @given(roots, roots)
    def test_distinct_roots_distinct_streams(self, a, b):
        if a != b:
            assert derive_seed(a, "x") != derive_seed(b, "x")


class TestCollisionFreedom:
    @settings(max_examples=25)
    @given(
        roots,
        st.lists(labels, min_size=1, max_size=8, unique=True),
        st.integers(min_value=1, max_value=32),
    )
    def test_experiment_by_replication_grid_collision_free(
        self, root, experiments, count
    ):
        # A (label, index) grid, as fault rules over (label, attempt) draw.
        seeds = [
            derive_seed(root, label, i)
            for label in experiments
            for i in range(count)
        ]
        assert len(set(seeds)) == len(experiments) * count

    @settings(max_examples=25)
    @given(roots, st.integers(min_value=2, max_value=200))
    def test_indices_within_one_stream_collision_free(self, root, count):
        seeds = [derive_seed(root, "study", i) for i in range(count)]
        assert len(set(seeds)) == count


class TestOrderIndependence:
    @settings(max_examples=25)
    @given(roots, st.integers(min_value=2, max_value=64), st.randoms())
    def test_derivation_order_is_irrelevant(self, root, count, rnd):
        # Deriving seeds in a shuffled order (as completion-order workers
        # would) yields exactly the in-order values.
        indices = list(range(count))
        rnd.shuffle(indices)
        shuffled = {i: derive_seed(root, "study", i) for i in indices}
        in_order = [derive_seed(root, "study", i) for i in range(count)]
        assert [shuffled[i] for i in range(count)] == in_order

    @given(roots)
    def test_no_hidden_state_between_calls(self, root):
        first = derive_seed(root, "a")
        derive_seed(root, "b")
        derive_seed(root, "c", 0)
        assert derive_seed(root, "a") == first
