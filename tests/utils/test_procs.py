"""The retry backoff ladder shard-worker respawns and loadgen connects wait on."""

from repro.utils.procs import retry_backoff


class TestBackoff:
    def test_deterministic(self):
        assert [retry_backoff(k) for k in range(1, 8)] == [
            0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0,
        ]

    def test_cap_bounds_the_delay(self):
        assert retry_backoff(10, base=1.0, cap=0.2) == 0.2
