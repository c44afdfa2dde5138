"""The deterministic retry backoff shard-worker respawns wait on."""

from repro.utils.procs import retry_backoff


class TestBackoff:
    def test_deterministic(self):
        assert retry_backoff(7, "E3", 1) == retry_backoff(7, "E3", 1)

    def test_exponential_within_jittered_envelope(self):
        for attempt in (1, 2, 3):
            raw = 0.1 * 2 ** (attempt - 1)
            delay = retry_backoff(0, "t", attempt, base=0.1, cap=10.0)
            assert raw * 0.5 <= delay < raw

    def test_cap_bounds_the_delay(self):
        assert retry_backoff(0, "t", 10, base=1.0, cap=0.2) < 0.2

    def test_distinct_tasks_decorrelate(self):
        delays = {retry_backoff(0, f"t{i}", 1) for i in range(8)}
        assert len(delays) == 8
