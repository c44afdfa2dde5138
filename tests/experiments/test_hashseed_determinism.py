"""Cross-process determinism tests.

The determinism contract: simulation results (ledger, schedule, events,
uids) depend only on the instance and the policy — never on the process's
``PYTHONHASHSEED``.  Integer colors hash to themselves and cannot catch a
leak, so these tests run string-colored workloads in fresh subprocesses
under several hash seeds and require one flat digest across every seed,
both engines and the telemetry-on leg.
"""

from tests.core.hashseed import (
    HASHSEED_SEEDS,
    check_hashseed_determinism,
    hashseed_digests,
)


class TestHashseedDeterminism:
    def test_in_process_digests_agree_across_engines(self):
        digests = hashseed_digests()
        assert digests["incremental"] == digests["reference"]

    def test_subprocess_digests_identical_across_seeds(self):
        # One subprocess per PYTHONHASHSEED in {1, 7, 1234}; a raw-set
        # iteration anywhere on the hot path diverges here.
        report = check_hashseed_determinism()
        assert report["seeds"] == list(HASHSEED_SEEDS)
        assert len(report["seeds"]) >= 3
        assert report["identical"], report["digests"]
