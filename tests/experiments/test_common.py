"""Unit tests for the experiment infrastructure (common + writer)."""

import pytest

from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, pick


def make_result():
    table = Table(["x"], title="demo")
    table.add_row(1)
    return ExperimentResult(
        experiment_id="EX",
        title="Demo experiment",
        claim="something holds",
        table=table,
    )


class TestExperimentResult:
    def test_check_accumulates(self):
        result = make_result()
        result.check("first", True)
        result.check("second", False)
        assert [c.passed for c in result.checks] == [True, False]
        assert not result.all_passed

    def test_all_passed_when_empty(self):
        assert make_result().all_passed

    def test_render_contains_everything(self):
        result = make_result()
        result.check("good", True)
        result.check("bad", False)
        text = result.render()
        assert "## EX: Demo experiment" in text
        assert "Claim: something holds" in text
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text

    def test_check_coerces_truthiness(self):
        result = make_result()
        result.check("coerced", 1)
        assert result.checks[0].passed is True


class TestPick:
    def test_selects_scale(self):
        params = {"quick": {"n": 1}, "full": {"n": 2}}
        assert pick("full", params) == {"n": 2}

    def test_unknown_scale_lists_choices(self):
        with pytest.raises(ValueError, match="quick"):
            pick("nope", {"quick": {}})


class TestWriter:
    def test_writer_emits_markdown(self, tmp_path, monkeypatch):
        import repro.experiments.writer as writer
        from repro.experiments.adversarial import run_e1

        monkeypatch.setattr(
            "repro.experiments.writer.EXPERIMENTS", {"E1": run_e1}
        )
        out = tmp_path / "EXP.md"
        writer.write_experiments_md(str(out), scale="quick")
        text = out.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "## E1" in text
        assert "Claim-by-claim summary" in text
