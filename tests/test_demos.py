"""Smoke test: every script under demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [p.stem for p in DEMOS] == ["annotation_agreement", "attitude_change",
                                       "heterophily_benchmark", "stance_pipeline"]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
