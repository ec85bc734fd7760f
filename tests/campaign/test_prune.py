"""``--prune static``: identical results, fewer executed trials."""

from __future__ import annotations

import pytest

from repro.campaign import ProgramCampaignSpec, run_campaign
from repro.campaign.records import read_log


def _spec(**overrides):
    kwargs = dict(
        trials=40,
        seed=3,
        benchmark="jacobi1d",
        scale="small",
    )
    kwargs.update(overrides)
    return ProgramCampaignSpec(**kwargs)


def test_pruned_equals_unpruned():
    """Pruning changes which trials execute, never any verdict or
    injection: the Wilson-CI-bearing aggregate is identical."""
    baseline = run_campaign(_spec())
    pruned = run_campaign(_spec(prune="static"))
    assert pruned.pruned > 0
    assert len(pruned.records) == len(baseline.records)
    by_index = {r.index: r for r in baseline.records}
    for record in pruned.records:
        reference = by_index[record.index]
        assert record.verdict == reference.verdict, record.index
        assert record.injection == reference.injection, record.index
        assert record.seed == reference.seed
    assert (
        pruned.summary().counts == baseline.summary().counts
    )
    assert pruned.summary().detection_interval() == (
        baseline.summary().detection_interval()
    )


@pytest.mark.parametrize(
    "model", ["burst", "stuck_bit", "addrgen_store", "addrgen_load"]
)
def test_pruned_equals_unpruned_other_models(model):
    baseline = run_campaign(_spec(trials=20, fault_model=model))
    pruned = run_campaign(_spec(trials=20, fault_model=model, prune="static"))
    by_index = {r.index: r for r in baseline.records}
    for record in pruned.records:
        reference = by_index[record.index]
        assert record.verdict == reference.verdict, (model, record.index)
        assert record.injection == reference.injection


def test_predicted_records_marked():
    result = run_campaign(_spec(prune="static"))
    predicted = [
        r for r in result.records if r.extra.get("predicted")
    ]
    assert len(predicted) == result.pruned
    for record in predicted:
        assert record.extra["predicted_class"] in ("detected", "masked",
                                                   "no_injection")
        assert record.extra["fault_model"] == "random_cell"


def test_prune_resume_safe(tmp_path):
    """Predicted records land in the log like any other trial: a
    resumed campaign re-executes nothing and reproduces the result."""
    log = tmp_path / "trials.jsonl"
    first = run_campaign(_spec(prune="static"), log_path=str(log))
    assert first.pruned > 0
    contents = read_log(str(log))
    assert len(contents.records) == 40
    resumed = run_campaign(
        _spec(prune="static"), log_path=str(log), resume=True
    )
    assert resumed.resumed_trials == 40
    assert resumed.pruned == 0  # nothing left to prune
    by_index = {r.index: r.verdict for r in first.records}
    for record in resumed.records:
        assert record.verdict == by_index[record.index]


def test_golden_digest_ignores_prune():
    assert (
        _spec().golden_digest() == _spec(prune="static").golden_digest()
    )


def test_prune_validation():
    with pytest.raises(ValueError):
        _spec(prune="bogus")
    with pytest.raises(ValueError):
        _spec(prune="static", recover=True)
