"""The claim registry's Monte Carlo rows and the draws they make."""

import pytest

from kellybench import verify, win_counts
from kellybench.verify import _CLAIMS, SCALES, _evaluate


@pytest.mark.parametrize("claim_id", ["drift-trichotomy", "ruin-law"])
def test_win_count_rows_draw_no_wealth(monkeypatch, claim_id):
    # these rows read win counts only: one draw each, and no wealth kernel
    def no_wealth(config):
        raise AssertionError("the wealth kernel ran")

    draws = []

    def recording_win_counts(config):
        draws.append(config)
        return win_counts(config)

    monkeypatch.setattr(verify, "simulate", no_wealth)
    monkeypatch.setattr(verify, "win_counts", recording_win_counts)
    claim = next(c for c in _CLAIMS if c.claim_id == claim_id)
    result = _evaluate(claim, SCALES["quick"], 1)
    assert result.verdict == claim.expected
    assert len(draws) == 1
