"""Campaign statistics: Wilson intervals and verdict summaries.

Coverage rates from injection campaigns are binomial proportions, often
near 0 or 1 where the normal approximation collapses (the paper's
Table 1 cells sit at 0.0x%).  The Wilson score interval stays inside
[0, 1], behaves at k=0 and k=n, and is the standard choice for
fault-injection reporting.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.campaign.records import (
    BENIGN,
    DETECTED,
    DETECTED_SECOND,
    NO_INJECTION,
    RECOVERED,
    RECOVERY_FAILED,
    SDC,
    SDC_AFTER_RECOVERY,
    UNDETECTED,
    TrialRecord,
)

Z_95 = 1.959963984540054
"""Two-sided 95% normal quantile."""


def wilson_interval(
    successes: int, trials: int, z: float = Z_95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    >>> low, high = wilson_interval(0, 100)
    >>> low
    0.0
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"bad proportion {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # Exact endpoints at k=0 and k=n (centre-half is 0/1 analytically;
    # floating point leaves ~1e-18 residue otherwise).
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return (low, high)


@dataclass
class CampaignSummary:
    """Aggregate view of one campaign's verdicts."""

    trials: int
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def injected(self) -> int:
        """Trials in which a fault actually landed."""
        return self.trials - self.counts.get(NO_INJECTION, 0)

    @property
    def detected(self) -> int:
        """Trials in which a verifier fired.  The recovery verdicts all
        imply detection — the controller only acts on a mismatch — so a
        recovery campaign's detection rate stays comparable to a plain
        campaign's."""
        return (
            self.counts.get(DETECTED, 0)
            + self.counts.get(DETECTED_SECOND, 0)
            + self.recovery_outcomes
        )

    @property
    def recovery_outcomes(self) -> int:
        """Detected trials that went through the recovery controller."""
        return (
            self.counts.get(RECOVERED, 0)
            + self.counts.get(RECOVERY_FAILED, 0)
            + self.counts.get(SDC_AFTER_RECOVERY, 0)
        )

    @property
    def recovered(self) -> int:
        return self.counts.get(RECOVERED, 0)

    @property
    def recovery_rate(self) -> float:
        """Recovered fraction of the trials recovery was attempted on."""
        if self.recovery_outcomes == 0:
            return 0.0
        return self.recovered / self.recovery_outcomes

    def recovery_interval(self, z: float = Z_95) -> tuple[float, float]:
        return wilson_interval(self.recovered, self.recovery_outcomes, z)

    @property
    def detection_rate(self) -> float:
        """Detected fraction of *injected* trials (no_injection excluded)."""
        if self.injected == 0:
            return 0.0
        return self.detected / self.injected

    def detection_interval(self, z: float = Z_95) -> tuple[float, float]:
        return wilson_interval(self.detected, self.injected, z)

    # Table 1 views: an "undetected" rate per checksum scheme, over all
    # trials (checksum campaigns always inject).
    @property
    def missed_one(self) -> int:
        """Trials the first (plain modular) checksum missed."""
        return self.counts.get(DETECTED_SECOND, 0) + self.counts.get(
            UNDETECTED, 0
        )

    @property
    def missed_two(self) -> int:
        """Trials both checksums missed."""
        return self.counts.get(UNDETECTED, 0)

    def format(self) -> str:
        lines = [f"trials:        {self.trials}"]
        for verdict in (
            DETECTED,
            DETECTED_SECOND,
            UNDETECTED,
            SDC,
            BENIGN,
            NO_INJECTION,
            RECOVERED,
            RECOVERY_FAILED,
            SDC_AFTER_RECOVERY,
        ):
            if verdict in self.counts:
                lines.append(f"{verdict + ':':<14} {self.counts[verdict]}")
        if self.injected:
            low, high = self.detection_interval()
            lines.append(
                f"detection:     {self.detected}/{self.injected} injected "
                f"faults detected ({100 * self.detection_rate:.1f}%, "
                f"95% CI [{100 * low:.1f}%, {100 * high:.1f}%])"
            )
        else:
            lines.append("detection:     no faults injected")
        if self.recovery_outcomes:
            low, high = self.recovery_interval()
            lines.append(
                f"recovery:      {self.recovered}/{self.recovery_outcomes} "
                f"detected faults survived "
                f"({100 * self.recovery_rate:.1f}%, "
                f"95% CI [{100 * low:.1f}%, {100 * high:.1f}%])"
            )
        return "\n".join(lines)


def summarize_counts(counts: dict[str, int]) -> CampaignSummary:
    return CampaignSummary(trials=sum(counts.values()), counts=dict(counts))


def summarize(records: Iterable[TrialRecord]) -> CampaignSummary:
    counts = Counter(record.verdict for record in records)
    return summarize_counts(counts)
