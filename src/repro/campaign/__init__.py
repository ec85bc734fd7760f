"""Parallel, resumable fault-injection campaign engine.

The paper's evaluation (Section 6) is statistical: every coverage
number is a miss rate over thousands of injection trials.  This package
turns a campaign into *pure data* (:class:`CampaignSpec` subclasses)
and shards the trials over worker processes with
**deterministic per-trial seeding** — trial *i* of a campaign seeded
``s`` always draws from ``Random(trial_seed(s, i))``, so an N-worker
run is bit-identical to the serial run and any single trial can be
replayed in isolation by index.

Layout:

* :mod:`repro.campaign.spec` — campaign specs (checksum-coverage and
  program-injection kinds), seed derivation, initial-value builders.
* :mod:`repro.campaign.records` — :class:`TrialRecord`, verdict
  vocabulary, and the JSONL trial-log format with truncation-tolerant
  reads (resume support).
* :mod:`repro.campaign.engine` — :func:`run_campaign` (in-process, or
  sharded over :mod:`repro.service.dispatcher` workers), the resume
  logic, and :class:`CampaignResult`.
* :mod:`repro.campaign.golden` — the process-wide golden-run cache
  (fault-free executions computed once and shared across trials).
* :mod:`repro.campaign.stats` — Wilson confidence intervals and
  campaign summaries.

See ``docs/CAMPAIGNS.md`` for the seeding model, the JSONL schema, and
resume semantics.
"""

from repro.campaign.engine import (
    CampaignResult,
    resume_campaign,
    run_campaign,
)
from repro.campaign.records import (
    VERDICTS,
    TrialRecord,
    read_log,
    write_log,
)
from repro.campaign.spec import (
    ChecksumCampaignSpec,
    ProgramCampaignSpec,
    derive_seed,
    spec_from_dict,
    trial_seed,
)
from repro.campaign.stats import CampaignSummary, summarize, wilson_interval

__all__ = [
    "CampaignResult",
    "CampaignSummary",
    "ChecksumCampaignSpec",
    "ProgramCampaignSpec",
    "TrialRecord",
    "VERDICTS",
    "derive_seed",
    "read_log",
    "resume_campaign",
    "run_campaign",
    "spec_from_dict",
    "summarize",
    "trial_seed",
    "wilson_interval",
    "write_log",
]
