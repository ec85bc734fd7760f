"""Trial records and the JSONL campaign-log format.

A campaign log is a JSON-Lines file:

* line 1 — a **header**: ``{"type": "header", "version": 1,
  "spec": {...}}`` where ``spec`` round-trips through
  :func:`repro.campaign.spec.spec_from_dict`;
* every further line — a **trial**: ``{"type": "trial", "index": i,
  "seed": ..., "verdict": ..., "injection": {...}|null,
  "elapsed": ..., "extra": {...}}``.

The log is append-only while a campaign runs, so a killed campaign
leaves a valid prefix plus at most one truncated line.  Readers stop at
the first undecodable line and report how many bytes of tail they
ignored; the engine's resume path re-runs exactly the missing trial
indices (``docs/CAMPAIGNS.md``).

Determinism contract: everything in a record except ``elapsed`` is a
pure function of the campaign spec and the trial index.
:meth:`TrialRecord.canonical` drops the timing so equality over
canonical forms is the "bit-identical campaign" relation the
differential tests assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, TextIO

LOG_VERSION = 1

DETECTED = "detected"
"""A checksum verifier flagged the corruption."""
DETECTED_SECOND = "detected_second"
"""Only the second (rotated) checksum flagged it (checksum campaigns)."""
UNDETECTED = "undetected"
"""The corruption escaped every checksum (checksum campaigns)."""
SDC = "sdc"
"""Undetected *and* the final program state differs from the golden
run — silent data corruption (program campaigns)."""
BENIGN = "benign"
"""Undetected but the corruption never propagated: apart from the
struck cell itself, the final state equals the golden run — the flip
hit dead or already-consumed data (program campaigns)."""
NO_INJECTION = "no_injection"
"""The injector never fired (no loads, or no targetable cells) — the
trial exercised nothing and must not count as undetected."""
RECOVERED = "recovered"
"""Recovery campaigns: a verifier fired, the recovery controller rolled
back and replayed, and the final state equals the golden run — the
fault was survived."""
RECOVERY_FAILED = "recovery_failed"
"""Recovery campaigns: a verifier fired but the retry budget was
exhausted without a clean replay — the run is declared unrecoverable
(fail-stop with state intact)."""
SDC_AFTER_RECOVERY = "sdc_after_recovery"
"""Recovery campaigns: recovery reported success but the final state
still differs from the golden run — the most alarming outcome, tracked
separately precisely because it must stay at zero."""

VERDICTS = (
    DETECTED,
    DETECTED_SECOND,
    UNDETECTED,
    SDC,
    BENIGN,
    NO_INJECTION,
    RECOVERED,
    RECOVERY_FAILED,
    SDC_AFTER_RECOVERY,
)

RECOVERY_VERDICTS = (RECOVERED, RECOVERY_FAILED, SDC_AFTER_RECOVERY)
"""The outcomes only recovery-mode campaigns produce; each implies a
detection (the controller only acts when a verifier fires)."""


@dataclass
class TrialRecord:
    """One injection trial: what was done and what came of it."""

    index: int
    seed: int
    verdict: str
    injection: dict | None = None
    """The fault actually injected (array/indices/bits/at_load for
    program campaigns, flipped bit positions for checksum campaigns);
    ``None`` when the verdict is ``no_injection``."""
    elapsed: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "type": "trial",
            "index": self.index,
            "seed": self.seed,
            "verdict": self.verdict,
            "injection": self.injection,
            "elapsed": self.elapsed,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TrialRecord":
        return cls(
            index=data["index"],
            seed=data["seed"],
            verdict=data["verdict"],
            injection=data.get("injection"),
            elapsed=data.get("elapsed", 0.0),
            extra=data.get("extra", {}),
        )

    def canonical(self) -> dict:
        """The deterministic part of the record (drops ``elapsed``)."""
        data = self.to_json()
        del data["elapsed"]
        return data


def write_header(handle: TextIO, spec_dict: dict) -> None:
    handle.write(
        json.dumps({"type": "header", "version": LOG_VERSION, "spec": spec_dict})
        + "\n"
    )


def write_record(handle: TextIO, record: TrialRecord) -> None:
    handle.write(json.dumps(record.to_json()) + "\n")


def write_stats(handle: TextIO, stats: dict) -> None:
    """Append a stats trailer: aggregate artifact-store / trial-path /
    service counters of the run that wrote the log.
    Readers that predate the trailer skip the line (unknown ``type``);
    resume rewrites drop it, so it always describes a *completed* run."""
    handle.write(json.dumps({"type": "stats", **stats}) + "\n")


def write_log(path: str, spec_dict: dict, records: Iterable[TrialRecord]) -> None:
    """Write a complete log atomically enough for our purposes."""
    with open(path, "w") as handle:
        write_header(handle, spec_dict)
        for record in records:
            write_record(handle, record)


@dataclass
class LogContents:
    """A parsed campaign log (possibly a truncated prefix)."""

    spec_dict: dict | None
    records: list[TrialRecord]
    truncated: bool
    """Whether an undecodable tail (a half-written line) was skipped."""
    stats: dict | None = None
    """The stats trailer (:func:`write_stats`), when the log has one."""

    def by_index(self) -> dict[int, TrialRecord]:
        return {record.index: record for record in self.records}


def read_log(path: str) -> LogContents:
    """Parse a campaign log, tolerating a truncated final line.

    A line that fails to decode (or decodes to a non-dict) ends the
    read: everything before it is a valid prefix written by a single
    append-only writer, everything from it on is the debris of a kill.
    Duplicate trial indices keep the *last* occurrence, so a log that
    was resumed into remains readable.
    """
    spec_dict: dict | None = None
    records: dict[int, TrialRecord] = {}
    truncated = False
    stats: dict | None = None
    with open(path) as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                data = json.loads(stripped)
            except json.JSONDecodeError:
                truncated = True
                break
            if not isinstance(data, dict):
                truncated = True
                break
            if data.get("type") == "header":
                spec_dict = data.get("spec")
            elif data.get("type") == "trial":
                try:
                    record = TrialRecord.from_json(data)
                except KeyError:
                    truncated = True
                    break
                records[record.index] = record
            elif data.get("type") == "stats":
                stats = {k: v for k, v in data.items() if k != "type"}
    ordered = [records[index] for index in sorted(records)]
    return LogContents(
        spec_dict=spec_dict,
        records=ordered,
        truncated=truncated,
        stats=stats,
    )
