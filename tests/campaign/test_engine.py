"""Engine contracts: deterministic sharding, resume, verdicts.

The two headline guarantees (ISSUE 1 acceptance criteria):

* **Differential** — the same campaign seed yields bit-identical
  per-trial verdicts and aggregate rows for 1, 2, and 4 workers.
* **Resume** — a campaign killed mid-log (truncated JSONL) resumes to
  exactly the record set of an uninterrupted run.
"""

import json

import pytest

from repro.campaign import (
    ChecksumCampaignSpec,
    ProgramCampaignSpec,
    read_log,
    resume_campaign,
    run_campaign,
)
from repro.campaign.records import NO_INJECTION
from repro.experiments.table1 import Table1Config, run_cell_campaign

DEMO = """
program demo(n) {
  array A[n][n];
  for j = 0 .. n - 1 {
    S1: A[j][j] = sqrt(A[j][j]);
    for i = j + 1 .. n - 1 {
      S2: A[i][j] = A[i][j] / A[j][j];
    }
  }
}
"""


def canonical(result):
    return [record.canonical() for record in result.records]


CHECKSUM_SPEC = ChecksumCampaignSpec(
    size=64, bits=2, pattern="random", trials=240, seed=20140609
)


class TestDeterministicSharding:
    """The differential guard: serial vs. parallel, same campaign seed."""

    def test_table1_campaign_serial_vs_parallel(self):
        serial = run_campaign(CHECKSUM_SPEC, workers=1)
        two = run_campaign(CHECKSUM_SPEC, workers=2)
        four = run_campaign(CHECKSUM_SPEC, workers=4)
        assert canonical(serial) == canonical(two) == canonical(four)
        assert serial.counts == two.counts == four.counts

    def test_table1_aggregate_rows_identical(self):
        config = Table1Config(
            sizes=(64,), bit_counts=(2,), patterns=("random",),
            trials=240, seed=5,
        )
        serial_row = run_cell_campaign(config, 2, 64, "random")
        config_parallel = Table1Config(
            sizes=(64,), bit_counts=(2,), patterns=("random",),
            trials=240, seed=5, workers=4,
        )
        parallel_row = run_cell_campaign(config_parallel, 2, 64, "random")
        assert serial_row == parallel_row

    def test_program_campaign_serial_vs_parallel(self):
        spec = ProgramCampaignSpec(
            trials=6,
            seed=77,
            program_text=DEMO,
            params={"n": 6},
            init={"A": "randspd"},
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert canonical(serial) == canonical(parallel)

    def test_different_seeds_differ(self):
        other = ChecksumCampaignSpec(
            size=64, bits=2, pattern="random", trials=240, seed=999
        )
        a = run_campaign(CHECKSUM_SPEC, workers=1)
        b = run_campaign(other, workers=1)
        assert canonical(a) != canonical(b)

    def test_counts_only_mode_matches(self):
        full = run_campaign(CHECKSUM_SPEC, workers=1)
        lean = run_campaign(CHECKSUM_SPEC, workers=1, keep_records=False)
        assert lean.records is None
        assert lean.counts == full.counts


class TestResume:
    """Kill-and-resume equals an uninterrupted run."""

    def _truncate(self, path, keep_lines, torn_bytes=17):
        lines = open(path).readlines()
        assert len(lines) > keep_lines + 1
        with open(path, "w") as handle:
            handle.write("".join(lines[:keep_lines]))
            handle.write(lines[keep_lines][:torn_bytes])

    def test_resume_after_truncation_matches_uninterrupted(self, tmp_path):
        log = str(tmp_path / "trials.jsonl")
        uninterrupted = run_campaign(CHECKSUM_SPEC, workers=1)

        run_campaign(CHECKSUM_SPEC, workers=1, log_path=log)
        # Kill mid-log: keep the header + ~half the records, tear the
        # next line in two.
        self._truncate(log, keep_lines=1 + CHECKSUM_SPEC.trials // 2)
        assert read_log(log).truncated

        resumed = run_campaign(
            CHECKSUM_SPEC, workers=2, log_path=log, resume=True
        )
        assert resumed.resumed_trials == CHECKSUM_SPEC.trials // 2
        assert canonical(resumed) == canonical(uninterrupted)
        # The rewritten log is clean and complete.
        contents = read_log(log)
        assert not contents.truncated
        assert [r.canonical() for r in contents.records] == canonical(
            uninterrupted
        )

    def test_resume_from_header_alone(self, tmp_path):
        """resume_campaign reconstructs the spec from the log header."""
        log = str(tmp_path / "trials.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=1, log_path=log)
        self._truncate(log, keep_lines=1 + 20)
        resumed = resume_campaign(log, workers=1)
        assert resumed.spec == CHECKSUM_SPEC
        assert canonical(resumed) == canonical(
            run_campaign(CHECKSUM_SPEC, workers=1)
        )

    def test_resume_header_only_log(self, tmp_path):
        """A log killed before any trial completed still resumes."""
        log = str(tmp_path / "trials.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=1, log_path=log)
        self._truncate(log, keep_lines=1)
        resumed = resume_campaign(log)
        assert resumed.resumed_trials == 0
        assert canonical(resumed) == canonical(
            run_campaign(CHECKSUM_SPEC, workers=1)
        )

    def test_resume_refuses_foreign_log(self, tmp_path):
        log = str(tmp_path / "trials.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=1, log_path=log)
        other = ChecksumCampaignSpec(
            size=64, bits=2, pattern="random", trials=240, seed=1
        )
        with pytest.raises(ValueError):
            run_campaign(other, log_path=log, resume=True)

    def test_resume_requires_log_path(self):
        with pytest.raises(ValueError):
            run_campaign(CHECKSUM_SPEC, resume=True)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_rejected(self, workers, tmp_path):
        log = tmp_path / "trials.jsonl"
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_campaign(CHECKSUM_SPEC, workers=workers, log_path=str(log))
        assert not log.exists()

    def test_completed_log_resumes_to_noop(self, tmp_path):
        log = str(tmp_path / "trials.jsonl")
        first = run_campaign(CHECKSUM_SPEC, workers=1, log_path=log)
        again = resume_campaign(log)
        assert again.resumed_trials == CHECKSUM_SPEC.trials
        assert canonical(again) == canonical(first)


class TestLogFormat:
    def test_header_and_records(self, tmp_path):
        log = str(tmp_path / "trials.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=1, log_path=log)
        lines = [json.loads(line) for line in open(log)]
        assert lines[0]["type"] == "header"
        assert lines[0]["spec"] == CHECKSUM_SPEC.to_dict()
        # header + one line per trial + the stats trailer
        assert len(lines) == 1 + CHECKSUM_SPEC.trials + 1
        assert {line["type"] for line in lines[1:-1]} == {"trial"}
        assert lines[-1]["type"] == "stats"
        assert "store" in lines[-1]

    def test_reader_tolerates_garbage_tail(self, tmp_path):
        log = str(tmp_path / "trials.jsonl")
        run_campaign(CHECKSUM_SPEC, workers=1, log_path=log)
        with open(log, "a") as handle:
            handle.write('{"type": "trial", "index"')
        contents = read_log(log)
        assert contents.truncated
        assert len(contents.records) == CHECKSUM_SPEC.trials


class TestVerdicts:
    def test_no_injection_when_program_never_loads(self):
        """A store-only program gives the injector no load event to
        fire on: the trial must be no_injection, not undetected."""
        spec = ProgramCampaignSpec(
            trials=3,
            seed=1,
            program_text=(
                "program noload(n) { array A[n]; "
                "for i = 0 .. n - 1 { S1: A[i] = 0.5; } }"
            ),
            params={"n": 4},
            instrument=False,
        )
        result = run_campaign(spec, workers=1)
        assert result.counts == {NO_INJECTION: 3}
        summary = result.summary()
        assert summary.injected == 0
        assert summary.detection_rate == 0.0

    def test_instrumented_demo_detects_some_faults(self):
        spec = ProgramCampaignSpec(
            trials=12,
            seed=3,
            program_text=DEMO,
            params={"n": 6},
            init={"A": "randspd"},
        )
        result = run_campaign(spec, workers=1)
        assert result.counts.get("detected", 0) > 0
        assert sum(result.counts.values()) == 12
