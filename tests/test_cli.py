"""CLI tests (python -m repro)."""

import numpy as np
import pytest

from repro.cli import main

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


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.mini"
    path.write_text(DEMO)
    return str(path)


class TestInstrument:
    def test_writes_parseable_output(self, demo_file, tmp_path, capsys):
        out = str(tmp_path / "resilient.mini")
        assert main(["instrument", demo_file, "--split", "-o", out]) == 0
        from repro.ir.parser import parse_program

        program = parse_program(open(out).read())
        assert program.name.endswith("__resilient")
        err = capsys.readouterr().err
        assert "protection plans" in err

    def test_stdout_mode(self, demo_file, capsys):
        assert main(["instrument", demo_file]) == 0
        out = capsys.readouterr().out
        assert "add_to_chksm(use_cs" in out


class TestRun:
    def test_balanced_run(self, demo_file, tmp_path, capsys):
        out = str(tmp_path / "resilient.mini")
        main(["instrument", demo_file, "-o", out])
        code = main(
            ["run", out, "--param", "n=6", "--init", "A=randspd"]
        )
        assert code == 0
        assert "balanced" in capsys.readouterr().out

    def test_reparsed_macros_balance(self, demo_file, tmp_path):
        """Printed macros re-parse to free-standing statements that
        still balance on clean runs."""
        out = str(tmp_path / "resilient.mini")
        main(["instrument", demo_file, "--split", "-o", out])
        from repro.ir.parser import parse_program
        from repro.runtime.interpreter import run_program

        program = parse_program(open(out).read())
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 7))
        result = run_program(
            program, {"n": 7}, initial_values={"A": m @ m.T + 7 * np.eye(7)}
        )
        assert not result.mismatches

    def test_missing_param_value(self, demo_file):
        with pytest.raises(SystemExit):
            main(["run", demo_file, "--param", "n"])

    def test_bad_initializer(self, demo_file):
        with pytest.raises(SystemExit):
            main(["run", demo_file, "--param", "n=4", "--init", "A=frobnicate"])


class TestAnalyze:
    def test_analyze_output(self, demo_file, capsys):
        assert main(["analyze", demo_file]) == 0
        out = capsys.readouterr().out
        assert "S1 -> S2" in out
        assert "use counts" in out

    def test_analyze_coverage_benchmark(self, tmp_path, capsys):
        artifact = str(tmp_path / "ANALYSIS_coverage.json")
        code = main(
            ["analyze", "--benchmark", "jacobi1d", "--json", artifact]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "random_cell" in out
        assert "timeline" in out
        import json

        data = json.load(open(artifact))
        entry = data["benchmarks"]["jacobi1d"]
        assert entry["basis"] == "timeline"
        assert set(entry["models"]) == {
            "random_cell", "addrgen_load", "addrgen_store",
            "stuck_bit", "burst",
        }

    def test_analyze_requires_target(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--coverage"])


class TestLint:
    def test_lint_benchmark_clean(self, capsys):
        assert main(["lint", "--benchmark", "jacobi1d"]) == 0
        assert "finding" in capsys.readouterr().out

    def test_lint_file_mode(self, demo_file, tmp_path, capsys):
        out = str(tmp_path / "resilient.mini")
        main(["instrument", demo_file, "-o", out])
        assert main(["lint", out, "--param", "n=6"]) == 0

    def test_lint_requires_target(self):
        with pytest.raises(SystemExit):
            main(["lint"])

    def test_instrument_lint_flag(self, demo_file, tmp_path, capsys):
        out = str(tmp_path / "resilient.mini")
        code = main(["instrument", demo_file, "--lint", "-o", out])
        assert code == 0


class TestCampaign:
    def test_small_campaign(self, demo_file, capsys):
        code = main(
            [
                "campaign",
                "run",
                demo_file,
                "--param",
                "n=6",
                "--init",
                "A=randspd",
                "--trials",
                "6",
            ]
        )
        assert code == 0
        assert "faults detected" in capsys.readouterr().out

    def test_benchmark_campaign_with_log_and_report(self, tmp_path, capsys):
        log = str(tmp_path / "trials.jsonl")
        code = main(
            [
                "campaign",
                "run",
                "--benchmark",
                "cholesky",
                "--scale",
                "small",
                "--trials",
                "4",
                "--log",
                log,
            ]
        )
        assert code == 0
        run_out = capsys.readouterr().out
        assert "trials" in run_out

        assert main(["campaign", "report", log]) == 0
        report_out = capsys.readouterr().out
        assert "4/4 trials" in report_out

    def test_prune_static(self, capsys):
        code = main(
            [
                "campaign",
                "run",
                "--benchmark",
                "jacobi1d",
                "--scale",
                "small",
                "--trials",
                "12",
                "--prune",
                "static",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "statically predicted" in out

    def test_resume_completes_truncated_log(self, demo_file, tmp_path, capsys):
        log = str(tmp_path / "trials.jsonl")
        args = [
            "campaign",
            "run",
            demo_file,
            "--param",
            "n=6",
            "--init",
            "A=randspd",
            "--trials",
            "5",
            "--log",
            log,
        ]
        assert main(args) == 0
        capsys.readouterr()
        # Simulate a kill: drop the last record and tear the one before.
        lines = open(log).readlines()
        with open(log, "w") as handle:
            handle.write("".join(lines[:-2]) + lines[-2][:10])
        assert main(["campaign", "resume", log]) == 0
        out = capsys.readouterr().out
        assert "recovered from log" in out
        assert main(["campaign", "report", log]) == 0
        assert "5/5 trials" in capsys.readouterr().out

    def test_run_requires_program_or_benchmark(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--trials", "2"])

    #: A program-campaign log header as written before batched
    #: execution was removed: it still carries ``"batch": 1``.
    LEGACY_HEADER = (
        '{"type": "header", "version": 1, "spec": {"trials": 12, '
        '"seed": 5, "program_text": null, "benchmark": "jacobi1d", '
        '"scale": "small", "params": [], "init": [], "init_seed": 0, '
        '"bits": 2, "target_arrays": null, "instrument": true, '
        '"split": true, "hoist": true, "channels": 1, '
        '"backend": "compiled", "recover": false, "recover_retries": 3, '
        '"fault_model": "random_cell", "stuck_window": 0, '
        '"burst_cells": 4, "opt_level": 2, "batch": 1, '
        '"verify_vector": false, "prune": "none", "kind": "program"}}\n'
    )

    def test_legacy_batch_header_reports_and_resumes(self, tmp_path, capsys):
        from repro.campaign import ProgramCampaignSpec, read_log, run_campaign
        from repro.campaign.records import write_record

        spec = ProgramCampaignSpec(
            trials=12, seed=5, benchmark="jacobi1d", scale="small"
        )
        reference = run_campaign(spec, workers=1).records
        log = str(tmp_path / "legacy.jsonl")
        with open(log, "w") as handle:
            handle.write(self.LEGACY_HEADER)
            for record in reference[:5]:
                write_record(handle, record)
        assert main(["campaign", "report", log]) == 0
        assert "5/12 trials" in capsys.readouterr().out
        assert main(["campaign", "resume", log, "--workers", "2"]) == 0
        assert "5 recovered from log" in capsys.readouterr().out
        contents = read_log(log)
        assert [r.canonical() for r in contents.records] == [
            r.canonical() for r in reference
        ]
        assert contents.spec_dict == spec.to_dict()

    def test_report_rejects_unknown_spec_field(self, tmp_path):
        log = tmp_path / "future.jsonl"
        log.write_text(self.LEGACY_HEADER.replace('"batch"', '"warp"'))
        with pytest.raises(SystemExit, match="unreadable program campaign"):
            main(["campaign", "report", str(log)])


class TestMacroParsing:
    def test_macro_statements_round_trip(self):
        from repro.ir.parser import parse_program
        from repro.ir.printer import program_to_text

        source = """
        program p(n) {
          array A[n];
          array __uc_A[n] : i64;
          scalar t;
          add_to_chksm(def_cs, A[0], 2);
          add_to_chksm(e_def_cs, t, 1);
          inc_use_count(__uc_A[1], 3);
          for i = 0 .. n - 1 {
            add_to_chksm(use_cs, A[i], 1);
          }
          assert(def_cs == use_cs, e_def_cs == e_use_cs);
        }
        """
        program = parse_program(source)
        again = parse_program(program_to_text(program))
        # Free-standing checksum statements round-trip exactly (modulo
        # the one-argument inc_use_count printing with amount).
        from repro.ir.nodes import ChecksumAdd, ChecksumAssert

        kinds = [type(s).__name__ for s in program.body]
        assert "ChecksumAdd" in kinds and "ChecksumAssert" in kinds

    def test_bad_checksum_name(self):
        from repro.ir.parser import ParseError, parse_program

        with pytest.raises(ParseError):
            parse_program(
                "program p() { scalar a; add_to_chksm(nonsense, a, 1); }"
            )
