"""CLI tests (python -m repro)."""

import json
import os
import re

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

    def test_lint_benchmark_data_dependent(self, capsys):
        """cg's event stream depends on its data, so a zero-data run
        proves nothing about balance on other inputs: skipped, not an
        error."""
        assert main(["lint", "--benchmark", "cg"]) == 0
        out = capsys.readouterr().out
        assert (
            "[balance-skipped] per-generation balance not checked: "
            "event stream depends on data"
        ) in out

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
        paths = [
            line
            for line in run_out.splitlines()
            if line.startswith("trial paths:")
        ]
        assert len(paths) == 1 and "carriers=1" in paths[0]

        assert main(["campaign", "report", log]) == 0
        report_out = capsys.readouterr().out
        assert "4/4 trials" in report_out
        # The stats trailer carries the run's trial paths to the report.
        assert paths[0] in report_out.splitlines()

        # A trailer written before trial paths existed prints no line,
        # and the vector group such trailers carried prints nothing.
        with open(log) as handle:
            lines = handle.readlines()
        trailer = json.loads(lines[-1])
        del trailer["trials"]
        trailer["vector"] = {"runs": 3, "fallbacks": 1, "probes": 4,
                             "engaged_keys": 1, "scalar_keys": 1}
        lines[-1] = json.dumps(trailer) + "\n"
        with open(log, "w") as handle:
            handle.writelines(lines)
        assert main(["campaign", "report", log]) == 0
        old_out = capsys.readouterr().out
        assert "4/4 trials" in old_out
        assert "artifact store:" in old_out
        assert "trial paths" not in old_out
        assert "vector backend" not in old_out

    @pytest.mark.parametrize("argv", [
        ["run", "PROGRAM", "--opt-level", "1"],
        ["campaign", "run", "--benchmark", "jacobi1d", "--opt-level", "0"],
        ["campaign", "serve", "--benchmark", "jacobi1d", "--workers", "2",
         "--opt-level", "2"],
        ["campaign", "run", "--benchmark", "jacobi1d", "--verify-vector"],
        ["campaign", "serve", "--benchmark", "jacobi1d", "--workers", "2",
         "--verify-vector"],
        ["run", "PROGRAM", "--backend", "vector"],
        ["campaign", "run", "--benchmark", "jacobi1d", "--backend", "vector"],
        ["run", "PROGRAM", "--backend", "interp"],
        ["campaign", "run", "--benchmark", "jacobi1d", "--backend",
         "compiled"],
        ["campaign", "run", "--benchmark", "jacobi1d", "--instrument-cache",
         "DIR"],
        ["instrument", "PROGRAM", "--instrument-cache", "DIR"],
        ["campaign", "serve"],
    ], ids=["run-opt-level", "campaign-run-opt-level",
            "campaign-serve-opt-level", "campaign-run-verify-vector",
            "campaign-serve-verify-vector", "run-backend-vector",
            "campaign-run-backend-vector", "run-backend-interp",
            "campaign-run-backend-compiled", "campaign-run-instrument-cache",
            "instrument-instrument-cache", "campaign-serve"])
    def test_removed_flags_are_usage_errors(
        self, argv, demo_file, tmp_path, capsys
    ):
        substitute = {"PROGRAM": demo_file, "DIR": str(tmp_path / "cache")}
        argv = [substitute.get(arg, arg) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("repro") and "error:" in err[-1]
        assert "Traceback" not in "\n".join(err)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("harness", ["figure10", "table1"])
    @pytest.mark.parametrize("flag", [
        ["--backend", "interp"], ["--instrument-cache", "DIR"],
        ["--workers", "0"],
    ], ids=["backend", "instrument-cache", "workers-zero"])
    def test_harness_usage_errors(self, harness, flag, tmp_path, capsys):
        import importlib

        module = importlib.import_module(f"repro.experiments.{harness}")
        argv = [str(tmp_path / "cache") if arg == "DIR" else arg
                for arg in flag]
        with pytest.raises(SystemExit) as exit_info:
            module.main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert "error:" in err[-1] and flag[0] in err[-1]
        assert "Traceback" not in "\n".join(err)

    @pytest.mark.parametrize("argv, message", [
        (["campaign", "run", "--benchmark", "jacobi1d", "--recover",
          "--recover-retries", "-1"], "recover_retries must be >= 0, got -1"),
        (["run", "PROGRAM", "--param", "n=6", "--init", "A=randspd",
          "--recover", "--recover-retries", "-1"],
         "--recover-retries must be >= 0, got -1"),
        (["campaign", "run", "--benchmark", "jacobi1d", "--workers", "-2"],
         "workers must be >= 1, got -2"),
        (["campaign", "run", "--benchmark", "jacobi1d", "--workers", "0"],
         "workers must be >= 1, got 0"),
    ], ids=["campaign-recover-retries", "run-recover-retries",
            "campaign-workers-negative", "campaign-workers-zero"])
    def test_out_of_range_integers_are_rejected(
        self, argv, message, demo_file, tmp_path, capsys
    ):
        """Out-of-range counts fail with one line and exit 1 instead of
        running as if 0 retries or one worker had been asked for."""
        log = tmp_path / "rejected.jsonl"
        argv = [demo_file if arg == "PROGRAM" else arg for arg in argv]
        if argv[0] == "campaign":
            argv += ["--trials", "4", "--log", str(log)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == message
        assert not log.exists()
        assert capsys.readouterr().out == ""

    def test_resume_rejects_zero_workers(self, tmp_path, capsys):
        log = str(tmp_path / "trials.jsonl")
        assert main(["campaign", "run", "--benchmark", "jacobi1d",
                     "--trials", "4", "--log", log]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "resume", log, "--workers", "0"])
        assert exit_info.value.code == "workers must be >= 1, got 0"

    @staticmethod
    def _progress_run(monkeypatch, capsys, workers: int, tty: bool):
        monkeypatch.setattr("sys.stderr.isatty", lambda: tty)
        assert main(["campaign", "run", "--benchmark", "cholesky",
                     "--trials", "8", "--seed", "3",
                     "--workers", str(workers)]) == 0
        captured = capsys.readouterr()
        # Only the timing numbers vary, and the store counters: a
        # worker prepares on its first shard, if it gets one.
        out = re.sub(r"\d+\.\d+s\b|\d+(\.\d+)?/s", "T", "".join(
            line for line in captured.out.splitlines(keepends=True)
            if not line.startswith("artifact store:")
        ))
        progress = [line for line in captured.err.splitlines()
                    if line.startswith("[progress]")]
        return out, progress

    def test_progress_on_a_terminal_goes_to_stderr(self, monkeypatch, capsys):
        out, progress = self._progress_run(monkeypatch, capsys, 2, tty=True)
        assert progress and progress[-1].startswith("[progress] 8/8 trials")
        assert "[progress]" not in out
        quiet_out, quiet = self._progress_run(
            monkeypatch, capsys, 2, tty=False
        )
        assert quiet == [] and quiet_out == out
        serial_out, serial = self._progress_run(
            monkeypatch, capsys, 1, tty=True
        )
        assert serial == []
        assert "(serial)" in serial_out and "service:" not in serial_out

    def test_store_flag_ends_with_its_run(self, tmp_path, monkeypatch):
        """``--store`` reaches the run's workers through the
        environment; later in-process runs must not inherit it."""
        from repro.service.store import (
            ENV_STORE_DIR,
            clear_store,
            set_store_dir,
        )

        monkeypatch.delenv(ENV_STORE_DIR, raising=False)
        set_store_dir(None)
        store = tmp_path / "store"
        run = ["campaign", "run", "--scale", "small", "--trials", "2"]
        clear_store()
        assert main(run + ["--benchmark", "jacobi1d",
                           "--store", str(store)]) == 0
        assert ENV_STORE_DIR not in os.environ
        golden = sorted((store / "golden").iterdir())
        assert len(golden) == 1
        clear_store()
        assert main(run + ["--benchmark", "lu"]) == 0
        assert sorted((store / "golden").iterdir()) == golden
        # A value set before the run is put back, not dropped.
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "outer"))
        assert main(run + ["--benchmark", "jacobi1d",
                           "--store", str(store)]) == 0
        assert os.environ[ENV_STORE_DIR] == str(tmp_path / "outer")

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
    #: execution, the opt levels and the vector backend were removed:
    #: it still carries ``"batch"``, ``"opt_level"`` and
    #: ``"verify_vector"``.
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
        from dataclasses import replace

        from repro.campaign import ProgramCampaignSpec, read_log, run_campaign
        from repro.campaign.records import write_record

        spec = ProgramCampaignSpec(
            trials=12, seed=5, benchmark="jacobi1d", scale="small"
        )
        reference = run_campaign(spec, workers=1).records
        headers = {
            "interp": self.LEGACY_HEADER.replace(
                '"backend": "compiled"', '"backend": "interp"'
            ),
            "batch": self.LEGACY_HEADER,
            "opt_level0": self.LEGACY_HEADER.replace(
                '"opt_level": 2', '"opt_level": 0'
            ),
            "vector": self.LEGACY_HEADER.replace(
                '"backend": "compiled"', '"backend": "vector"'
            ).replace('"verify_vector": false', '"verify_vector": true'),
        }
        for name, header in headers.items():
            log = str(tmp_path / f"legacy-{name}.jsonl")
            with open(log, "w") as handle:
                handle.write(header)
                for record in reference[:5]:
                    write_record(handle, record)
            assert main(["campaign", "report", log]) == 0
            report = capsys.readouterr().out
            assert "5/12 trials" in report
            if name == "interp":
                assert "backend: interp" in report.splitlines()
            assert main(["campaign", "resume", log, "--workers", "2"]) == 0
            assert "5 recovered from log" in capsys.readouterr().out
            contents = read_log(log)
            assert [r.canonical() for r in contents.records] == [
                r.canonical() for r in reference
            ], name
            expected = spec if name != "interp" else replace(
                spec, backend="interp"
            )
            assert contents.spec_dict == expected.to_dict()

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
