"""Command-line interface.

Exposes the compiler and the experiment harnesses as a small toolchain:

    python -m repro instrument kernel.mini --split -o resilient.mini
    python -m repro run resilient.mini --param n=16 --init A=randspd
    python -m repro analyze kernel.mini
    python -m repro campaign run kernel.mini --param n=12 --trials 100 \\
        --workers 4 --log trials.jsonl
    python -m repro campaign resume trials.jsonl --workers 4
    python -m repro campaign report trials.jsonl
    python -m repro table1 / figure10 / figure11 ...

Campaigns are deterministic per trial index (same seed => identical
verdicts for any --workers value) and resumable from their JSONL log;
see docs/CAMPAIGNS.md.

``run`` initializers: ``<array>=zeros`` (default), ``rand`` (uniform
[-1,1]), ``randpos`` (uniform [0.5,1.5]), ``randspd`` (symmetric
positive definite, square 2-D arrays), ``arange``.
"""

from __future__ import annotations

import argparse
import sys

from repro.instrument.pipeline import InstrumentationOptions
from repro.ir.analysis import validate_program
from repro.ir.parser import parse_program
from repro.ir.printer import program_to_text


def _load(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as error:
        raise SystemExit(str(error)) from None
    program = parse_program(source)
    validate_program(program)
    return program


def _parse_params(pairs: list[str]) -> dict[str, int]:
    params = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"--param needs name=value, got {pair!r}")
        params[name] = int(value)
    return params


def _init_specs(specs: list[str]) -> dict[str, str]:
    how = {}
    for spec in specs:
        name, _, kind = spec.partition("=")
        how[name] = kind or "rand"
    return how


def _initial_values(program, params, specs: list[str], seed: int):
    from repro.campaign.spec import build_initial_values

    try:
        return build_initial_values(program, params, _init_specs(specs), seed)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def cmd_instrument(args) -> int:
    program = _load(args.file)
    if args.baseline == "duplication":
        from repro.instrument.duplication import duplicate_program

        duplicated = duplicate_program(program)
        text = program_to_text(duplicated)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        else:
            print(text)
        return 0
    options = InstrumentationOptions(
        index_set_splitting=args.split,
        hoist_inspectors=not args.no_hoist,
        localize=args.localize,
    )
    from repro.instrument.cache import instrument_cached

    instrumented, report = instrument_cached(program, options)
    if args.lint:
        from repro.analysis.lint import has_errors, lint_program

        issues = lint_program(instrumented)
        for issue in issues:
            print(f"# lint: {issue}", file=sys.stderr)
        if has_errors(issues):
            print("# lint: instrumentation is ill-formed", file=sys.stderr)
            return 1
    text = program_to_text(instrumented)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text)
    print("# protection plans:", file=sys.stderr)
    for name, plan in report.plans.items():
        print(f"#   {name}: {plan.kind.value} ({plan.reason})", file=sys.stderr)
    if report.static_counts:
        print("# compile-time use counts:", file=sys.stderr)
        for label, count in report.static_counts.items():
            print(f"#   {label}: {count}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    from repro.runtime.compile import run_compiled

    program = _load(args.file)
    params = _parse_params(args.param)
    values = _initial_values(program, params, args.init, args.seed)
    if args.recover:
        return _run_with_recovery(args, program, params, values)
    result = run_compiled(
        program,
        params,
        initial_values=values,
        channels=args.channels,
        register_budget=args.register_budget,
    )
    if args.register_budget is not None:
        print(f"register spills: {result.spills}")
    print(f"statements executed: {result.statements_executed}")
    print(f"loads={result.counts.loads} stores={result.counts.stores} "
          f"checksum_ops={result.counts.checksum_ops}")
    print(f"checksums: {result.checksums}")
    if result.mismatches:
        print("CHECKSUM MISMATCH — transient memory error detected:")
        for mismatch in result.mismatches:
            print(f"  {mismatch}")
        return 1
    print("checksums balanced (no error detected)")
    if args.dump:
        for name in args.dump:
            print(f"{name} = {result.memory.to_array(name)}")
    return 0


def _run_with_recovery(args, program, params, values) -> int:
    from repro.recovery import (
        RecoveryPlanError,
        RecoveryPolicy,
        run_with_recovery,
    )

    if args.register_budget is not None:
        raise SystemExit("--recover does not model register budgets")
    if args.recover_retries < 0:
        raise SystemExit(
            f"--recover-retries must be >= 0, got {args.recover_retries}"
        )
    try:
        outcome = run_with_recovery(
            program,
            params,
            initial_values=values,
            channels=args.channels,
            policy=RecoveryPolicy(max_retries=args.recover_retries),
        )
    except RecoveryPlanError as error:
        raise SystemExit(str(error)) from None
    print(f"recovery mode: {outcome.plan.mode} "
          f"(backend={outcome.backend})")
    print(f"epochs run: {outcome.epochs}, replays: {outcome.replays} "
          f"(targeted restores: {outcome.targeted_restores}, "
          f"full restores: {outcome.full_restores})")
    print(f"statements executed: {outcome.statements_executed}")
    print(f"loads={outcome.counts.loads} stores={outcome.counts.stores} "
          f"checksum_ops={outcome.counts.checksum_ops}")
    if outcome.failed:
        print("RECOVERY FAILED — retry budget exhausted:")
        for mismatch in outcome.mismatches:
            print(f"  {mismatch}")
        return 1
    if outcome.detected:
        implicated = ", ".join(outcome.implicated) or "(not localized)"
        print("transient memory error detected and RECOVERED "
              f"(implicated: {implicated})")
    else:
        print("checksums balanced (no error detected)")
    if args.dump:
        for name in args.dump:
            print(f"{name} = {outcome.memory.to_array(name)}")
    return 0


def cmd_analyze(args) -> int:
    if args.coverage or args.benchmark or args.all:
        return _cmd_analyze_coverage(args)
    if args.file is None:
        raise SystemExit("analyze needs a program file, --benchmark, or --all")
    from repro.poly.analysis import program_analysis
    from repro.poly.usecount import compute_live_in_counts

    program = _load(args.file)
    analysis = program_analysis(program)
    model = analysis.model
    print(f"program {program.name}: {len(model.statements)} analyzable "
          f"statement(s), {len(model.unanalyzable)} dynamic")
    print("\nexact flow dependences:")
    for dep in analysis.dependences:
        print(f"  {dep.source.label} -> {dep.target.label} via {dep.read.ref}")
    print("\nuse counts (Algorithm 1):")
    for entry in analysis.use_counts.entries():
        status = "" if entry.exact else "  [fell back to dynamic]"
        print(f"  {entry.statement.label}: {entry.count}{status}")
    print("\nlive-in counts:")
    live_in = compute_live_in_counts(model, analysis.dependences)
    for array, count in live_in.items():
        print(f"  {array}: {count}")
    return 0


def _cmd_analyze_coverage(args) -> int:
    """Static fault-coverage prediction (docs/STATIC_ANALYSIS.md)."""
    import json

    from repro.analysis.coverage import analyze_all, analyze_benchmark
    from repro.programs import ALL_BENCHMARKS

    if args.file is not None:
        raise SystemExit(
            "coverage analysis takes --benchmark/--all, not a file"
        )
    if args.all:
        artifact = analyze_all(
            scale=args.scale, bits=args.bits, channels=args.channels
        )
        entries = artifact["benchmarks"]
    else:
        if args.benchmark not in ALL_BENCHMARKS:
            raise SystemExit(
                f"unknown benchmark '{args.benchmark}' "
                f"(choices: {', '.join(sorted(ALL_BENCHMARKS))})"
            )
        entry = analyze_benchmark(
            args.benchmark,
            scale=args.scale,
            bits=args.bits,
            channels=args.channels,
        )
        artifact = {
            "version": 1,
            "scale": args.scale,
            "bits": args.bits,
            "channels": args.channels,
            "benchmarks": {args.benchmark: entry},
        }
        entries = artifact["benchmarks"]
    header = (
        f"{'benchmark':10s} {'basis':12s} {'model':13s} "
        f"{'detected':>9s} {'masked':>9s} {'vulnerable':>10s} "
        f"{'unknown':>9s} {'no_inj':>7s}"
    )
    print(header)
    for name, entry in entries.items():
        for model, data in entry["models"].items():
            classes = data["classes"]
            print(
                f"{name:10s} {entry['basis']:12s} {model:13s} "
                f"{classes.get('detected', 0.0):9.4f} "
                f"{classes.get('masked', 0.0):9.4f} "
                f"{classes.get('vulnerable', 0.0):10.4f} "
                f"{classes.get('unknown', 0.0):9.4f} "
                f"{classes.get('no_injection', 0.0):7.4f}"
            )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(artifact, handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.lint import has_errors, lint_program

    if (args.file is None) == (args.benchmark is None):
        raise SystemExit("lint needs a program file OR --benchmark")
    params = _parse_params(args.param) or None
    if args.benchmark is not None:
        from repro.campaign.spec import ProgramCampaignSpec

        spec = ProgramCampaignSpec(
            trials=1, seed=0, benchmark=args.benchmark, scale=args.scale
        )
        prepared = spec.prepare()
        program, params = prepared.program, prepared.params
        what = f"benchmark {args.benchmark} (instrumented, {args.scale})"
    else:
        program = _load(args.file)
        what = args.file
    issues = lint_program(program, params)
    print(f"lint {what}: {len(issues)} finding(s)")
    for issue in issues:
        print(f"  {issue}")
    if has_errors(issues):
        return 1
    return 0


def _campaign_spec_from_args(args):
    from repro.campaign import ProgramCampaignSpec

    if (args.file is None) == (args.benchmark is None):
        raise SystemExit("campaign run needs a program file OR --benchmark")
    kwargs = dict(
        trials=args.trials,
        seed=args.seed,
        bits=args.bits,
        split=not args.no_split,
        hoist=not args.no_hoist,
        channels=args.channels,
        recover=args.recover,
        recover_retries=args.recover_retries,
        fault_model=args.fault_model,
        stuck_window=args.stuck_window,
        burst_cells=args.burst_cells,
        prune=args.prune,
    )
    if args.benchmark is not None:
        from repro.programs import ALL_BENCHMARKS

        if args.benchmark not in ALL_BENCHMARKS:
            raise SystemExit(
                f"unknown benchmark '{args.benchmark}' "
                f"(choices: {', '.join(sorted(ALL_BENCHMARKS))})"
            )
        try:
            return ProgramCampaignSpec(
                benchmark=args.benchmark,
                scale=args.scale,
                params=_parse_params(args.param),
                **kwargs,
            )
        except ValueError as error:
            raise SystemExit(str(error)) from None
    try:
        with open(args.file) as handle:
            text = handle.read()
    except OSError as error:
        raise SystemExit(str(error)) from None
    try:
        return ProgramCampaignSpec(
            program_text=text,
            params=_parse_params(args.param),
            init=_init_specs(args.init),
            init_seed=args.seed,
            **kwargs,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _print_campaign_result(result) -> int:
    summary = result.summary()
    mode = (
        f"{result.workers} workers" if result.workers > 1 else "serial"
    )
    print(
        f"campaign: {summary.trials} trials in {result.elapsed:.2f}s "
        f"({mode}"
        + (
            f", {result.resumed_trials} recovered from log"
            if result.resumed_trials
            else ""
        )
        + ")"
    )
    if result.log_path:
        print(f"log: {result.log_path}")
    pruned = getattr(result, "pruned", 0)
    if pruned:
        print(
            f"pruned: {pruned} trial(s) statically predicted "
            "(not executed; see docs/STATIC_ANALYSIS.md)"
        )
    print(summary.format())
    _print_run_stats(
        {
            "store": result.store,
            "trials": result.trials,
            "service": result.service,
        }
    )
    if summary.counts.get("sdc") or summary.counts.get("benign"):
        print(
            "note: benign/sdc trials hit dead or pre-definition data "
            "(see EXPERIMENTS.md)"
        )
    return 0


def _print_run_stats(stats: dict) -> None:
    """The trial-path, service and artifact-store lines of one run —
    from a fresh :class:`CampaignResult` or a log's stats trailer
    (older trailers have no trial paths, and print none; their
    ``vector`` group is ignored)."""
    trials = stats.get("trials")
    if trials is not None:
        print(
            f"trial paths: carriers={trials.get('carriers', 0)} "
            f"forked={trials.get('forked', 0)} "
            f"trapped={trials.get('trapped', 0)}"
        )
    if stats.get("service") is not None:
        print(_format_service_stats(stats["service"]))
    line = _format_store_stats(stats.get("store") or {})
    if line:
        print(line)


def _format_service_stats(service: dict) -> str:
    reports = service.get("reports") or []
    rates = [r["trials_per_sec"] for r in reports if r.get("trials_per_sec")]
    rate = f" avg_shard_rate={sum(rates) / len(rates):.1f}/s" if rates else ""
    return (
        f"service: workers={service.get('workers')} "
        f"shards={service.get('shards')} "
        f"shard_trials={service.get('shard_trials')} "
        f"reissued={service.get('reissued')}" + rate
    )


def _format_store_stats(store: dict) -> str | None:
    """One aggregate line over the touched artifact-store namespaces."""
    from repro.service.store import namespace_hit_rate

    touched = {
        name: entry
        for name, entry in store.items()
        if entry.get("hits") or entry.get("misses") or entry.get("disk_hits")
    }
    if not touched:
        return None
    parts = " ".join(
        f"{name}={entry.get('hits', 0)}h/{entry.get('disk_hits', 0)}d/"
        f"{entry.get('misses', 0)}m"
        for name, entry in sorted(touched.items())
    )
    rate = namespace_hit_rate(touched)
    return f"artifact store: {parts} hit_rate={100 * rate:.1f}%"


def _progress_printer():
    """Live shard progress on stderr (stdout and the log are unchanged)."""

    def show(progress) -> None:
        low, high = progress.detection_interval
        report = progress.last_report
        tail = (
            f" | shard {report.shard_id} x{report.trials} "
            f"@{report.trials_per_sec:.1f}/s (worker {report.worker})"
            if report is not None
            else ""
        )
        if progress.reissued:
            tail += f" | {progress.reissued} reissued"
        print(
            f"[progress] {progress.done_trials}/{progress.total_trials} "
            f"trials ({progress.completed_shards}/{progress.total_shards} "
            f"shards, {progress.trials_per_sec:.1f}/s, detection CI "
            f"[{100 * low:.1f}%, {100 * high:.1f}%])" + tail,
            file=sys.stderr,
            flush=True,
        )

    return show


def cmd_campaign_run(args) -> int:
    import os

    from repro.campaign import run_campaign
    from repro.service.store import ENV_STORE_DIR

    spec = _campaign_spec_from_args(args)
    # Sharded runs on a terminal show their progress as it comes in.
    live = args.workers > 1 and sys.stderr.isatty()
    previous = os.environ.get(ENV_STORE_DIR)
    if args.store:
        # Via the environment so the forked workers inherit it, for
        # this run only: a later call in this process must not see it.
        os.environ[ENV_STORE_DIR] = args.store
    try:
        result = run_campaign(
            spec,
            workers=args.workers,
            log_path=args.log,
            resume=args.resume,
            progress=_progress_printer() if live else None,
        )
    except (ValueError, RuntimeError) as error:
        raise SystemExit(str(error)) from None
    finally:
        if args.store:
            if previous is None:
                os.environ.pop(ENV_STORE_DIR, None)
            else:
                os.environ[ENV_STORE_DIR] = previous
    return _print_campaign_result(result)


def cmd_campaign_resume(args) -> int:
    from repro.campaign import resume_campaign

    try:
        result = resume_campaign(args.log, workers=args.workers)
    except (ValueError, RuntimeError, OSError) as error:
        raise SystemExit(str(error)) from None
    return _print_campaign_result(result)


def cmd_campaign_report(args) -> int:
    from repro.campaign import read_log, summarize
    from repro.campaign.spec import spec_from_dict

    try:
        contents = read_log(args.log)
        spec = (
            spec_from_dict(contents.spec_dict)
            if contents.spec_dict is not None
            else None
        )
    except (OSError, ValueError) as error:
        raise SystemExit(str(error)) from None
    if spec is not None:
        done = len(contents.records)
        print(
            f"campaign log: {args.log} — {done}/{spec.trials} trials"
            + (" (truncated tail dropped)" if contents.truncated else "")
        )
        backend = contents.spec_dict.get("backend")
        if backend is not None:
            print(f"backend: {backend}")
        fault_model = contents.spec_dict.get("fault_model")
        if fault_model is not None:
            print(f"fault model: {fault_model}")
        predicted = sum(
            1
            for record in contents.records
            if record.extra and record.extra.get("predicted")
        )
        if predicted:
            print(
                f"pruned: {predicted} trial(s) statically predicted "
                "(not executed)"
            )
        if done < spec.trials:
            print(
                f"incomplete: resume with "
                f"`repro campaign resume {args.log}`"
            )
    print(summarize(contents.records).format())
    if contents.stats is not None:
        # The stats trailer carries the aggregate counters of the run
        # that wrote the log, its workers included.
        _print_run_stats(contents.stats)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compiler-assisted transient-memory-error detection "
        "(PLDI 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inst = sub.add_parser("instrument", help="insert def/use checksums")
    p_inst.add_argument("file")
    p_inst.add_argument("-o", "--output")
    p_inst.add_argument("--split", action="store_true",
                        help="apply index-set splitting (Algorithm 2)")
    p_inst.add_argument("--no-hoist", action="store_true",
                        help="re-run inspectors every while iteration")
    p_inst.add_argument("--localize", action="store_true",
                        help="per-array checksum groups (in-memory only; "
                        "the qualified names do not re-parse)")
    p_inst.add_argument("--baseline", choices=("duplication",),
                        default=None,
                        help="emit a baseline transform instead of the "
                        "def/use checksum scheme")
    p_inst.add_argument("--lint", action="store_true",
                        help="lint the instrumented output "
                        "(issues to stderr; exit 1 on errors)")
    p_inst.set_defaults(func=cmd_instrument)

    p_run = sub.add_parser("run", help="execute a program on the simulator")
    p_run.add_argument("file")
    p_run.add_argument("--param", action="append", default=[], metavar="n=16")
    p_run.add_argument("--init", action="append", default=[],
                       metavar="A=randspd")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--channels", type=int, default=1,
                       help="checksum channels (2 = rotated second checksum)")
    p_run.add_argument("--register-budget", type=int, default=None,
                       help="per-bundle register file size (enables the "
                       "Section 5 spill modeling; runs the interpreter)")
    p_run.add_argument("--dump", action="append", default=None,
                       metavar="ARRAY", help="print an array after the run")
    p_run.add_argument("--recover", action="store_true",
                       help="run under the epoch checkpoint + re-execution "
                       "recovery controller (docs/RECOVERY.md)")
    p_run.add_argument("--recover-retries", type=int, default=3,
                       help="replay budget per detection episode")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser(
        "analyze",
        help="static analysis: dependences/use counts for a file, or "
        "predicted fault coverage for benchmarks (--benchmark/--all)",
    )
    p_an.add_argument("file", nargs="?", default=None,
                      help="mini-language program (dependence/use-count "
                      "mode)")
    p_an.add_argument("--benchmark", default=None,
                      help="predict fault coverage for one Table 2 "
                      "benchmark (docs/STATIC_ANALYSIS.md)")
    p_an.add_argument("--all", action="store_true",
                      help="predict fault coverage for every benchmark")
    p_an.add_argument("--coverage", action="store_true",
                      help="force coverage mode (implied by "
                      "--benchmark/--all)")
    p_an.add_argument("--scale", choices=("small", "default"),
                      default="small")
    p_an.add_argument("--bits", type=int, default=2)
    p_an.add_argument("--channels", type=int, default=1)
    p_an.add_argument("--json", default=None, metavar="PATH",
                      help="also write the ANALYSIS_coverage.json artifact")
    p_an.set_defaults(func=cmd_analyze)

    p_lint = sub.add_parser(
        "lint",
        help="well-formedness checks for instrumented IR "
        "(exit 1 on errors)",
    )
    p_lint.add_argument("file", nargs="?", default=None,
                        help="instrumented mini-language program")
    p_lint.add_argument("--benchmark", default=None,
                        help="instrument + lint a Table 2 benchmark")
    p_lint.add_argument("--scale", choices=("small", "default"),
                        default="small")
    p_lint.add_argument("--param", action="append", default=[],
                        metavar="n=16",
                        help="parameters enabling the dynamic "
                        "channel-balance check (file mode)")
    p_lint.set_defaults(func=cmd_lint)

    p_camp = sub.add_parser(
        "campaign",
        help="deterministic fault-injection campaigns (run/resume/report)",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_crun = camp_sub.add_parser(
        "run",
        help="run a campaign (sharded over --workers, optionally logged; "
        "live progress on a terminal)",
    )
    p_crun.add_argument("file", nargs="?", default=None,
                        help="mini-language program (or use --benchmark)")
    p_crun.add_argument("--benchmark", default=None,
                        help="a Table 2 benchmark name instead of a file")
    p_crun.add_argument("--scale", choices=("small", "default"),
                        default="small")
    p_crun.add_argument("--param", action="append", default=[],
                        metavar="n=16")
    p_crun.add_argument("--init", action="append", default=[],
                        metavar="A=randspd")
    p_crun.add_argument("--trials", type=int, default=100)
    p_crun.add_argument("--bits", type=int, default=2)
    from repro.runtime.faults import FAULT_MODELS

    p_crun.add_argument("--fault-model", choices=FAULT_MODELS,
                        default="random_cell",
                        help="what each trial injects: value flips "
                        "(random_cell), address-generation faults "
                        "(addrgen_load/addrgen_store), an intermittent "
                        "stuck bit (stuck_bit), or a multi-cell burst "
                        "(burst); see docs/FAULT_MODELS.md")
    p_crun.add_argument("--stuck-window", type=int, default=0,
                        help="stuck_bit: load events the defect stays "
                        "active (0 = max(16, total_loads // 16))")
    p_crun.add_argument("--burst-cells", type=int, default=4,
                        help="burst: consecutive cells struck")
    p_crun.add_argument("--seed", type=int, default=0)
    p_crun.add_argument("--workers", type=int, default=1,
                        help="worker processes the trials are sharded "
                        "over (verdicts are identical for any worker "
                        "count)")
    p_crun.add_argument("--log", default=None,
                        help="JSONL trial log (enables resume)")
    p_crun.add_argument("--resume", action="store_true",
                        help="recover finished trials from --log first")
    p_crun.add_argument("--no-split", action="store_true")
    p_crun.add_argument("--no-hoist", action="store_true")
    p_crun.add_argument("--channels", type=int, default=1)
    p_crun.add_argument("--recover", action="store_true",
                        help="run every trial under the recovery "
                        "controller; verdicts become recovered / "
                        "recovery_failed / sdc_after_recovery")
    p_crun.add_argument("--recover-retries", type=int, default=3,
                        help="replay budget per detection episode")
    p_crun.add_argument("--prune", choices=("none", "static"),
                        default="none",
                        help="static: skip trials the static analysis "
                        "proves detected/masked, recording predicted "
                        "verdicts (docs/STATIC_ANALYSIS.md)")
    p_crun.add_argument("--store", default=None, metavar="DIR",
                        help="shared artifact-store directory for "
                        "golden runs / kernels / instrumented programs "
                        "(sets REPRO_ARTIFACT_STORE; see "
                        "docs/SERVICE.md)")
    p_crun.set_defaults(func=cmd_campaign_run)

    p_cres = camp_sub.add_parser(
        "resume", help="finish a killed campaign from its JSONL log"
    )
    p_cres.add_argument("log")
    p_cres.add_argument("--workers", type=int, default=1)
    p_cres.set_defaults(func=cmd_campaign_resume)

    p_crep = camp_sub.add_parser(
        "report", help="summarize a campaign log (Wilson 95% CIs)"
    )
    p_crep.add_argument("log")
    p_crep.set_defaults(func=cmd_campaign_report)

    for name in ("table1", "figure10", "figure11"):
        p_exp = sub.add_parser(name, help=f"run the {name} experiment")
        p_exp.add_argument("rest", nargs=argparse.REMAINDER)
        p_exp.set_defaults(func=_experiment_runner(name))

    args = parser.parse_args(argv)
    return args.func(args)


def _experiment_runner(name: str):
    def run(args) -> int:
        import importlib

        module = importlib.import_module(f"repro.experiments.{name}")
        module.main(args.rest)
        return 0

    return run


if __name__ == "__main__":
    raise SystemExit(main())
