"""Command-line interface.

``python -m repro <command>`` exposes the most common workflows without
writing any Python:

* ``info``        — code and architecture summary;
* ``build-code``  — construct the CCSDS C2 (or a scaled / deep-space) code and
  export it as an alist file and/or a circulant-table JSON;
* ``throughput``  — Table 1 style throughput report;
* ``resources``   — Table 2/3 style implementation report for a device;
* ``simulate``    — a BER/PER Eb/N0 sweep with a chosen decoder (resumable
  from a saved curve via ``--resume``);
* ``campaign``    — run/status/resume a declarative multi-experiment
  campaign (:mod:`repro.sim.campaign`) from a JSON spec file;
  ``campaign report`` — paper-style analysis (threshold crossings, coding
  gain, gap to capacity; :mod:`repro.analysis.campaign`) of a finished or
  partial campaign directory in text/markdown/CSV/JSON/HTML, with
  ``--plots`` writing waterfall figures (matplotlib optional); and
  ``campaign verify`` — measured crossings checked against recorded
  reference values (:mod:`repro.analysis.reference_data`), non-zero exit
  on drift beyond tolerance;
* ``components``  — the pluggable component registry
  (:mod:`repro.registry`): ``components list`` shows every registered code
  family, decoder, channel and modulator with its parameter signature, and
  ``components describe <kind> <name>`` the full parameter schema — the
  names usable in campaign specs and ``simulate`` options;
* ``lint``        — the static-analysis gate (:mod:`repro.devtools`):
  AST determinism rules (``REP1xx``) over the source tree and, with
  ``--schemas``, the registry schema cross-checker (``REP2xx``); the CI
  ``static-analysis`` job runs it as ``repro lint src/repro --schemas``.

Every command prints plain ASCII tables (the same helpers the benchmark
harness uses), so output can be diffed against ``benchmarks/output/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


from repro.codes.deepspace import AR4JA_RATES
from repro.devtools.cli import add_lint_arguments, run_lint
from repro.core import (
    CYCLONE_II_EP2C50F,
    STRATIX_II_EP2S180,
    device_library,
    high_speed_architecture,
    implementation_report,
    low_cost_architecture,
    throughput_table,
)
from repro.io.alist import write_alist
from repro.io.circulant_table import save_circulant_spec
from repro.registry import (
    KINDS,
    UnknownComponentError,
    component_names,
    get_component,
    iter_components,
)
from repro.sim import EbN0Sweep, SimulationConfig, SimulationCurve
from repro.sim.campaign import (
    CampaignScheduler,
    CampaignSpec,
    ChannelSpec,
    DecoderSpec,
    ResultStore,
    StoreMismatchError,
)
from repro.utils.formatting import format_table

__all__ = ["main", "build_parser"]


def _code_spec(args) -> "CodeSpec":
    """The code the common --circulant/--deepspace options select.

    One spec serves both :func:`_build_code` and the identity key stamped
    into saved curves, so the two can never drift apart.
    """
    from repro.sim.campaign import CodeSpec

    if getattr(args, "deepspace", None):
        return CodeSpec(
            family="deepspace", rate=args.deepspace, circulant=args.circulant
        )
    return CodeSpec(family="ccsds-c2", circulant=args.circulant or None)


def _build_code(args):
    """Construct the code selected by the common --circulant/--deepspace options."""
    return _code_spec(args).build()


def _add_code_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--circulant",
        type=int,
        default=None,
        help="circulant size (default: 511, the full CCSDS code)",
    )
    parser.add_argument(
        "--deepspace",
        choices=AR4JA_RATES,
        default=None,
        help="build an AR4JA-style deep-space code of this rate instead",
    )


def _cmd_info(args) -> int:
    code = _build_code(args)
    print(f"Code            : ({code.block_length}, {code.dimension})  "
          f"rate {code.rate:.4f}")
    print(f"Circulant size  : {code.circulant_size}")
    print(f"Block array     : {code.spec.row_blocks} x {code.spec.col_blocks}")
    print(f"Edges (messages): {code.num_edges}")
    profile = code.parity_check_matrix().degree_profile()
    print(f"Check degrees   : {profile['check']}")
    print(f"Bit degrees     : {profile['bit']}")
    print()
    print(throughput_table([low_cost_architecture(), high_speed_architecture()]))
    return 0


def _cmd_build_code(args) -> int:
    code = _build_code(args)
    wrote_anything = False
    if args.alist:
        write_alist(code.parity_check_matrix(), args.alist)
        print(f"wrote alist parity-check matrix to {args.alist}")
        wrote_anything = True
    if args.spec:
        save_circulant_spec(code.spec, args.spec)
        print(f"wrote circulant table to {args.spec}")
        wrote_anything = True
    if not wrote_anything:
        print("nothing to do: pass --alist and/or --spec", file=sys.stderr)
        return 2
    return 0


def _cmd_throughput(args) -> int:
    configs = [low_cost_architecture(), high_speed_architecture()]
    if args.clock:
        configs = [c.with_updates(clock_frequency_hz=args.clock * 1e6) for c in configs]
    print(throughput_table(configs, tuple(args.iterations)))
    return 0


def _cmd_resources(args) -> int:
    params = (
        low_cost_architecture() if args.config == "low-cost" else high_speed_architecture()
    )
    devices = device_library()
    if args.device:
        matches = [d for name, d in devices.items() if args.device.lower() in name.lower()]
        if not matches:
            print(f"unknown device {args.device!r}; known: {', '.join(devices)}",
                  file=sys.stderr)
            return 2
        device = matches[0]
    else:
        device = CYCLONE_II_EP2C50F if args.config == "low-cost" else STRATIX_II_EP2S180
    print(implementation_report(params, device))
    return 0


def _cmd_simulate(args) -> int:
    code = _build_code(args)
    decoder_spec = DecoderSpec(args.decoder, args.iterations)
    pipeline = ChannelSpec(kind=args.channel).build()
    config = SimulationConfig(
        max_frames=args.frames,
        target_frame_errors=args.errors,
        batch_frames=min(args.frames, args.batch),
        all_zero_codeword=not args.random_data,
        adaptive_batch=args.adaptive_batch,
    )
    # Stamped into the saved curve and checked on --resume: silently merging
    # points measured with a different code, decoder, channel, iteration
    # budget or seed into one curve would mix physics (or break the resume
    # reproducibility guarantee) the way the campaign store's metadata check
    # forbids.
    identity = {
        "code": _code_spec(args).key,
        "decoder": args.decoder,
        "iterations": args.iterations,
        "channel": args.channel,
        "seed": args.seed,
    }
    resume = None
    if args.resume:
        resume_path = Path(args.resume)
        if resume_path.exists():
            try:
                resume = SimulationCurve.load(resume_path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"cannot load resume curve {resume_path}: {exc}",
                      file=sys.stderr)
                return 2
            mismatched = {
                key: (resume.metadata.get(key), wanted)
                for key, wanted in identity.items()
                if resume.metadata.get(key) not in (None, wanted)
            }
            if mismatched:
                details = "; ".join(
                    f"{key}: curve has {have!r}, requested {want!r}"
                    for key, (have, want) in sorted(mismatched.items())
                )
                print(f"cannot resume {resume_path}: it was measured with a "
                      f"different configuration ({details}); save to a new "
                      "file instead", file=sys.stderr)
                return 2
            skipped = sorted(resume.completed_ebn0() & {float(x) for x in args.ebn0})
            if skipped:
                print(f"resuming from {resume_path}: skipping "
                      f"{len(skipped)} completed point(s) "
                      f"({', '.join(f'{e:g} dB' for e in skipped)})")
    sweep = EbN0Sweep(
        code,
        decoder_spec.factory(code),
        config=config,
        rng=args.seed,
        workers=args.workers,
        pipeline=pipeline,
    )
    curve = sweep.run(
        args.ebn0, label=args.decoder, metadata=identity, resume=resume,
        progress=print,
    )
    # Persist before printing the summary: a broken output pipe must not
    # cost the measured points.
    save_path = args.save or args.resume
    if save_path:
        curve.save(save_path)
    print()
    print(EbN0Sweep.format_curves([curve]))
    if save_path:
        print(f"\ncurve written to {save_path}")
    return 0


def _campaign_progress(label: str, point) -> None:
    print(f"[{label}] Eb/N0 {point.ebn0_db:+.2f} dB: BER {point.ber:.3e} "
          f"FER {point.fer:.3e} ({point.frames} frames)")


def _campaign_status_table(store: ResultStore) -> str:
    rows = []
    problems = []
    status_rows = store.status()
    for row in status_rows:
        if row.get("error"):
            status = "corrupt"
            problems.append(f"  {row['label']}: {row['error']}")
        else:
            status = "done" if row["complete"] else "partial"
        rows.append([
            row["label"],
            f"{row['points_done']}/{row['points_total']}",
            f"{row['frames']:,}",
            f"{row['frame_errors']:,}",
            status,
        ])
    # Aggregate footer: always computed, even when some experiments are
    # corrupt — a single bad curve file must not hide how far the healthy
    # rest of the campaign has progressed.
    done = sum(row["points_done"] for row in status_rows)
    total = sum(row["points_total"] for row in status_rows)
    rows.append([
        "TOTAL",
        f"{done}/{total}",
        f"{sum(row['frames'] for row in status_rows):,}",
        f"{sum(row['frame_errors'] for row in status_rows):,}",
        f"{100.0 * done / total:.0f}%" if total else "-",
    ])
    table = format_table(
        ["Experiment", "Points", "Frames", "Frame errors", "Status"],
        rows,
        title=f"Campaign '{store.spec.name}' ({store.directory})",
    )
    if problems:
        table += "\n\ncorrupt experiments:\n" + "\n".join(problems)
    return table


def _telemetry_rates_line(directory, pending_points: int | None = None) -> str | None:
    """Live progress rates from the recorded event log, or ``None``.

    Rendered by ``campaign status --watch``: everything comes from the
    telemetry a running campaign has already written — watching never
    touches the run itself.
    """
    from repro.obs import EventSchemaError, live_rates, read_events

    log_path = Path(directory) / "telemetry" / "events.jsonl"
    if not log_path.exists():
        return None
    try:
        rates = live_rates(read_events(log_path))
    except (EventSchemaError, OSError) as exc:
        return f"telemetry: unreadable event log ({exc})"
    if rates["frames_per_second"] is None:
        return "telemetry: waiting for events"
    line = (
        f"live: {rates['frames_per_second']:,.0f} frames/s, "
        f"{rates['points']} point(s) in {rates['elapsed_seconds']:.1f} s"
    )
    if rates["completed"]:
        return line + " (run complete)"
    if pending_points and rates["points_per_second"]:
        eta = pending_points / rates["points_per_second"]
        line += f", ETA ~{eta:.0f} s for {pending_points} pending point(s)"
    return line


def _fabric_config_from_args(args, *, fresh: bool = False):
    """Build a FabricConfig from --fabric-* flags, or ``None`` when unused."""
    fabric_dir = getattr(args, "fabric_dir", None)
    fabric_workers = getattr(args, "fabric_workers", None)
    if fabric_dir is None and fabric_workers is None:
        return None
    from repro.fabric import FabricConfig, LeasePolicy

    return FabricConfig(
        broker_dir=fabric_dir,
        local_workers=1 if fabric_workers is None else int(fabric_workers),
        policy=LeasePolicy(ttl=float(getattr(args, "lease_ttl", 30.0))),
        fresh=fresh,
    )


def _run_campaign(store: ResultStore, workers, telemetry=None, fabric=None) -> int:
    scheduler = CampaignScheduler(
        store.spec, store, workers=workers, telemetry=telemetry, fabric=fabric
    )
    # Count progress from the store summary; scheduler.run() derives the
    # job list itself, so don't compute plan()/pending() twice.
    total = store.spec.total_points()
    pending = total - sum(row["points_done"] for row in store.status())
    if fabric is not None:
        mode = f"fabric: {fabric.local_workers} embedded worker(s)"
        if fabric.broker_dir:
            mode += (
                f", broker dir {fabric.broker_dir} (join with "
                f"'repro fabric worker {fabric.broker_dir}')"
            )
    else:
        mode = "serial" if not workers else f"{workers} workers, one shared pool"
    print(f"campaign '{store.spec.name}': {total - pending}/{total} points done, "
          f"{pending} to run ({mode})")
    if scheduler.telemetry is not None:
        print(f"telemetry: recording to {scheduler.telemetry.directory}")
    if fabric is not None:
        from repro.fabric import FabricError

        try:
            curves = scheduler.run(progress=_campaign_progress)
        except FabricError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        curves = scheduler.run(progress=_campaign_progress)
    print()
    print(_campaign_status_table(store))
    print()
    print(EbN0Sweep.format_curves(list(curves.values())))
    print(f"\nresults stored in {store.directory}")
    return 0


def _cmd_campaign_run(args) -> int:
    # Exit code 2 for usage errors (bad spec/directory), so scripts can tell
    # them apart from 1 = "campaign incomplete" (status) and real crashes.
    try:
        spec = CampaignSpec.load(args.spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load campaign spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    directory = args.dir or (Path("campaigns") / spec.name)
    try:
        store = ResultStore.create(directory, spec, fresh=args.fresh)
    except StoreMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        fabric = _fabric_config_from_args(args, fresh=args.fresh)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _run_campaign(
        store, args.workers, telemetry=args.telemetry, fabric=fabric
    )


def _open_store(directory) -> ResultStore | None:
    """Open a campaign directory, or print the problem and return ``None``."""
    try:
        return ResultStore.open(directory)
    except (OSError, StoreMismatchError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot open campaign directory {directory}: {exc}", file=sys.stderr)
        return None


def _cmd_campaign_resume(args) -> int:
    store = _open_store(args.dir)
    if store is None:
        return 2
    try:
        fabric = _fabric_config_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _run_campaign(
        store, args.workers, telemetry=args.telemetry, fabric=fabric
    )


def _cmd_campaign_status(args) -> int:
    if getattr(args, "watch", False):
        return _watch_campaign_status(args.dir, args.interval)
    store = _open_store(args.dir)
    if store is None:
        return 2
    print(_campaign_status_table(store))
    rates = _telemetry_rates_line(store.directory)
    if rates is not None:
        print(rates)
    return 0 if store.is_complete() else 1


def _watch_campaign_status(directory, interval: float) -> int:
    """Re-render the status table every ``interval`` seconds until complete.

    The watch is read-only and resilient: corrupt curve files show up as
    ``corrupt`` rows (with the aggregate footer still counting the healthy
    experiments) instead of killing the loop, and a transiently unreadable
    directory — e.g. mid-write — is retried on the next tick.  Only a
    directory that cannot be opened on the *first* tick is a hard usage
    error.  Live rates and the ETA come from the recorded telemetry event
    log when the campaign runs with telemetry enabled.
    """
    import time

    opened_once = False
    while True:
        store = _open_store(directory)
        if store is None:
            if not opened_once:
                return 2
        else:
            opened_once = True
            status_rows = store.status()
            pending = sum(
                row["points_total"] - row["points_done"] for row in status_rows
            )
            print(_campaign_status_table(store))
            rates = _telemetry_rates_line(store.directory, pending_points=pending)
            if rates is not None:
                print(rates)
            if store.is_complete():
                return 0
        print(flush=True)
        time.sleep(interval)


def _cmd_fabric_worker(args) -> int:
    """Join this process to a running fabric campaign as one worker."""
    from repro.fabric import FabricError, default_worker_id, run_worker

    worker = args.worker_id or default_worker_id()

    def on_job(job) -> None:
        print(f"[{worker}] leased {job.job_id} ({job.size} frames)", flush=True)

    try:
        completed = run_worker(
            args.dir,
            worker_id=worker,
            max_jobs=args.max_jobs,
            poll_seconds=args.poll,
            max_idle_seconds=args.max_idle,
            on_job=on_job,
        )
    except FabricError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"[{worker}] done: {completed} shard(s) completed")
    return 0


def _cmd_campaign_trace(args) -> int:
    """Render the execution trace recorded by a telemetry-enabled run."""
    from repro.obs import EventSchemaError, trace_summary

    try:
        print(trace_summary(args.dir, top=args.top), end="")
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except EventSchemaError as exc:
        print(f"invalid telemetry event log: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_campaign_report(args) -> int:
    # Import here: the analysis layer is not needed by the other (hot-path)
    # subcommands and keeps plain `campaign run` start-up lean.
    from repro.analysis.campaign import CampaignReport, PlottingUnavailableError

    store = _open_store(args.dir)
    if store is None:
        return 2
    try:
        report = CampaignReport.from_store(
            store,
            target_ber=args.target_ber,
            target_fer=args.target_fer,
            include_rates=not args.no_rate,
        )
    except ValueError as exc:
        print(f"cannot build report: {exc}", file=sys.stderr)
        return 2
    html_figures = "auto"
    if args.plots:
        # Figures need the optional matplotlib dependency; fail before any
        # report output so a scripted `--plots` run cannot half-succeed.
        from repro.analysis.campaign import save_report_figures

        metrics = ("ber",) if args.target_fer is None else ("ber", "fer")
        # An HTML report embeds the BER figures rendered here instead of
        # drawing them a second time (SVG output is deterministic, so the
        # result is byte-identical to a fresh render).
        svgs: dict = {}
        try:
            written = save_report_figures(
                report, args.plots, metrics=metrics, svg_sink=svgs
            )
        except PlottingUnavailableError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        for path in written:
            # stderr: without --output the report itself owns stdout, and
            # piped json/csv/html must stay machine-parseable.
            print(f"figure written to {path}", file=sys.stderr)
        html_figures = svgs or "auto"
    text = (
        report.to_html(figures=html_figures)
        if args.format == "html"
        else report.render(args.format)
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text, end="")
    if report.problems:
        print(
            f"warning: {len(report.problems)} experiment(s) had unreadable "
            f"results: {', '.join(sorted(report.problems))}",
            file=sys.stderr,
        )
    return 0


def _cmd_campaign_verify(args) -> int:
    """Check measured crossings against recorded references; exit 1 on drift."""
    from repro.analysis.campaign import CampaignReport
    from repro.analysis.reference_data import compare_to_reference, load_references

    store = _open_store(args.dir)
    if store is None:
        return 2
    references = None
    if args.reference:
        try:
            references = load_references(args.reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot load reference file {args.reference}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        # Crossings are recomputed per reference target; the report's own
        # table targets and rate columns are irrelevant here, so skip the
        # expensive code builds.
        report = CampaignReport.from_store(store, include_rates=False)
        check = compare_to_reference(
            report, args.tolerance_db, references=references
        )
    except ValueError as exc:
        print(f"cannot verify campaign: {exc}", file=sys.stderr)
        return 2
    print(check.to_table())
    if report.problems:
        # An unreadable experiment is a hard failure here, not a warning: a
        # corrupt curve file would otherwise demote its references to
        # "unmatched" and let the gate pass without ever checking them.
        print(
            f"\nFAIL: {len(report.problems)} experiment(s) had unreadable "
            f"results and could not be verified: "
            f"{', '.join(sorted(report.problems))}",
            file=sys.stderr,
        )
        return 1
    if check.passed:
        print(f"\nOK: {len(check.matched)} reference crossing(s) within "
              f"±{check.tolerance_db:g} dB")
        return 0
    if not check.matched:
        print("\nFAIL: no reference matched any experiment of this campaign "
              "(pass --reference with a set recorded for these codes/decoders)",
              file=sys.stderr)
    else:
        print(f"\nFAIL: {len(check.failures)} reference crossing(s) outside "
              f"±{check.tolerance_db:g} dB", file=sys.stderr)
    return 1


def _param_signature(component) -> str:
    """Compact one-line parameter signature for ``components list``."""
    if component.params is None:
        return "(open: any keyword)"
    if not component.params:
        return "-"
    return ", ".join(p.signature() for p in component.params)


def _cmd_components_list(args) -> int:
    rows = [
        [component.kind, component.name, _param_signature(component), component.summary]
        for component in iter_components(args.kind)
    ]
    print(format_table(
        ["Kind", "Name", "Parameters", "Summary"],
        rows,
        title="Registered components (* = required parameter)",
    ))
    print("\nuse `components describe <kind> <name>` for the full schema; "
          "these names are valid in campaign specs and simulate options")
    return 0


def _cmd_components_describe(args) -> int:
    try:
        component = get_component(args.kind, args.name)
    except UnknownComponentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    builder = component.builder
    print(f"{component.kind} {component.name!r}: {component.summary}")
    print(f"builder: {getattr(builder, '__module__', '?')}."
          f"{getattr(builder, '__qualname__', repr(builder))}")
    if component.params is None:
        print("parameters: open schema — any keyword is passed to the builder")
        return 0
    if not component.params:
        print("parameters: none")
        return 0
    rows = []
    for param in component.params:
        rows.append([
            param.name,
            param.type,
            "yes" if param.required else "no",
            "-" if param.default is None else str(param.default),
            "-" if param.choices is None else ", ".join(str(c) for c in param.choices),
            param.doc or "-",
        ])
    print(format_table(
        ["Parameter", "Type", "Required", "Default", "Choices", "Description"],
        rows,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CCSDS LDPC decoder reproduction (DATE 2009) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="code and architecture summary")
    _add_code_options(info)
    info.set_defaults(func=_cmd_info)

    build = sub.add_parser("build-code", help="construct a code and export it")
    _add_code_options(build)
    build.add_argument("--alist", type=str, default=None, help="output alist path")
    build.add_argument("--spec", type=str, default=None, help="output circulant JSON path")
    build.set_defaults(func=_cmd_build_code)

    throughput = sub.add_parser("throughput", help="Table 1 style throughput report")
    throughput.add_argument("--iterations", type=int, nargs="+", default=[10, 18, 50])
    throughput.add_argument("--clock", type=float, default=None, help="clock in MHz")
    throughput.set_defaults(func=_cmd_throughput)

    resources = sub.add_parser("resources", help="Table 2/3 style implementation report")
    resources.add_argument("--config", choices=["low-cost", "high-speed"], default="low-cost")
    resources.add_argument("--device", type=str, default=None,
                           help="device name substring (default: the paper's device)")
    resources.set_defaults(func=_cmd_resources)

    simulate = sub.add_parser("simulate", help="BER/PER Eb/N0 sweep")
    _add_code_options(simulate)
    simulate.add_argument("--decoder", choices=component_names("decoder"),
                          default="nms",
                          help="registered decoder kind (see `components list`)")
    simulate.add_argument("--channel", choices=component_names("channel"),
                          default="awgn",
                          help="registered channel model between modulator and "
                               "decoder (default: soft AWGN)")
    simulate.add_argument("--iterations", type=int, default=18)
    simulate.add_argument("--ebn0", type=float, nargs="+", default=[3.0, 4.0, 5.0])
    simulate.add_argument("--frames", type=int, default=200)
    simulate.add_argument("--errors", type=int, default=50)
    simulate.add_argument("--batch", type=int, default=50)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--random-data", action="store_true",
                          help="encode random data instead of the all-zero codeword")
    simulate.add_argument("--workers", type=int, default=None,
                          help="shard each Eb/N0 point over this many worker "
                               "processes (default: serial; same seed gives "
                               "identical counts either way, but progress "
                               "lines print in completion order)")
    simulate.add_argument("--adaptive-batch", action="store_true",
                          help="grow the batch size geometrically at high SNR "
                               "where frame errors are rare")
    simulate.add_argument("--save", type=str, default=None, help="write the curve as JSON")
    simulate.add_argument("--resume", type=str, default=None,
                          help="previously saved curve JSON: its Eb/N0 points "
                               "are skipped and the completed curve is written "
                               "back (same seed => counts identical to an "
                               "uninterrupted run)")
    simulate.set_defaults(func=_cmd_simulate)

    def _add_fabric_arguments(parser) -> None:
        parser.add_argument(
            "--fabric-dir", type=str, default=None, metavar="DIR",
            help="run through the campaign fabric with a filesystem work "
                 "broker in DIR; extra processes/hosts sharing DIR join "
                 "with 'repro fabric worker DIR' (curves stay byte-"
                 "identical to serial regardless of the fleet)")
        parser.add_argument(
            "--fabric-workers", type=int, default=None, metavar="N",
            help="embedded fabric workers in this process (default 1 when "
                 "the fabric is enabled; also enables the fabric with an "
                 "in-process broker when --fabric-dir is not given)")
        parser.add_argument(
            "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
            help="fabric lease time-to-live; a worker silent this long "
                 "loses its shard to a retry (default 30)")

    campaign = sub.add_parser(
        "campaign",
        help="declarative multi-experiment campaigns over one shared pool",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    run = campaign_sub.add_parser("run", help="run a campaign from a JSON spec")
    run.add_argument("spec", type=str, help="campaign spec JSON file")
    run.add_argument("--dir", type=str, default=None,
                     help="result directory (default: campaigns/<name>); an "
                          "existing store of the same spec is resumed")
    run.add_argument("--workers", type=int, default=None,
                     help="size of the shared worker pool (default: serial)")
    run.add_argument("--fresh", action="store_true",
                     help="discard any existing results in the directory")
    run.add_argument("--telemetry", action=argparse.BooleanOptionalAction,
                     default=None,
                     help="record an execution event log under "
                          "<dir>/telemetry (default: on when "
                          "REPRO_TELEMETRY=1; results are byte-identical "
                          "either way)")
    _add_fabric_arguments(run)
    run.set_defaults(func=_cmd_campaign_run)

    resume = campaign_sub.add_parser(
        "resume", help="finish an interrupted campaign from its directory"
    )
    resume.add_argument("dir", type=str, help="campaign result directory")
    resume.add_argument("--workers", type=int, default=None,
                        help="size of the shared worker pool (default: serial)")
    resume.add_argument("--telemetry", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="record an execution event log under "
                             "<dir>/telemetry (default: on when "
                             "REPRO_TELEMETRY=1)")
    _add_fabric_arguments(resume)
    resume.set_defaults(func=_cmd_campaign_resume)

    status = campaign_sub.add_parser(
        "status", help="progress summary of a campaign directory "
                       "(exit code 1 while incomplete)"
    )
    status.add_argument("dir", type=str, help="campaign result directory")
    status.add_argument("--watch", action="store_true",
                        help="keep re-rendering the table until the campaign "
                             "completes (live rates and ETA when the run "
                             "records telemetry)")
    status.add_argument("--interval", type=float, default=2.0,
                        help="seconds between --watch refreshes (default 2)")
    status.set_defaults(func=_cmd_campaign_status)

    trace = campaign_sub.add_parser(
        "trace",
        help="execution trace of a telemetry-enabled run: slowest shards, "
             "stage breakdown, pool utilization, early-stop savings",
    )
    trace.add_argument("dir", type=str,
                       help="campaign result directory (or its telemetry/ "
                            "subdirectory)")
    trace.add_argument("--top", type=int, default=8,
                       help="how many slowest shards to list (default 8)")
    trace.set_defaults(func=_cmd_campaign_trace)

    report = campaign_sub.add_parser(
        "report",
        help="paper-style analysis report (crossings, coding gain, "
             "gap to capacity) of a campaign directory",
    )
    report.add_argument("dir", type=str, help="campaign result directory")
    report.add_argument("--format",
                        choices=["text", "markdown", "csv", "json", "html"],
                        default="text",
                        help="output format (default: text; html is a "
                             "self-contained single file with embedded "
                             "figures when matplotlib is installed)")
    report.add_argument("--target-ber", type=float, default=1e-4,
                        help="BER target of the crossing analysis (default 1e-4)")
    report.add_argument("--target-fer", type=float, default=None,
                        help="optional FER target (adds a FER crossing column)")
    report.add_argument("--no-rate", action="store_true",
                        help="skip building codes for the rate / Shannon-gap "
                             "columns (faster for the full 8176-bit code)")
    report.add_argument("--plots", type=str, default=None, metavar="DIR",
                        help="also write waterfall figures (SVG + PNG) to "
                             "this directory (needs matplotlib)")
    report.add_argument("--output", "-o", type=str, default=None,
                        help="write the report to this file instead of stdout")
    report.set_defaults(func=_cmd_campaign_report)

    verify = campaign_sub.add_parser(
        "verify",
        help="check measured crossings against recorded reference values "
             "(the paper's by default); exit 1 when any drifts beyond "
             "tolerance",
    )
    verify.add_argument("dir", type=str, help="campaign result directory")
    verify.add_argument("--reference", type=str, default=None, metavar="FILE",
                        help="reference-crossings JSON "
                             "(default: the paper's recorded Figure 4 / "
                             "Tables 2-3 operating points)")
    verify.add_argument("--tolerance-db", type=float, default=0.1,
                        help="allowed |measured - recorded| drift in dB, "
                             "boundary inclusive (default 0.1)")
    verify.set_defaults(func=_cmd_campaign_verify)

    fabric = sub.add_parser(
        "fabric",
        help="distributed campaign fabric: join worker processes to a "
             "broker directory created by 'campaign run --fabric-dir'",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    fabric_worker = fabric_sub.add_parser(
        "worker",
        help="serve shard jobs from a fabric broker directory until the "
             "coordinator finishes (safe to run on any host sharing the "
             "directory; crashes and duplicates cannot change results)",
    )
    fabric_worker.add_argument("dir", type=str, help="fabric broker directory")
    fabric_worker.add_argument("--worker-id", type=str, default=None,
                               help="worker name in leases and telemetry "
                                    "(default: <host>-<pid>)")
    fabric_worker.add_argument("--max-jobs", type=int, default=None,
                               help="exit after completing this many shards")
    fabric_worker.add_argument("--max-idle", type=float, default=None,
                               metavar="SECONDS",
                               help="exit after this long without a leasable "
                                    "job (default: wait until the "
                                    "coordinator's done marker)")
    fabric_worker.add_argument("--poll", type=float, default=0.2,
                               metavar="SECONDS",
                               help="queue poll interval while idle "
                                    "(default 0.2)")
    fabric_worker.set_defaults(func=_cmd_fabric_worker)

    components = sub.add_parser(
        "components",
        help="inspect the pluggable component registry (codes, decoders, "
             "channels, modulators)",
    )
    components_sub = components.add_subparsers(dest="components_command", required=True)

    comp_list = components_sub.add_parser(
        "list", help="every registered component and its parameter signature"
    )
    comp_list.add_argument("--kind", choices=KINDS, default=None,
                           help="restrict to one component kind")
    comp_list.set_defaults(func=_cmd_components_list)

    comp_describe = components_sub.add_parser(
        "describe", help="full parameter schema of one component"
    )
    comp_describe.add_argument("kind", choices=KINDS, help="component kind")
    comp_describe.add_argument("name", type=str, help="registered name")
    comp_describe.set_defaults(func=_cmd_components_describe)

    lint = sub.add_parser(
        "lint",
        help="static determinism linter and registry schema cross-checker "
             "(REPxxx rules; see docs/devtools.md)",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=run_lint)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
