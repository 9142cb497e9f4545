"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``assemble <file.s>`` — assemble Thumb source, print a hex listing
  (``-o out.hex``/``out.bin`` writes a loadable firmware image).
- ``disassemble <hex>`` — disassemble halfwords given as hex bytes.
- ``harden <file.c>`` — compile MiniC with GlitchResistor defenses and
  print the instrumentation report plus section sizes.
- ``attack <file.c>`` — harden (or not, with ``--defense none``) and run a
  strided glitch campaign against the ``win`` symbol.
- ``discover <image>`` — load a firmware image (raw or Intel HEX) and list
  every conditional branch site an attacker could glitch.
- ``campaign --image <image>`` — sweep every discovered site under the
  AND/OR/XOR flip models and print the exploitability ranking.
- ``experiment <name>`` — run one paper artifact
  (fig2 | table1 | ... | table7 | search) and print it.
- ``report <events.jsonl>`` — render the timing/metrics summary of a run
  recorded with ``--trace``/``--metrics-out``.
"""

from __future__ import annotations

import argparse
import sys

from repro.resistor import ResistorConfig


def _config_from_args(args) -> ResistorConfig:
    sensitive = tuple(args.sensitive or ())
    if args.defense == "all":
        return ResistorConfig.all(sensitive=sensitive)
    if args.defense == "all-no-delay":
        return ResistorConfig.all_but_delay(sensitive=sensitive)
    if args.defense == "none":
        return ResistorConfig.none()
    return ResistorConfig.only(args.defense, sensitive=sensitive)


def cmd_assemble(args) -> int:
    from repro.isa import assemble

    with open(args.source) as handle:
        program = assemble(handle.read(), base=int(args.base, 0))
    print(f"; {len(program.code)} bytes at {program.base:#010x}")
    for address, size, text in program.listing:
        raw = program.code[address - program.base:address - program.base + size]
        print(f"{address:#010x}: {raw.hex():<12} {text.strip()}")
    for name, address in sorted(program.symbols.items(), key=lambda kv: kv[1]):
        print(f"; {name} = {address:#010x}")
    if args.output:
        from repro.firmware.image import FirmwareImage, write_image

        write_image(FirmwareImage.from_program(program, source=args.source),
                    args.output)
        print(f"; image written to {args.output}")
    return 0


def _load_cli_image(args):
    from repro.firmware.image import load_image

    base = int(args.base, 0) if args.base is not None else None
    return load_image(args.image, base=base, fmt=args.format)


def cmd_discover(args) -> int:
    from repro.campaign import discover_sites
    from repro.errors import ImageError

    try:
        image = _load_cli_image(args)
        sites = discover_sites(image, strategy=args.strategy)
    except ImageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"; {args.image}: {len(image.data)} bytes at {image.base:#010x}, "
          f"entry {image.entry:#010x}")
    print(f"; {len(sites)} conditional branch site(s) ({args.strategy} discovery)")
    for site in sites:
        print(site.describe())
    return 0


def cmd_campaign(args) -> int:
    from repro.campaign import DEFAULT_MODELS, run_image_campaign
    from repro.errors import ImageError

    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    unknown = [m for m in models if m not in DEFAULT_MODELS]
    if unknown or not models:
        print(f"error: --models must be a comma-separated subset of "
              f"{','.join(DEFAULT_MODELS)}", file=sys.stderr)
        return 1
    try:
        image = _load_cli_image(args)
    except ImageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    obs = _observer_from_args(args, "campaign-image")
    try:
        result = run_image_campaign(
            image, models=models, strategy=args.strategy,
            workers=args.workers, cache=args.cache_dir,
            progress=_progress_reporter(args),
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            retries=args.retries, unit_timeout=args.unit_timeout,
            obs=obs, engine=args.engine,
        )
    finally:
        _finish_observer(obs, args)
    print(result.render(top=args.top))
    _report_failed_units(result.failed_units)
    return 0


def cmd_disassemble(args) -> int:
    from repro.isa.disassembler import disassemble, format_listing

    data = bytes.fromhex(args.hex_bytes.replace(" ", ""))
    print(format_listing(disassemble(data, base=int(args.base, 0))))
    return 0


def cmd_harden(args) -> int:
    from repro.resistor import harden

    with open(args.source) as handle:
        source = handle.read()
    hardened = harden(source, _config_from_args(args))
    print(hardened.report.render())
    sizes = hardened.sizes
    print(f"\nsections: text={sizes.text} data={sizes.data} bss={sizes.bss} "
          f"(total {sizes.total} bytes)")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(hardened.compiled.assembly)
        print(f"assembly written to {args.output}")
    return 0


def _progress_reporter(args):
    if args.progress:
        from repro.exec import console_progress

        return console_progress()
    return None


def _observer_from_args(args, label: str):
    """Build an Observer when --trace/--metrics-out asked for one, else None."""
    if not args.trace and args.metrics_out is None:
        return None
    from repro.obs import JsonlSink, Observer, default_events_path

    path = args.metrics_out if args.metrics_out is not None else default_events_path(label)
    return Observer(sink=JsonlSink(path))


def _finish_observer(obs, args) -> None:
    """Close the event log and (with --trace) print the run summary."""
    if obs is None:
        return
    obs.close()
    print(f"event log: {obs.sink.path}", file=sys.stderr)
    if args.trace:
        from repro.obs import render_report

        print(render_report(obs.events), file=sys.stderr)


def cmd_attack(args) -> int:
    from repro.hw.scan import run_defense_scan
    from repro.resistor import harden

    with open(args.source) as handle:
        source = handle.read()
    config = _config_from_args(args)
    hardened = harden(source, config)
    if "win" not in hardened.image.symbols:
        print("error: the program must define a win() function (the attack goal)",
              file=sys.stderr)
        return 1
    obs = _observer_from_args(args, f"attack-{args.attack}")
    try:
        result = run_defense_scan(
            hardened.image, args.attack,
            scenario=args.source, defense=config.describe(), stride=args.stride,
            fault_model=args.fault_model, profile=args.profile,
            workers=args.workers, progress=_progress_reporter(args),
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            retries=args.retries, unit_timeout=args.unit_timeout,
            obs=obs,
        )
    finally:
        _finish_observer(obs, args)
    print(f"attack={args.attack} defense={config.describe()} stride={args.stride}")
    print(f"  attempts:   {result.attempts}")
    print(f"  successes:  {result.successes} ({result.success_rate * 100:.4f}%)")
    print(f"  detections: {result.detections} ({result.detection_rate * 100:.1f}% "
          f"of det+succ)")
    print(f"  resets:     {result.resets}")
    _report_failed_units(result.failed_units)
    return 0


def _report_failed_units(failed_units) -> None:
    if not failed_units:
        return
    print(f"warning: {len(failed_units)} work unit(s) quarantined after "
          f"exhausting retries (tallies exclude them):", file=sys.stderr)
    for unit in failed_units:
        print(f"  {unit.spec!r}: {unit.error} ({unit.attempts} attempts)",
              file=sys.stderr)


#: flags shared by every campaign-running artifact
_EXECUTION_DESTS = ("workers", "progress", "checkpoint_dir", "resume", "retries",
                    "unit_timeout", "trace", "metrics_out")
_SCAN_DESTS = _EXECUTION_DESTS + ("stride", "fault_model", "profile")

#: the ``experiment`` flags (argparse dests) each artifact consumes; any
#: other flag set away from its default is an error, not silently ignored
_EXPERIMENT_DESTS = {
    "fig2": _EXECUTION_DESTS + ("cache_dir", "engine"),
    "table1": _SCAN_DESTS,
    "table2": _SCAN_DESTS,
    "table3": _SCAN_DESTS,
    "table4": (),
    "table5": (),
    "table6": _SCAN_DESTS,
    "table7": (),
    "search": ("fault_model", "profile", "checkpoint_dir", "resume", "trace",
               "metrics_out"),
}


def _unused_experiment_flags(args) -> list[str]:
    """Flags set away from their defaults that ``args.name`` does not use."""
    defaults = vars(build_parser().parse_args(["experiment", args.name]))
    used = _EXPERIMENT_DESTS[args.name]
    return ["--" + dest.replace("_", "-")
            for dest, value in vars(args).items()
            if dest not in used and value != defaults[dest]]


def cmd_experiment(args) -> int:
    import repro.experiments as experiments

    name = args.name
    unused = _unused_experiment_flags(args)
    if unused:
        print(f"error: experiment {name} does not use {', '.join(unused)}",
              file=sys.stderr)
        return 1
    scans = {"table1": experiments.run_table1, "table2": experiments.run_table2,
             "table3": experiments.run_table3, "table6": experiments.run_table6}
    fixed = {"table4": experiments.run_table4, "table5": experiments.run_table5,
             "table7": experiments.run_table7}
    if name in fixed:
        print(fixed[name]().render())
        return 0
    progress = _progress_reporter(args)
    obs = _observer_from_args(args, f"experiment-{name}")
    robust = dict(checkpoint_dir=args.checkpoint_dir, resume=args.resume,
                  retries=args.retries, unit_timeout=args.unit_timeout, obs=obs)
    model = dict(fault_model=args.fault_model, profile=args.profile)
    failed_units = ()
    try:
        if name == "fig2":
            result = experiments.run_figure2(
                workers=args.workers, cache=args.cache_dir, progress=progress,
                engine=args.engine, **robust
            )
            failed_units = result.failed_units
        elif name in scans:
            result = scans[name](stride=args.stride, workers=args.workers,
                                 progress=progress, **model, **robust)
            failed_units = [unit for by_key in result.by_model.values()
                            for scan in by_key.values()
                            for unit in scan.failed_units]
        else:
            result = experiments.run_search(checkpoint_dir=args.checkpoint_dir,
                                            resume=args.resume, obs=obs,
                                            **model)
    finally:
        _finish_observer(obs, args)
    print(result.render())
    _report_failed_units(failed_units)
    return 0


def cmd_report(args) -> int:
    from repro.obs import load_events, render_report

    print(render_report(load_events(args.events)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Glitching Demystified reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("assemble", help="assemble Thumb-16 source")
    p_asm.add_argument("source")
    p_asm.add_argument("--base", default="0x08000000")
    p_asm.add_argument("--output", "-o", default=None, metavar="FILE",
                       help="also write a firmware image (.hex/.ihex → Intel "
                            "HEX, anything else → raw binary) that feeds "
                            "straight into discover/campaign")
    p_asm.set_defaults(func=cmd_assemble)

    p_dis = sub.add_parser("disassemble", help="disassemble hex bytes")
    p_dis.add_argument("hex_bytes")
    p_dis.add_argument("--base", default="0x08000000")
    p_dis.set_defaults(func=cmd_disassemble)

    defense_choices = [
        "all", "all-no-delay", "none",
        "enums", "returns", "branches", "loops", "integrity", "delay",
    ]

    p_hard = sub.add_parser("harden", help="compile MiniC with GlitchResistor")
    p_hard.add_argument("source")
    p_hard.add_argument("--defense", choices=defense_choices, default="all")
    p_hard.add_argument("--sensitive", nargs="*", metavar="GLOBAL")
    p_hard.add_argument("--output", "-o", help="write the generated assembly here")
    p_hard.set_defaults(func=cmd_harden)

    p_attack = sub.add_parser("attack", help="glitch a firmware's win() goal")
    p_attack.add_argument("source")
    p_attack.add_argument("--defense", choices=defense_choices, default="none")
    p_attack.add_argument("--sensitive", nargs="*", metavar="GLOBAL")
    p_attack.add_argument("--attack", choices=["single", "long", "windowed"],
                          default="single")
    p_attack.add_argument("--stride", type=int, default=4)
    _add_fault_model_flags(p_attack)
    _add_execution_flags(p_attack, "worker processes for the scan (0 = all cores)")
    p_attack.set_defaults(func=cmd_attack)

    p_disc = sub.add_parser("discover",
                            help="list every glitchable branch site in an image")
    p_disc.add_argument("image", help="firmware image file (raw or Intel HEX)")
    _add_image_flags(p_disc)
    p_disc.set_defaults(func=cmd_discover)

    p_camp = sub.add_parser(
        "campaign",
        help="sweep every branch site of an image and rank by exploitability",
    )
    p_camp.add_argument("--image", required=True, metavar="FILE",
                        help="firmware image file (raw or Intel HEX) to campaign")
    _add_image_flags(p_camp)
    p_camp.add_argument("--models", default=",".join(("and", "or", "xor")),
                        metavar="LIST",
                        help="comma-separated flip models to sweep "
                             "(subset of and,or,xor; default: all three)")
    p_camp.add_argument("--top", type=int, default=None, metavar="N",
                        help="print only the N most exploitable sites")
    p_camp.add_argument("--engine", choices=["snapshot", "vector"],
                        default="snapshot",
                        help="per-site execution engine (as for experiment fig2)")
    p_camp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent outcome-cache directory; per-site "
                             "shards are shared across models and re-runs")
    _add_execution_flags(p_camp, "worker processes, one site×model sweep per "
                                 "unit (0 = all cores)")
    p_camp.set_defaults(func=cmd_campaign)

    p_exp = sub.add_parser("experiment", help="run one paper artifact")
    p_exp.add_argument("name", choices=[
        "fig2", "table1", "table2", "table3", "table4", "table5",
        "table6", "table7", "search",
    ])
    p_exp.add_argument("--stride", type=int, default=4)
    _add_fault_model_flags(p_exp)
    p_exp.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent outcome-cache directory for fig2 "
                            "(default: no disk cache)")
    p_exp.add_argument("--engine", choices=["snapshot", "vector"],
                       default="snapshot",
                       help="fig2 execution engine: scalar snapshot replay "
                            "(default) or the NumPy lock-step vector backend")
    _add_execution_flags(p_exp, "worker processes for campaign/scan experiments "
                                "(0 = all cores; table4/5/7 and search are serial)")
    p_exp.set_defaults(func=cmd_experiment)

    p_report = sub.add_parser(
        "report", help="summarise a --trace/--metrics-out JSONL event log"
    )
    p_report.add_argument("events", help="path to the JSONL event log")
    p_report.set_defaults(func=cmd_report)

    return parser


def _add_image_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["auto", "raw", "ihex"],
                        default="auto",
                        help="image format (auto sniffs .hex/.ihex/.ihx "
                             "suffixes as Intel HEX, anything else as raw)")
    parser.add_argument("--base", default=None, metavar="ADDR",
                        help="load address for raw images "
                             "(default 0x08000000; Intel HEX carries its own)")
    parser.add_argument("--strategy", choices=["linear", "entry"],
                        default="linear",
                        help="site discovery: linear sweep of the whole image "
                             "(default) or reachable-code walk from the entry "
                             "point (skips literal pools)")


def _add_fault_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-model",
                        choices=["clock", "voltage", "em", "skip", "replay"],
                        default=None,
                        help="injection phenomenology for hw-scan campaigns "
                             "(repro.hw.models registry; default: the paper's "
                             "clock-glitch model)")
    parser.add_argument("--profile", default=None, metavar="NAME",
                        help="named calibration profile (seed/amplitude/band "
                             "bundle) from repro.hw.models.PROFILES, e.g. "
                             "em-probe-4mm; implies its fault model")


def _add_execution_flags(parser: argparse.ArgumentParser, workers_help: str) -> None:
    """Parallelism, progress, checkpoint/retry, and tracing flags."""
    parser.add_argument("--workers", type=int, default=1, help=workers_help)
    parser.add_argument("--progress", action="store_true",
                        help="show attempts/sec, tallies, and ETA on stderr")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write per-unit JSONL checkpoints here "
                             "(default with --resume: <cache root>/checkpoints)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from an existing checkpoint, replaying "
                             "completed work units instead of re-running them")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for a failing work unit before it "
                             "is quarantined into the failed-units report")
    parser.add_argument("--unit-timeout", type=float, default=None, metavar="SEC",
                        help="wall-clock bound per work unit on the "
                             "multiprocessing path (hung workers are rebuilt)")
    parser.add_argument("--trace", action="store_true",
                        help="record spans/counters/events and print a timing "
                             "report to stderr when the run finishes")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the JSONL event log here (implies "
                             "recording; default with --trace: "
                             "<cache root>/runs/<label>-<timestamp>.jsonl)")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
