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

A campaign-running command (``attack``, ``campaign``, ``experiment``)
that quarantined a work unit prints its result, lists the units on
stderr and exits with status 3 (:data:`EXIT_QUARANTINED`): its tallies
are incomplete.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from repro.errors import AssemblerError, CompileError, ImageError, LayoutError
from repro.resistor import ResistorConfig

#: exit status of a command whose tallies exclude quarantined work units
EXIT_QUARANTINED = 3

#: what a bad input file or path raises; ``main`` reports these as errors
_INPUT_ERRORS = (OSError, AssemblerError, CompileError, LayoutError, ImageError)

#: ``--fault-model`` choices: the :data:`repro.hw.models.FAULT_MODELS` names
#: (models and bench calibrations), spelled out so that start-up does not
#: import NumPy
FAULT_MODEL_NAMES = (
    "clock", "cw-lite-clock", "cw-lite-voltage", "em", "em-probe-4mm",
    "replay", "replay-precise", "skip", "skip-precise", "voltage",
)


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
        program = assemble(handle.read(), base=args.base)
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

    return load_image(args.image, base=args.base, fmt=args.format)


def cmd_discover(args) -> int:
    from repro.campaign import discover_sites

    image = _load_cli_image(args)
    sites = discover_sites(image, strategy=args.strategy)
    print(f"; {args.image}: {len(image.data)} bytes at {image.base:#010x}, "
          f"entry {image.entry:#010x}")
    print(f"; {len(sites)} conditional branch site(s) ({args.strategy} discovery)")
    for site in sites:
        print(site.describe())
    return 0


def cmd_campaign(args) -> int:
    from repro.campaign import DEFAULT_MODELS, run_image_campaign
    from repro.glitchsim.campaign import check_campaign_args

    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    try:
        check_campaign_args(models)
    except ValueError as exc:
        print(f"error: --models must be a comma-separated subset of "
              f"{','.join(DEFAULT_MODELS)} ({exc})", file=sys.stderr)
        return 1
    image = _load_cli_image(args)
    obs = _observer_from_args(args, "campaign-image")
    try:
        result = run_image_campaign(
            image, models=models, strategy=args.strategy, cache=args.cache_dir,
            execution=_exec_options(args), obs=obs,
        )
    finally:
        _finish_observer(obs, args)
    print(result.render(top=args.top))
    return _report_failed_units(result.failed_units)


def cmd_disassemble(args) -> int:
    from repro.isa.disassembler import disassemble, format_listing

    print(format_listing(disassemble(args.hex_bytes, base=args.base)))
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


def _exec_options(args):
    """The one :class:`~repro.exec.ExecOptions` of a campaign-running command."""
    from repro.exec import ExecOptions, console_progress

    return ExecOptions(
        workers=args.workers,
        progress=console_progress() if args.progress else None,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        retries=args.retries,
        unit_timeout=args.unit_timeout,
    )


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
            fault_model=args.fault_model,
            execution=_exec_options(args), obs=obs,
        )
    finally:
        _finish_observer(obs, args)
    print(f"attack={args.attack} defense={config.describe()} stride={args.stride}")
    print(f"  attempts:   {result.attempts}")
    print(f"  successes:  {result.successes} ({result.success_rate * 100:.4f}%)")
    print(f"  detections: {result.detections} ({result.detection_rate * 100:.1f}% "
          f"of det+succ)")
    print(f"  resets:     {result.resets}")
    return _report_failed_units(result.failed_units)


def _report_failed_units(failed_units) -> int:
    """List quarantined work units on stderr; the command's exit status."""
    if not failed_units:
        return 0
    print(f"warning: {len(failed_units)} work unit(s) quarantined after "
          f"exhausting retries (tallies exclude them):", file=sys.stderr)
    for unit in failed_units:
        print(f"  unit {unit.key}: {unit.error} ({unit.attempts} attempts)",
              file=sys.stderr)
    return EXIT_QUARANTINED


def _experiment_dests() -> dict[str, tuple[str, ...]]:
    """The ``experiment`` flags (argparse dests) each artifact consumes; any
    other flag set away from its default is an error, not silently ignored."""
    from repro.exec import ExecOptions

    # every campaign-running artifact takes the ExecOptions fields and the
    # observer's flags
    execution = tuple(f.name for f in fields(ExecOptions)) + ("trace", "metrics_out")
    scan = execution + ("stride", "fault_model")
    return {
        "fig2": execution + ("cache_dir",),
        "table1": scan,
        "table2": scan,
        "table3": scan,
        "table4": (),
        "table5": (),
        "table6": scan,
        "table7": (),
        "search": ("fault_model", "checkpoint_dir", "resume", "trace", "metrics_out"),
    }


def _unused_experiment_flags(args) -> list[str]:
    """Flags set away from their defaults that ``args.name`` does not use."""
    defaults = vars(build_parser().parse_args(["experiment", args.name]))
    used = _experiment_dests()[args.name]
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
    obs = _observer_from_args(args, f"experiment-{name}")
    failed_units = ()
    try:
        if name == "fig2":
            result = experiments.run_figure2(
                cache=args.cache_dir, execution=_exec_options(args), obs=obs,
            )
            failed_units = result.failed_units
        elif name in scans:
            result = scans[name](stride=args.stride, fault_model=args.fault_model,
                                 execution=_exec_options(args), obs=obs)
            by_key = result.results if name == "table6" else result.scans
            failed_units = [unit for scan in by_key.values()
                            for unit in scan.failed_units]
        else:
            result = experiments.run_search(fault_model=args.fault_model,
                                            checkpoint_dir=args.checkpoint_dir,
                                            resume=args.resume, obs=obs)
    finally:
        _finish_observer(obs, args)
    print(result.render())
    return _report_failed_units(failed_units)


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
    p_asm.add_argument("--base", type=_address, default="0x08000000")
    p_asm.add_argument("--output", "-o", default=None, metavar="FILE",
                       help="also write a firmware image (.hex/.ihex → Intel "
                            "HEX, anything else → raw binary) that feeds "
                            "straight into discover/campaign")
    p_asm.set_defaults(func=cmd_assemble)

    p_dis = sub.add_parser("disassemble", help="disassemble hex bytes")
    p_dis.add_argument("hex_bytes", type=_hex_bytes,
                       help="instruction bytes in hex (spaces allowed)")
    p_dis.add_argument("--base", type=_address, default="0x08000000")
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
    p_attack.add_argument("--stride", type=_positive_int("stride"), default=4)
    _add_fault_model_flag(p_attack)
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
    p_camp.add_argument("--top", type=_positive_int("top"), default=None, metavar="N",
                        help="print only the N most exploitable sites")
    p_camp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent outcome-cache directory; per-site "
                             "shards are shared across models and re-runs")
    _add_execution_flags(p_camp, "worker processes, one site's sweeps under "
                                 "every model per unit (0 = all cores)")
    p_camp.set_defaults(func=cmd_campaign)

    p_exp = sub.add_parser("experiment", help="run one paper artifact")
    p_exp.add_argument("name", choices=[
        "fig2", "table1", "table2", "table3", "table4", "table5",
        "table6", "table7", "search",
    ])
    p_exp.add_argument("--stride", type=_positive_int("stride"), default=4)
    _add_fault_model_flag(p_exp)
    p_exp.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent outcome-cache directory for fig2 "
                            "(default: no disk cache)")
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
    parser.add_argument("--base", type=_address, default=None, metavar="ADDR",
                        help="load address for raw images "
                             "(default 0x08000000; Intel HEX carries its own)")
    parser.add_argument("--strategy", choices=["linear", "entry"],
                        default="linear",
                        help="site discovery: linear sweep of the whole image "
                             "(default) or reachable-code walk from the entry "
                             "point (skips literal pools)")


def _add_fault_model_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-model", choices=FAULT_MODEL_NAMES, default=None,
                        metavar="NAME",
                        help="fault model or bench calibration for hw-scan "
                             "campaigns, from the repro.hw.models registry: "
                             f"{', '.join(FAULT_MODEL_NAMES)} (default: the "
                             "paper's clock-glitch model)")


def _add_execution_flags(parser: argparse.ArgumentParser, workers_help: str) -> None:
    """Parallelism, progress, checkpoint/retry, and tracing flags."""
    parser.add_argument("--workers", type=_exec_flag("workers", int), default=1,
                        help=workers_help)
    parser.add_argument("--progress", action="store_true",
                        help="show attempts/sec, tallies, and ETA on stderr")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write per-unit JSONL checkpoints here "
                             "(default with --resume: <cache root>/checkpoints)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from an existing checkpoint, replaying "
                             "completed work units instead of re-running them")
    parser.add_argument("--retries", type=_exec_flag("retries", int), default=0,
                        help="extra attempts for a failing work unit before it "
                             "is quarantined into the failed-units report")
    parser.add_argument("--unit-timeout", type=_exec_flag("unit_timeout", float),
                        default=None, metavar="SEC",
                        help="wall-clock bound per work unit on the "
                             "multiprocessing path (hung workers are rebuilt)")
    parser.add_argument("--trace", action="store_true",
                        help="record spans/counters/events and print a timing "
                             "report to stderr when the run finishes")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the JSONL event log here (implies "
                             "recording; default with --trace: "
                             "<cache root>/runs/<label>-<timestamp>.jsonl)")


def _validated(parse, check):
    """An argparse ``type`` that parses the text, then runs ``check`` on the
    value; a ``ValueError`` from either is a usage error."""
    def convert(text: str):
        try:
            value = parse(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


def _exec_flag(name: str, parse):
    """The ``type`` of an ``ExecOptions`` field's flag: the options object
    itself rejects an out-of-range value."""
    def check(value) -> None:
        from repro.exec import ExecOptions

        ExecOptions(**{name: value})

    return _validated(parse, check)


def _positive_int(name: str):
    """The ``type`` of a flag that takes an integer >= 1."""
    def check(value: int) -> None:
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")

    return _validated(int, check)


def _address(text: str) -> int:
    """An address flag: decimal, or ``0x``/``0o``/``0b``-prefixed."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an address: {text!r}") from None


def _hex_bytes(text: str) -> bytes:
    try:
        return bytes.fromhex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not hex bytes: {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
