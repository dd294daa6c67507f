"""Command line front end.

Three subcommands: ``scan`` prints the metre and per-unit timing
table, ``units`` prints the syllabic unit split, ``synth`` renders a
WAV file.  All three share one front end, so Devanagari input is
detected and converted the same way everywhere.  Machine-readable
output goes to stdout, progress and errors to stderr.  Exit codes:
0 success, 1 pipeline error, 2 usage error (bad options, empty text,
or a file that cannot be read or written).
A reader that closes stdout early (``| head``) ends the run with exit
1 and no message.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ChantError, ConfigError, EmptyVerse, UndecodableFile
from .synthesis import Config, prepare, split_text, synthesize


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "text",
        help="verse text, a path to a text file, or - to read stdin",
    )
    common.add_argument(
        "--beat", type=float, default=Config.beat_seconds, metavar="SECONDS",
        help="beat length in seconds (default %(default)s)",
    )
    common.add_argument(
        "--rate", type=int, default=Config.sample_rate, metavar="HZ",
        help="sample rate (default %(default)s)",
    )
    common.add_argument(
        "--base-freq", type=float, default=Config.base_freq, metavar="HZ",
        help="frequency of the base note (default %(default)s)",
    )
    common.add_argument(
        "--metre-db", metavar="PATH", default=None,
        help="metre database file (default: bundled)",
    )
    common.add_argument(
        "--clips", metavar="DIR", default=None,
        help="directory of recorded unit clips named <unit>_<l|g>.wav",
    )
    common.add_argument(
        "--promote-prbrkrh", action="store_true",
        help="let pr/br/kr clusters and lone h lengthen the syllable before",
    )
    common.add_argument(
        "--no-require-metre", action="store_true",
        help="render unmatched verses flat instead of failing",
    )

    parser = argparse.ArgumentParser(
        prog="versechant",
        description="Chant Sanskrit verse: metre-timed, pitch-contoured audio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "scan", parents=[common],
        help="print metre, weights, pitches, and beat timing",
    )
    sub.add_parser("units", parents=[common], help="print the syllabic unit split")
    synth = sub.add_parser("synth", parents=[common], help="render the verse to WAV")
    synth.add_argument("out", help="output WAV path")
    return parser


def _read_text(arg: str) -> str:
    # one leading byte-order mark, as Windows editors write, is dropped
    if arg == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    try:
        path = Path(arg)
        if path.exists() and path.is_file():
            return path.read_text("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UndecodableFile(path, exc) from None
    except OSError:
        pass
    return arg


def _config(args: argparse.Namespace) -> Config:
    return Config(
        beat_seconds=args.beat,
        sample_rate=args.rate,
        base_freq=args.base_freq,
        promote_light_clusters=args.promote_prbrkrh,
        metre_db_path=args.metre_db,
        clip_dir=args.clips,
        require_metre=not args.no_require_metre,
    )


def _cmd_scan(text: str, config: Config) -> int:
    plan = prepare(text, config)
    metre = plan.analysis.metre
    print(f"metre: {metre.name if metre else 'none'}")
    for q, quarter in enumerate(plan.quarters, start=1):
        print(
            f"quarter {q}: units={len(quarter.timed)} "
            f"T_E={quarter.expected_beats} T_A={quarter.actual_beats}"
        )
        print("  unit t v p beats")
        for tu in quarter.timed:
            beats = tu.render_beats + tu.trailing_silence_beats
            print(
                f"  {tu.unit.text:<8} {int(tu.isolated)} {int(tu.contextual)} "
                f"{tu.pitch:>2} {beats}"
            )
    return 0


def _cmd_units(text: str, config: Config) -> int:
    for units in split_text(text):
        for unit in units:
            print(unit.text)
    return 0


def _cmd_synth(text: str, config: Config, out: str) -> int:
    result = synthesize(text, config, out_path=out)
    metre = result.plan.analysis.metre
    print(
        f"metre: {metre.name if metre else 'none'}; "
        f"{result.plan.total_beats} beats, "
        f"{result.clip.duration_seconds:.2f} s, {result.plan.joins} joins",
        file=sys.stderr,
    )
    print(str(result.wav_path))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _read_text(args.text)
        config = _config(args)
        if args.command == "scan":
            code = _cmd_scan(text, config)
        elif args.command == "units":
            code = _cmd_units(text, config)
        else:
            code = _cmd_synth(text, config, args.out)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (ConfigError, EmptyVerse, UndecodableFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChantError as exc:
        where = f" [{exc.stage}]" if exc.stage else ""
        if exc.quarter is not None:
            where += f" in quarter {exc.quarter}"
        print(f"error{where}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so the
        # interpreter's final flush of stdout has nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        # a missing or unreadable input file, stdin that is not text, or
        # an output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
