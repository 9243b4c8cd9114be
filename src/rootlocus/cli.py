"""Command-line interface.

    rootlocus compute <problem.json> --out <dir> [--svg]
                      [--window SLO SHI WLO WHI]

Exit codes: 0 success, 2 parse error (a malformed problem file or a bad
``--window``), 3 validation error, 4 numerical failure (stalled trajectories
or solver breakdown).

``ROOTLOCUS_LOG`` sets the log level: DEBUG, INFO, WARNING (the default),
ERROR or CRITICAL, in any case.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .engine import compute_root_locus
from .errors import ParseError, RootLocusError, ValidationError
from .io import _write_file, emit_results, parse_problem
from .svg import render_svg

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("rootlocus")

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootlocus",
        description="Root locus of SISO dead-time systems in a right half-plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    comp = sub.add_parser("compute", help="compute a root locus from a problem file")
    comp.add_argument("problem", help="path to the JSON problem file")
    comp.add_argument("--out", required=True, help="output directory for result files")
    comp.add_argument("--svg", action="store_true", help="also render rootlocus.svg")
    comp.add_argument(
        "--window",
        nargs=4,
        type=float,
        metavar=("SLO", "SHI", "WLO", "WHI"),
        help="plot window: sigma and omega bounds for the SVG",
    )
    return parser


def _configure_logging() -> None:
    raw = os.environ.get("ROOTLOCUS_LOG") or "WARNING"
    level = raw.upper()
    if level not in _LOG_LEVELS:
        print(
            f"warning: ROOTLOCUS_LOG={raw!r} is not one of {', '.join(_LOG_LEVELS)}; "
            "using WARNING",
            file=sys.stderr,
        )
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    if args.window is not None:
        slo, shi, wlo, whi = args.window
        if not (all(map(math.isfinite, args.window)) and slo < shi and wlo < whi):
            print(
                "error: --window needs four finite values with SLO < SHI and WLO < WHI, "
                f"got {' '.join(map(repr, args.window))}",
                file=sys.stderr,
            )
            return EXIT_PARSE

    try:
        problem = parse_problem(args.problem)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    log.info("problem parsed: %s locus, sigma0=%g, lambda_max=%g",
             problem.kind.value, problem.sigma0, problem.lambda_max)
    try:
        result = compute_root_locus(problem)
    except RootLocusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        written = emit_results(result, args.out)
        if args.svg:
            window = tuple(args.window) if args.window else None
            doc = render_svg(result, window=window, upper_half_only=window is None)
            path = os.path.join(args.out, "rootlocus.svg")
            _write_file(path, doc.encode("utf-8"))
            written.append(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    log.info("wrote %d files to %s", len(written), args.out)
    if result.warnings:
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
