"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
refused oversized run), 3 unsupported torus-link input, 141 broken stdout pipe.

Results of `compute` can be cached as JSON files under a directory given by
--cache-dir or the KHR_CACHE_DIR environment variable; the key embeds the
package version, so a version bump invalidates every entry.  An entry is
one compact line; entries in the older indented layout read the same.  A
cache file that fails to read, to parse or to round-trip is discarded with a
warning and recomputed, and a store that fails is reported with a warning:
the cache is best-effort and never changes a result or an exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import __version__
from .dyck import (
    KnotParams,
    LinksUnsupported,
    enumerate_paths,
    iter_coprime_pairs,
    rational_catalan,
    stats_json,
)
from .formula import euler_characteristic, hhh_direct, superpolynomial
from .laurent import Invariant, invariant_from_json, invariant_json_text, invariant_to_json
from .verify import SUITES, catalan_check, report_lines, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LINKS = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process that signal killed

CACHE_ENV = "KHR_CACHE_DIR"
CACHE_VERSION = __version__
DEFAULT_MAX_LEAVES = 10**7
# verify holds each sweep leaf, factored with its path, in one dict keyed
# by the path's columns until the walk ends (430 B a leaf by tracemalloc
# at (11,10), 730 B with its ratio row), and an identity row per path, so
# it stops lower: its peak RSS (os.wait4) is 22 MB at (10,9), 39 MB at
# (11,10) and 99 MB at (12,11) with text output, 27, 47 and 129 MB with
# json, about 1.5 and 2.0 KB per extra path
VERIFY_MAX_LEAVES = 10**5

FORMS = ("P", "HHH", "euler")
FORMATS = ("text", "json", "latex")


class Refused(Exception):
    """A usage error whose message run() prints as it stands, exiting 2."""


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from exc
    if number < 1:
        raise argparse.ArgumentTypeError(f"{value!r} must be positive")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khr",
        description="Exact (a, q, t) superpolynomial calculator for torus knots.",
    )
    parser.add_argument("--version", action="version", version=f"khr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate one invariant of the (m, n) knot")
    compute.add_argument("m", type=_positive_int)
    compute.add_argument("n", type=_positive_int)
    compute.add_argument("--form", choices=FORMS, default="P")
    compute.add_argument("--format", choices=FORMATS, default="text")
    compute.add_argument("--cache-dir", default=None)
    compute.add_argument("--max-leaves", type=_positive_int, default=DEFAULT_MAX_LEAVES)
    compute.set_defaults(handler=_cmd_compute)

    paths = sub.add_parser("paths", help="list the (m, n) Dyck paths")
    paths.add_argument("m", type=_positive_int)
    paths.add_argument("n", type=_positive_int)
    paths.add_argument("--with-stats", action="store_true")
    paths.add_argument("--format", choices=("text", "json"), default="text")
    paths.add_argument("--max-leaves", type=_positive_int, default=DEFAULT_MAX_LEAVES)
    paths.set_defaults(handler=_cmd_paths)

    verify = sub.add_parser("verify", help="run the consistency suite")
    verify.add_argument("m", type=_positive_int, nargs="?")
    verify.add_argument("n", type=_positive_int, nargs="?")
    verify.add_argument("--range", dest="range_spec", default=None, metavar="msum<=K")
    verify.add_argument(
        "--suite",
        action="append",
        choices=tuple(SUITES),
        help="run only the named suites (repeatable; default all)",
    )
    verify.add_argument(
        "--external-as-warnings",
        action="store_true",
        help="do not fail on the externally known symmetry regressions",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--max-leaves", type=_positive_int, default=VERIFY_MAX_LEAVES)
    verify.set_defaults(handler=_cmd_verify)

    catalan = sub.add_parser("catalan", help="print the Dyck-path count")
    catalan.add_argument("m", type=_positive_int)
    catalan.add_argument("n", type=_positive_int)
    catalan.add_argument("--check", action="store_true", help="compare with the a=0, q=t=1 specialization")
    catalan.add_argument("--format", choices=("text", "json"), default="text")
    catalan.set_defaults(handler=_cmd_catalan)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--cache-dir", default=None)
    cache.set_defaults(handler=_cmd_cache)

    return parser


# -- cache ------------------------------------------------------------------


def _cache_dir(flag_value: Optional[str]) -> Optional[Path]:
    raw = flag_value or os.environ.get(CACHE_ENV)
    return Path(raw) if raw else None


def _cache_path(directory: Path, m: int, n: int, form: str) -> Path:
    return directory / f"compute_{m}_{n}_{form}_v{CACHE_VERSION}.json"


def _cache_payload(m: int, n: int, form: str, value: Invariant) -> dict:
    return {
        "version": CACHE_VERSION,
        "m": m,
        "n": n,
        "form": form,
        "invariant": invariant_to_json(value),
    }


def cache_load(directory: Path, m: int, n: int, form: str) -> Optional[Invariant]:
    path = _cache_path(directory, m, n, form)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        value = invariant_from_json(payload["invariant"])
        if payload != _cache_payload(m, n, form, value):
            raise ValueError("stored payload does not round-trip")
    except (OSError, ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
        print(f"warning: discarding corrupt cache file {path}: {exc}", file=sys.stderr)
        return None
    return value


def cache_store(directory: Path, m: int, n: int, form: str, value: Invariant) -> str:
    """Write the entry for value and return invariant_json_text(value), the
    text the entry embeds.  The entry is json.dumps(_cache_payload(...),
    sort_keys=True): one line, with the payload's keys in sorted order."""
    path = _cache_path(directory, m, n, form)
    text = invariant_json_text(value)
    payload = (
        f'{{"form": {json.dumps(form)}, "invariant": {text}, "m": {m}, "n": {n}, '
        f'"version": {json.dumps(CACHE_VERSION)}}}'
    )
    tmp = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: could not store cache file {path}: {exc}", file=sys.stderr)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return text


# -- subcommands --------------------------------------------------------------


def _path_count(params: KnotParams) -> int:
    """rational_catalan(params), or a ValueError when that count is too long
    to print: 10^L or more, L being Python's integer string conversion limit.

    C(m+n, k) with k = min(m, n) is built one factor at a time, and the
    partial products C(m+n-k+i, i) at least double at each step, so an
    oversized count is refused after about 3.3 L steps, where math.comb
    alone could run for minutes.
    """
    total = params.m + params.n
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    ceiling = 10**limit * total
    k = min(params.m, params.n)
    partial = 1
    for i in range(1, k + 1):
        partial = partial * (total - k + i) // i
        if partial >= ceiling:
            raise ValueError(
                f"({params.m},{params.n}) has at least 10^{limit} Dyck paths, more than "
                f"the {limit}-digit integer string limit; refusing to run"
            )
    return rational_catalan(params)


def _guard_size(params: KnotParams, max_leaves: int) -> None:
    count = _path_count(params)
    if count > max_leaves:
        raise Refused(
            f"({params.m},{params.n}) has {count} Dyck paths, above the "
            f"--max-leaves bound {max_leaves}; refusing to run"
        )


def _compute_form(params: KnotParams, form: str) -> Invariant:
    if form == "HHH":
        return hhh_direct(params)
    if form == "euler":
        return euler_characteristic(superpolynomial(params))
    return superpolynomial(params)


def _cmd_compute(args: argparse.Namespace) -> int:
    params = KnotParams(args.m, args.n)
    _guard_size(params, args.max_leaves)
    directory = _cache_dir(args.cache_dir)
    value = text = None
    if directory is not None:
        value = cache_load(directory, args.m, args.n, args.form)
    if value is None:
        value = _compute_form(params, args.form)
        if directory is not None:
            text = cache_store(directory, args.m, args.n, args.form, value)
    if args.format == "json":
        print(text if text is not None else invariant_json_text(value))
    elif args.format == "latex":
        print(value.latex())
    else:
        print(value.text())
    return EXIT_OK


def _cmd_paths(args: argparse.Namespace) -> int:
    params = KnotParams(args.m, args.n)
    _guard_size(params, args.max_leaves)
    paths = enumerate_paths(params)
    if args.format == "json":
        rows = [stats_json(p) if args.with_stats else str(p) for p in paths]
        print(json.dumps(rows, sort_keys=True))
    else:
        for p in paths:
            if args.with_stats:
                info = stats_json(p)
                print(
                    f"{p} area={info['area']} hplus={info['hplus']} "
                    f"opairs={info['opairs']} vstar={info['vstar']} kvals={info['kvals']}"
                )
            else:
                print(p)
    return EXIT_OK


def _parse_range(expr: str) -> int:
    prefix = "msum<="
    try:
        if expr.startswith(prefix):
            return int(expr[len(prefix) :])
    except ValueError:
        pass
    raise ValueError(f"range must look like 'msum<=K', got {expr!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.range_spec is not None:
        if args.m is not None or args.n is not None:
            raise Refused("give either m n or --range, not both")
        bound = _parse_range(args.range_spec)
        candidates = (p for p in iter_coprime_pairs(bound) if p.m >= p.n)
    elif args.m is not None and args.n is not None:
        candidates = [KnotParams(args.m, args.n)]
    else:
        raise Refused("verify needs m n or --range 'msum<=K'")

    # refuse before any work, not after verifying the knots below the bound.
    # The walk builds one knot at a time and stops at the first refusal: path
    # counts of the balanced knots grow exponentially in m + n, so with the
    # default bound any range past m + n = 23 is refused at (13,11), after
    # 176 knots.
    targets = []
    for params in candidates:
        _guard_size(params, args.max_leaves)
        targets.append(params)
    if not targets:
        raise Refused(f"range {args.range_spec!r} selects no knot")
    suites = set(args.suite) if args.suite else None
    strict = not args.external_as_warnings
    reports = [run_suite(p, external_strict=strict, suites=suites) for p in targets]
    if args.format == "json":
        print(json.dumps(reports, sort_keys=True))
    else:
        for report in reports:
            for line in report_lines(report):
                print(line)
    return EXIT_OK if all(r["overall_pass"] for r in reports) else EXIT_VERIFY_FAILED


def _cmd_catalan(args: argparse.Namespace) -> int:
    params = KnotParams(args.m, args.n)
    count = _path_count(params)
    result: dict = {"m": args.m, "n": args.n, "paths": count}
    ok = True
    if args.check:
        _guard_size(params, DEFAULT_MAX_LEAVES)
        check = catalan_check(params)
        ok = check["pass"]
        result["specialization"] = check["got"]
        result["check_pass"] = ok
    if args.format == "json":
        print(json.dumps(result, sort_keys=True))
    else:
        line = f"({args.m},{args.n}): {count} paths"
        if args.check:
            line += f"; specialization gives {result['specialization']}"
            line += " (match)" if ok else " (MISMATCH)"
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_cache(args: argparse.Namespace) -> int:
    directory = _cache_dir(args.cache_dir)
    if directory is None:
        raise Refused(f"no cache directory; set --cache-dir or {CACHE_ENV}")
    if directory.exists() and not directory.is_dir():
        raise ValueError(f"{directory} is not a directory")
    entries = sorted(directory.glob("compute_*.json")) if directory.exists() else []
    if args.action == "info":
        print(f"cache directory: {directory}")
        print(f"entries: {len(entries)}")
        for entry in entries:
            print(f"  {entry.name}")
    else:
        # *.tmp files are partial writes left by a cache_store that was killed
        leftovers = sorted(directory.glob("*.tmp")) if directory.exists() else []
        kept = set()
        for entry in entries + leftovers:
            try:
                entry.unlink()
            except OSError as exc:
                print(f"warning: could not remove {entry}: {exc}", file=sys.stderr)
                kept.add(entry)
        print(
            f"removed {len(set(entries) - kept)} entries and "
            f"{len(set(leftovers) - kept)} temporary files from {directory}"
        )
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Refused as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except LinksUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINKS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; stdout goes to devnull so that shutdown's flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
