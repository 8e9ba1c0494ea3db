"""Command-line entry point for the verification suites.

Exit codes: 0 all suites passed, 1 at least one failure, 2 configuration
error.  Reports are byte-identical for a fixed (seed, backend) pair.  The
JSON document is the stable machine interface.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .errors import ConfigError, UnknownSuite
from .harness import all_passed, coverage_table, list_suites, run

SCHEMA_VERSION = 1


def emit(results, fmt="json", seed=0, backend=None):
    """Render a result list as a JSON document or a markdown table."""
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "seed": seed,
            "backend": backend or "default",
            "results": [r.as_dict() for r in results],
            "coverage": coverage_table(),
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if fmt == "md":
        lines = [
            "| anchor | suite | status | max residual | backend |",
            "|---|---|---|---|---|",
        ]
        for r in sorted(results, key=lambda r: (r.paper_anchor, r.suite_id)):
            lines.append(
                f"| {r.paper_anchor} | {r.suite_id} | {r.status} "
                f"| {r.max_residual:.3e} | {r.backend} |")
        lines.append("")
        lines.append("## Coverage")
        lines.append("")
        lines.append("| anchor | suites / status |")
        lines.append("|---|---|")
        for anchor, entry in sorted(coverage_table().items()):
            if "suites" in entry:
                lines.append(f"| {anchor} | {', '.join(entry['suites'])} |")
            else:
                lines.append(f"| {anchor} | out of scope: {entry['out_of_scope']} |")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def _write_error(path):
    """The errno that writing path would fail with, found without writing
    it; None when its directory exists and the path is writable."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return errno.ENOENT
    if os.path.isdir(path):
        return errno.EISDIR
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        return errno.EACCES
    return None


def _cannot_write(path, reason):
    print(f"config error: cannot write --out {path!r}: {reason}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bqspin-verify",
        description="Run the spin-algebra and wave-equation verification suites.")
    parser.add_argument("--suite", default="*", help="glob over suite ids")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default: BQSPIN_SEED or 0)")
    parser.add_argument("--backend", choices=("exact", "float"), default=None,
                        help="restrict to the suites of one backend")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the identity-suite tolerances "
                             "(witness margins stay fixed)")
    parser.add_argument("--format", choices=("json", "md"), default="md")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--list", action="store_true", help="list suite ids and exit")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.list:
        print("\n".join(list_suites()))
        return 0

    seed = args.seed
    if seed is None:
        env = os.environ.get("BQSPIN_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            print(f"config error: BQSPIN_SEED={env!r} is not an integer",
                  file=sys.stderr)
            return 2
    # an unwritable report path is found before the suites run, not after
    if args.out:
        err = _write_error(args.out)
        if err is not None:
            return _cannot_write(args.out, os.strerror(err))

    try:
        results = run(args.suite, seed=seed, backend=args.backend, tol=args.tol)
        report = emit(results, fmt=args.format, seed=seed, backend=args.backend)
    except (UnknownSuite, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report)
        except OSError as exc:
            return _cannot_write(args.out, exc.strerror)
    else:
        sys.stdout.write(report)

    n_fail = sum(1 for r in results if r.status == "fail")
    summary = (f"{len(results)} suites, "
               f"{sum(1 for r in results if r.status == 'pass')} passed, "
               f"{sum(1 for r in results if r.status == 'witness')} witnessed, "
               f"{n_fail} failed")
    print(summary, file=sys.stderr)
    return 0 if all_passed(results) else 1


if __name__ == "__main__":
    sys.exit(main())
