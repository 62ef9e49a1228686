#!/usr/bin/env python
"""Metrics-surface lint: the catalogue is the single source of truth.

Two checks, either or both per invocation:

``--scan PATH...``
    Walk the source tree for string literals that look like metric names
    (``repro_*`` matching the registry's naming shape) and fail if any is
    **not** in :data:`repro.obs.catalog.CATALOG`.  This is what stops a
    new instrumentation site from minting an uncatalogued (and therefore
    undocumented, un-preregistered) metric name.  It also fails when a
    catalogued family's name appears as **no** string literal in the
    scanned tree (``obs/catalog.py`` itself excluded): a family that
    nothing emits, or whose name only an f-string builds where the scan
    cannot see it.

``--check-exposition FILE``
    Parse a Prometheus 0.0.4 text exposition (``-`` for stdin) and fail
    unless every catalogued metric family appears with a ``# TYPE`` line
    of the catalogued type.  ``make metrics-smoke`` pipes
    ``repro-label metrics --format prom`` through this, so CI proves the
    whole catalogue is actually exposed by a live workload.

Usage::

    python tools/metrics_lint.py --scan src/repro
    repro-label metrics --format prom | python tools/metrics_lint.py --check-exposition -
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

# Make `repro` importable when invoked as `python tools/metrics_lint.py`
# from the repo root without PYTHONPATH set.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.catalog import CATALOG  # noqa: E402

#: What counts as "looks like one of our metric names" in source literals:
#: ``repro`` plus at least two clean segments (every catalogued name has a
#: subsystem segment and a unit/suffix segment).  Requiring two keeps
#: single-word identifiers like TSPLIB instance names (``repro_tour``) and
#: f-string prefixes ending in ``_`` out of the lint.
_NAME_SHAPE = re.compile(r"^repro(_[a-z0-9]+){2,}$")

#: ``# TYPE <name> <kind>`` lines of the text exposition.
_TYPE_LINE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")

#: Sample lines: ``name{labels} value`` or ``name value``.
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? [^ ]+( \d+)?$"
)


def _string_literals(paths: list[str]):
    """``(path, lineno, value)`` for every string constant under ``paths``."""
    for raw in paths:
        root = Path(raw)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    yield path, node.lineno, node.value


def scan_sources(paths: list[str]) -> list[str]:
    """Uncatalogued metric-name literals as ``file:line name`` strings.

    Walks every string constant in the AST (so f-string *prefixes* like
    ``repro_server_`` don't false-positive — only complete names match)
    and flags literals shaped like metric names that the catalogue does
    not know.  Histogram series suffixes (``_bucket``/``_sum``/
    ``_count``) are resolved to their base family first.
    """
    offenders: list[str] = []
    for path, lineno, name in _string_literals(paths):
        if not _NAME_SHAPE.match(name):
            continue
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in CATALOG and base not in CATALOG:
            offenders.append(f"{path}:{lineno} {name}")
    return offenders


def unemitted_families(paths: list[str]) -> list[str]:
    """Catalogued family names spelled as no string literal under ``paths``.

    ``obs/catalog.py`` is skipped: it spells every name by definition.
    """
    spelled = {
        name for path, _lineno, name in _string_literals(paths)
        if path.parts[-2:] != ("obs", "catalog.py")
    }
    return sorted(set(CATALOG) - spelled)


def check_exposition(text: str) -> list[str]:
    """Problems with a text exposition against the catalogue (empty = ok).

    Requires every catalogued family to be announced with its catalogued
    type, and every sample line to belong to a catalogued family.
    """
    announced: dict[str, str] = {}
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("# HELP"):
            continue
        m = _TYPE_LINE.match(line)
        if m:
            announced[m.group(1)] = m.group(2)
            continue
        if line.startswith("#"):
            problems.append(f"line {lineno}: unparseable comment {line!r}")
            continue
        m = _SAMPLE_LINE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        base = re.sub(r"_(bucket|sum|count)$", "", m.group(1))
        if m.group(1) not in CATALOG and base not in CATALOG:
            problems.append(f"line {lineno}: uncatalogued sample {m.group(1)}")
    for name, (kind, _help) in sorted(CATALOG.items()):
        if name not in announced:
            problems.append(f"catalogued family {name} missing from exposition")
        elif announced[name] != kind:
            problems.append(
                f"{name}: exposed as {announced[name]}, catalogued as {kind}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--scan", nargs="+", metavar="PATH", default=None,
        help="source files/trees to lint for uncatalogued metric literals",
    )
    ap.add_argument(
        "--check-exposition", metavar="FILE", default=None,
        help="Prometheus text exposition to validate (- for stdin)",
    )
    args = ap.parse_args(argv)
    if args.scan is None and args.check_exposition is None:
        ap.error("nothing to do: pass --scan and/or --check-exposition")

    failed = False
    if args.scan is not None:
        offenders = scan_sources(args.scan)
        for line in offenders:
            print(f"uncatalogued metric literal: {line}")
        unemitted = unemitted_families(args.scan)
        for name in unemitted:
            print(f"catalogued family no literal emits: {name}")
        bad = offenders or unemitted
        print(
            f"metrics scan: {len(offenders)} uncatalogued literal(s), "
            f"{len(unemitted)} unemitted catalogued name(s) — "
            f"{'FAILED' if bad else 'PASSED'}"
        )
        failed |= bool(bad)
    if args.check_exposition is not None:
        if args.check_exposition == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.check_exposition).read_text(encoding="utf-8")
        problems = check_exposition(text)
        for line in problems:
            print(f"exposition: {line}")
        print(
            f"exposition check: {len(CATALOG)} catalogued families, "
            f"{len(problems)} problem(s) — "
            f"{'FAILED' if problems else 'PASSED'}"
        )
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
