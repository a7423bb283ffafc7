"""Command-line front end for the invariant linter.

``python -m repro.analysis [paths...]`` and the ``repro lint`` subcommand
both route to :func:`execute`.  Exit code 0 means no findings; 1 means
findings; 2 means usage error (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .framework import DEFAULT_EXCLUDES, DEFAULT_RULES, Analyzer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Check repo invariants (rules R1-R8) over python sources.")
    add_lint_options(parser)
    return parser


def add_lint_options(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared with the ``repro lint`` subcommand)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--no-default-excludes", action="store_true",
        help="also lint the quarantined seeded-violation package")


def describe_rules() -> str:
    """Human-readable listing of every registered rule and its contract."""
    lines = []
    for rule_id in DEFAULT_RULES.ids():
        rule_cls = DEFAULT_RULES.get(rule_id)
        lines.append(f"{rule_id}  {rule_cls.name}")
        lines.append(f"    {rule_cls.description}")
        if rule_cls.contract:
            lines.append(f"    contract: {rule_cls.contract}")
    return "\n".join(lines)


def execute(paths: Sequence[str], rules: Optional[str] = None,
            output_format: str = "text", list_rules: bool = False,
            no_default_excludes: bool = False) -> int:
    """Run the linter and print findings; returns the process exit code.

    Raises ``ValueError`` for an unknown rule id and ``FileNotFoundError``
    for a missing path; callers translate those into usage errors.
    """
    from . import rules as _builtin  # noqa: F401  (registration side effect)

    if list_rules:
        print(describe_rules())
        return 0

    rule_ids: Optional[List[str]] = None
    if rules:
        rule_ids = [token.strip() for token in rules.split(",") if token.strip()]
        for rule_id in rule_ids:
            if rule_id not in DEFAULT_RULES.ids():
                raise ValueError(
                    f"unknown rule {rule_id!r}; "
                    f"available: {', '.join(DEFAULT_RULES.ids())}")

    excludes = () if no_default_excludes else DEFAULT_EXCLUDES
    analyzer = Analyzer(rules=DEFAULT_RULES.create(rule_ids), excludes=excludes)
    findings = analyzer.run(paths)

    if output_format == "json":
        print(json.dumps([finding.to_dict() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return execute(args.paths, rules=args.rules, output_format=args.format,
                       list_rules=args.list_rules,
                       no_default_excludes=args.no_default_excludes)
    except (ValueError, FileNotFoundError) as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises SystemExit(2)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
