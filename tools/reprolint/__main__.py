"""CLI entry point: ``python -m tools.reprolint``."""

import argparse
import sys

from . import engine
from . import rules as _builtin_rules  # noqa: F401  (registers the rules)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Static analysis enforcing simulation-correctness "
                    "invariants (see docs/INTERNALS.md).")
    parser.add_argument("paths", nargs="*",
                        default=[engine.DEFAULT_SCAN_ROOT],
                        help="files or directories to scan, relative to the "
                             "repo root (default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--rule", action="append", dest="rules", default=None,
                        metavar="NAME", help="run only this rule (repeatable)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scan files over N worker processes "
                             "(output is identical to a serial run)")
    parser.add_argument("--severity", choices=engine.SEVERITIES, default=None,
                        help="run only rules at least this severe "
                             "('error' drops warning rules)")
    parser.add_argument("--baseline", default=engine.DEFAULT_BASELINE,
                        help="baseline file (default: tools/reprolint/"
                             "baseline.json); pass '' to disable")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write current findings to the baseline and "
                             "exit 0")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(engine.REGISTRY):
            rule_obj = engine.REGISTRY[name]
            first = rule_obj.doc.splitlines()[0] if rule_obj.doc else ""
            print("%-32s [%s] %s" % (name, rule_obj.severity, first))
        return 0

    try:
        report = engine.run(scan_paths=tuple(args.paths),
                            rule_names=args.rules,
                            baseline_path=args.baseline or None,
                            jobs=max(1, args.jobs),
                            min_severity=args.severity)
    except KeyError as exc:
        print("reprolint: %s" % exc.args[0], file=sys.stderr)
        return 2

    if args.update_baseline:
        # Findings *plus* already-baselined ones: the new baseline is
        # the complete current debt, so re-running --update-baseline is
        # a fixed point (round-trip stable), not a slow bleed.
        grandfathered = report.findings + report.baselined
        engine.save_baseline(args.baseline, grandfathered)
        print("reprolint: baselined %d finding(s) into %s"
              % (len(grandfathered), args.baseline))
        return 0

    print(report.to_json() if args.format == "json" else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
