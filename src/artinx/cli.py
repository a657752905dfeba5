"""Command-line front end: exponent reports, mark tables, catalog sweeps.

Exit codes: 0 success, 1 usage or spec errors, 2 correctness alarms (the two
exponent methods disagree, or a sweep suite fails), 141 with nothing on stderr
when the reader of stdout goes away first, as for a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Optional

from .artin import (
    ALL_CYCLIC,
    ExponentReport,
    Family,
    MethodDisagreement,
    compute_exponent_report,
    report_to_dict,
)
from .burnside import MarkTable, build_mark_table, mark_table_to_dict
from .groups import build_group, parse_group_spec, spec_to_text
from .lattice import ResourceCapError, SubgroupLattice, cached_lattice, enumerate_subgroups
from .sweep import CHECK_NAMES, RunResult, SweepConfig, run_sweep, summary_to_dict


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1.
    Prefix matching is off, in the subcommands too, so a removed or misspelt
    option fails instead of being read as another."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _prepare(spec_arg: str):
    spec = parse_group_spec(spec_arg)
    return spec_to_text(spec), build_group(spec)


def _parse_family(classes_arg: Optional[str]) -> Family:
    if classes_arg is None:
        return ALL_CYCLIC
    try:
        indices = [int(part) for part in classes_arg.split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"--family-classes wants comma-separated integers, got {classes_arg!r}"
        ) from None
    return Family(frozenset(indices))


def class_label(order: int, size: int, cyclic: bool) -> str:
    """Compact class tag: C = cyclic / N = noncyclic, order, class size."""
    return f"{'C' if cyclic else 'N'}{order}*{size}"


def _lattice_labels(lattice: SubgroupLattice) -> list[str]:
    return [class_label(c.representative.order, c.size, c.representative.is_cyclic)
            for c in lattice.classes]


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _print_report(report: ExponentReport, lattice: SubgroupLattice, audit: bool) -> None:
    labels = _lattice_labels(lattice)
    print(f"group: {report.group} (order {report.order})")
    print(f"family: {report.family}")
    print(f"exponent: {report.exponent}")
    print(f"  congruence: {report.exponent_congruence}")
    print(f"  marks: {report.exponent_marks}")
    print(f"  methods agree: {'yes' if report.methods_agree else 'no'}")
    if report.prediction.value is None:
        print(f"prediction: declined ({report.prediction.branch})")
    else:
        match = "matches" if report.prediction_matches else "DIFFERS"
        print(
            f"prediction: {report.prediction.value} "
            f"({report.prediction.branch}) -- {match}"
        )
    if report.prime_parts:
        parts = ", ".join(f"{p}={v}" for p, v in sorted(report.prime_parts.items()))
        print(f"prime parts: {parts}")
    print(f"binding pairs ({len(report.binding_pairs)}):")
    for pair in report.binding_pairs:
        print(
            f"  U={labels[pair.u_class]} normal in V={labels[pair.v_class]}: "
            f"index {pair.index}, count {pair.count}, forces {pair.constraint}"
        )
    if audit:
        if report.prediction.details:
            rules = ", ".join(
                f"{name}={value}" for name, value in sorted(report.prediction.details.items())
            )
            print(f"prediction rules: {rules}")
        if report.pairs is not None:
            binding = set(report.binding_pairs)
            print(f"congruence audit ({len(report.pairs)} pairs, * = binding):")
            for pair in report.pairs:
                star = "*" if pair in binding else " "
                print(
                    f" {star} U={labels[pair.u_class]} normal in V={labels[pair.v_class]}: "
                    f"index {pair.index}, count {pair.count}, constraint {pair.constraint}"
                )
        if report.sylow is not None:
            print("sylow comparison (report-only):")
            for row in report.sylow:
                flag = "match" if row.match else "MISMATCH"
                print(
                    f"  p={row.p}: exponent part {row.exponent_part}, "
                    f"Sylow subgroup order {row.sylow_order} with exponent "
                    f"{row.sylow_exponent} -- {flag}"
                )


def cmd_compute(args: argparse.Namespace) -> int:
    text, group = _prepare(args.group)
    lattice = cached_lattice(group, text, args.cache)
    family = _parse_family(args.family_classes)
    report = compute_exponent_report(
        group,
        text,
        family=family,
        lattice=lattice,
        include_pairs=args.audit,
        include_sylow=args.audit,
    )
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        _print_report(report, lattice, args.audit)
    return 0


# ---------------------------------------------------------------------------
# marks
# ---------------------------------------------------------------------------


def _print_mark_table(text: str, table: MarkTable) -> None:
    labels = [
        class_label(o, s, c)
        for o, s, c in zip(table.class_orders, table.class_sizes, table.class_cyclic)
    ]
    noun = "class" if table.n == 1 else "classes"
    print(f"table of marks: {text} (order {table.class_orders[-1]}, {table.n} {noun})")
    head = max(len(label) for label in labels)
    # a column is as wide as its label and its stored marks; the zeros it
    # also holds never widen it, since no label is shorter than "0"
    widths = [len(label) for label in labels]
    for columns, marks in table.rows:
        for j, m in zip(columns, marks):
            widths[j] = max(widths[j], len(str(m)))
    print("  " + " " * head + "  " + "  ".join(l.rjust(w) for l, w in zip(labels, widths)))
    zeros = ["0".rjust(w) for w in widths]
    for label, (columns, marks) in zip(labels, table.rows):
        cells = zeros.copy()
        for j, m in zip(columns, marks):
            cells[j] = str(m).rjust(widths[j])
        print(f"  {label.rjust(head)}  {'  '.join(cells)}")


def cmd_marks(args: argparse.Namespace) -> int:
    text, group = _prepare(args.group)
    table = build_mark_table(enumerate_subgroups(group))
    if args.json:
        print(json.dumps(mark_table_to_dict(table, text), indent=2))
    else:
        _print_mark_table(text, table)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_checks(checks_arg: Optional[str]) -> frozenset:
    if checks_arg is None:
        return frozenset(CHECK_NAMES)
    return frozenset(part.strip() for part in checks_arg.split(",") if part.strip())


def _print_sweep(result: RunResult, timings: bool) -> None:
    checks = [c for c in CHECK_NAMES if c in result.config.checks]
    print(
        f"sweep: {len(result.catalog)} groups, max order {result.config.max_order}, "
        f"checks: {' '.join(checks)}"
    )
    name_w = max(5, max(len(row["spec"]) for row in result.rows))
    header = ["group".ljust(name_w), "order".rjust(5), "A".rjust(4)]
    header += [c.rjust(max(len(c), 4)) for c in checks]
    if timings:
        header.append("seconds".rjust(8))
    print("  ".join(header))
    cell = {"ok": "ok", "fail": "FAIL", "skip": "-", "report": "rep"}
    noted = {(n["group"], n["check"]) for n in result.notes}
    for row in result.rows:
        report = row["report"]
        line = [
            row["spec"].ljust(name_w),
            str(report["order"]).rjust(5),
            str(report["exponent"]).rjust(4),
        ]
        for c in checks:
            status = cell.get(row["statuses"].get(c, "skip"), "?")
            if status == "rep" and (row["spec"], c) in noted:
                status = "rep*"
            line.append(status.rjust(max(len(c), 4)))
        if timings:
            line.append(f"{row['seconds']:.3f}".rjust(8))
        print("  ".join(line))
    if result.notes:
        print(f"notes ({len(result.notes)}):")
        for note in result.notes:
            print(f"  {note['group']} [{note['check']}]: {note['message']}")
    if result.failures:
        print(f"failures ({len(result.failures)}):")
        for f in result.failures:
            context = f" ({f['context']})" if f.get("context") else ""
            print(
                f"  {f['group']} [{f['check']}]: expected {f['expected']}, "
                f"got {f['got']}{context}"
            )
    verdict = "ok" if result.ok else "FAILED"
    print(
        f"sweep {verdict}: {len(result.rows)} groups, "
        f"{len(result.failures)} failures, {len(result.notes)} notes"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        max_order=args.max_order,
        checks=_parse_checks(args.checks),
        jobs=args.jobs,
    )
    # opened before the sweep, so that an unusable path fails before the work
    with open(args.json, "w", encoding="utf-8") if args.json else nullcontext() as handle:
        result = run_sweep(config)
        _print_sweep(result, args.timings)
        if handle is not None:
            payload = summary_to_dict(result, include_timings=args.timings)
            handle.write(json.dumps(payload, indent=2) + "\n")
    return 0 if result.ok else 2


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="artinx", description="Burnside-ring computations for finite groups.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    compute = sub.add_parser(
        "compute", help="Artin exponent of a group, by congruences and by mark tables"
    )
    compute.add_argument("--group", required=True, help="group spec, e.g. S4, Q8, C2xC6")
    compute.add_argument(
        "--family-classes",
        metavar="I,J,...",
        help="family given by lattice class indices (default: all cyclic subgroups)",
    )
    compute.add_argument("--json", action="store_true", help="emit the report as JSON")
    compute.add_argument(
        "--audit",
        action="store_true",
        help="list every congruence pair (binding ones starred) and the Sylow comparison",
    )
    compute.add_argument("--cache", metavar="DIR", help="lattice cache directory")
    compute.set_defaults(func=cmd_compute)

    marks = sub.add_parser("marks", help="table of marks of a group")
    marks.add_argument("--group", required=True, help="group spec, e.g. S4, Q8, C2xC6")
    marks.add_argument("--json", action="store_true", help="emit the table as JSON")
    marks.set_defaults(func=cmd_marks)

    sweep = sub.add_parser("sweep", help="run check suites over the built-in catalog")
    sweep.add_argument("--max-order", type=int, default=64, help="catalog order bound (default 64)")
    sweep.add_argument(
        "--checks",
        metavar="NAME,...",
        help=f"suites to run (default all): {','.join(CHECK_NAMES)}",
    )
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sweep.add_argument("--json", metavar="FILE", help="also write the summary JSON to FILE")
    sweep.add_argument("--timings", action="store_true", help="include per-group timings")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout now points at /dev/null, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ResourceCapError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MethodDisagreement as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
