"""Command-line front end: exponent reports, mark tables, catalog sweeps.

Exit codes: 0 success, 1 usage or spec errors, 2 correctness alarms (the two
exponent methods disagree, a sweep suite fails, or the lattice lacks a
subgroup a method reaches), 141 with nothing on stderr when the reader of
stdout goes away first, as for a process killed by SIGPIPE.
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
    Family,
    MethodDisagreement,
    compute_exponent_report,
    congruence_pairs,
    pair_to_dict,
    report_to_dict,
    sylow_reduction_report,
    sylow_to_dict,
)
from .burnside import MarkTable, build_mark_table, mark_table_json
from .groups import ascii_int, build_group, parse_group_spec, spec_to_text
from .lattice import (
    IncompleteLattice,
    ResourceCapError,
    cached_lattice,
    enumerate_subgroups,
)
from .sweep import SweepConfig, run_sweep, summary_to_dict


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
        indices = [ascii_int(part) for part in classes_arg.split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"--family-classes wants comma-separated integers, got {classes_arg!r}"
        ) from None
    return frozenset(indices)


def class_label(order: int, size: int, cyclic: bool) -> str:
    """Compact class tag: C = cyclic / N = noncyclic, order, class size."""
    return f"{'C' if cyclic else 'N'}{order}*{size}"


def _class_labels(table: MarkTable) -> list[str]:
    """One label per class of the table of marks, in its column order."""
    return list(map(class_label, table.class_orders, table.class_sizes, table.class_cyclic))


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _print_report(doc: dict, table: MarkTable) -> None:
    """Render the report that --json prints, with the table's class labels;
    compute --audit adds its pairs, then its Sylow comparison."""
    labels = _class_labels(table)
    prediction = doc["prediction"]
    print(f"group: {doc['group']} (order {doc['order']})")
    print(f"family: {doc['family']}")
    print(f"exponent: {doc['exponent']}")
    print(f"  congruence: {doc['exponent_congruence']}")
    print(f"  marks: {doc['exponent_marks']}")
    print(f"  methods agree: {'yes' if doc['methods_agree'] else 'no'}")
    if prediction["value"] is None:
        print(f"prediction: declined ({prediction['branch']})")
    else:
        match = "matches" if doc["prediction_matches"] else "DIFFERS"
        print(f"prediction: {prediction['value']} ({prediction['branch']}) -- {match}")
    if doc["prime_parts"]:
        parts = ", ".join(f"{p}={v}" for p, v in doc["prime_parts"].items())  # ascending by p
        print(f"prime parts: {parts}")
    binding = doc["binding_pairs"]
    print(f"binding pairs ({len(binding)}):")
    for pair in binding:
        print(
            f"  U={labels[pair['u_class']]} normal in V={labels[pair['v_class']]}: "
            f"index {pair['index']}, count {pair['count']}, forces {pair['constraint']}"
        )
    if "pairs" not in doc:
        return
    if prediction["details"]:
        rules = ", ".join(
            f"{name}={value}" for name, value in sorted(prediction["details"].items())
        )
        print(f"prediction rules: {rules}")
    print(f"congruence audit ({len(doc['pairs'])} pairs, * = binding):")
    for pair in doc["pairs"]:
        star = "*" if pair in binding else " "
        print(
            f" {star} U={labels[pair['u_class']]} normal in V={labels[pair['v_class']]}: "
            f"index {pair['index']}, count {pair['count']}, constraint {pair['constraint']}"
        )
    print("sylow comparison (report-only):")
    for row in doc["sylow"]:
        flag = "match" if row["match"] else "MISMATCH"
        print(
            f"  p={row['p']}: exponent part {row['exponent_part']}, "
            f"Sylow subgroup order {row['sylow_order']} with exponent "
            f"{row['sylow_exponent']} -- {flag}"
        )


def cmd_compute(args: argparse.Namespace) -> int:
    text, group = _prepare(args.group)
    family = _parse_family(args.family_classes)  # before anything is built
    lattice = cached_lattice(group, text, args.cache)
    table = build_mark_table(lattice)
    report = compute_exponent_report(lattice, table, text, family)
    doc = report_to_dict(report)
    if args.audit:
        doc["pairs"] = [pair_to_dict(p) for p in congruence_pairs(lattice, family)]
        doc["sylow"] = [sylow_to_dict(s) for s in
                        sylow_reduction_report(lattice, family, report.exponent)]
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_report(doc, table)
    return 0


# ---------------------------------------------------------------------------
# marks
# ---------------------------------------------------------------------------


def _print_mark_table(text: str, table: MarkTable) -> None:
    labels = _class_labels(table)
    n = len(table.rows)
    noun = "class" if n == 1 else "classes"
    print(f"table of marks: {text} (order {table.class_orders[-1]}, {n} {noun})")
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
        # row by row: the matrix of a large table is never held whole
        sys.stdout.writelines(mark_table_json(table, text))
        sys.stdout.write("\n")
    else:
        _print_mark_table(text, table)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _print_sweep(summary: dict) -> None:
    """Render the summary that --json writes: the matrix of groups by
    checks, then the notes, the failures and the verdict."""
    checks, groups, timings = summary["checks"], summary["groups"], summary.get("timings")
    notes, failures = summary["notes"], summary["failures"]
    print(
        f"sweep: {summary['group_count']} groups, max order {summary['max_order']}, "
        f"checks: {' '.join(checks)}"
    )
    name_w = max(5, max(len(g["group"]) for g in groups))
    header = ["group".ljust(name_w), "order".rjust(5), "A".rjust(4)]
    header += [c.rjust(max(len(c), 4)) for c in checks]
    if timings is not None:
        header.append("seconds".rjust(8))
    print("  ".join(header))
    cell = {"ok": "ok", "fail": "FAIL", "skip": "-", "report": "rep"}
    noted = {(n["group"], n["check"]) for n in notes}
    for g, report in zip(groups, summary["reports"]):
        line = [g["group"].ljust(name_w), str(report["order"]).rjust(5),
                str(g["exponent"]).rjust(4)]
        for c in checks:
            status = cell[g["statuses"][c]]
            if status == "rep" and (g["group"], c) in noted:
                status = "rep*"
            line.append(status.rjust(max(len(c), 4)))
        if timings is not None:
            line.append(f"{timings[g['group']]:.3f}".rjust(8))
        print("  ".join(line))
    if notes:
        print(f"notes ({len(notes)}):")
        for note in notes:
            print(f"  {note['group']} [{note['check']}]: {note['message']}")
    if failures:
        print(f"failures ({len(failures)}):")
        for f in failures:
            context = f" ({f['context']})" if f.get("context") else ""
            print(
                f"  {f['group']} [{f['check']}]: expected {f['expected']}, "
                f"got {f['got']}{context}"
            )
    verdict = "ok" if summary["ok"] else "FAILED"
    print(
        f"sweep {verdict}: {summary['group_count']} groups, "
        f"{len(failures)} failures, {len(notes)} notes"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    # checked before --json is opened, so a bad bound or worker count leaves no file
    config = SweepConfig(max_order=args.max_order, jobs=args.jobs)
    # opened before the sweep, so that an unusable path, the empty one too,
    # fails before the work
    with (open(args.json, "w", encoding="utf-8") if args.json is not None
          else nullcontext()) as handle:
        summary = summary_to_dict(config, run_sweep(config), include_timings=args.timings)
        _print_sweep(summary)
        if handle is not None:
            handle.write(json.dumps(summary, indent=2) + "\n")
    return 0 if summary["ok"] else 2


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
    sweep.add_argument(
        "--max-order", type=ascii_int, default=64, help="catalog order bound (default 64)"
    )
    sweep.add_argument("--jobs", type=ascii_int, default=1, help="worker processes (default 1)")
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
    except (MethodDisagreement, IncompleteLattice) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
