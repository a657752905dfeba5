"""Catalog sweeps: run the exponent computations and check suites over a
generated family of small groups.

The catalog covers every cyclic group up to the order bound, every abelian
group as an invariant-factor chain of up to three cyclic factors, the
dihedral / quaternion / semidihedral 2-power families, and a few standbys
(S3, S4, A4, H3).  Every group runs every suite in CHECK_NAMES; crossmethod,
cyclic, oddp, conductor and lemmas fail the run on violation, while twogroup
and sylow are report-only comparisons whose mismatches become notes.
"""

from __future__ import annotations

import hashlib
import operator
import random
import time
from typing import NamedTuple

from .artin import (
    ALL_CYCLIC,
    MethodDisagreement,
    artin_exponent_marks,
    compute_exponent_report,
    count_C_sets,
    report_to_dict,
    sylow_reduction_report,
)
from .burnside import build_mark_table, conductor
from .groups import (
    FAMILIES,
    as_prime_power,
    group_from_spec,
    parse_group_spec,
    spec_order,
)
from .lattice import enumerate_subgroups

CHECK_NAMES = ("crossmethod", "cyclic", "oddp", "twogroup", "conductor", "lemmas", "sylow")
CONDUCTOR_ORDER_CAP = 24  # the exact-conductor suite is asserted on small groups only
RANDOM_FAMILIES = 20


class _SweepConfigFields(NamedTuple):
    max_order: int
    jobs: int


class SweepConfig(_SweepConfigFields):
    """What to sweep: order bound and worker count; every suite runs."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, max_order: int = 64, jobs: int = 1) -> SweepConfig:
        max_order, jobs = operator.index(max_order), operator.index(jobs)  # ints, never floats
        if not 1 <= max_order <= 256:
            raise ValueError("max_order must be between 1 and 256")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        return super().__new__(cls, max_order, jobs)


def default_catalog(max_order: int) -> list[str]:
    """Every built-in group of order at most max_order, sorted by (order, name)."""
    specs = {f"C{n}" for n in range(1, max_order + 1)}
    for d1 in range(2, max_order + 1):
        for d2 in range(d1, max_order // d1 + 1):
            if d2 % d1:
                continue
            specs.add(f"C{d1}xC{d2}")
            for d3 in range(d2, max_order // (d1 * d2) + 1):
                if d3 % d2:
                    continue
                specs.add(f"C{d1}xC{d2}xC{d3}")
    # the 2-power D, Q and SD groups from order 8, as far as each family's rule allows
    for k in (2 ** e for e in range(3, max_order.bit_length())):
        specs.update(f"{letters}{k}" for letters in ("D", "Q", "SD") if FAMILIES[letters].accepts(k))
    for extra in ("S3", "S4", "A4", "H3"):
        if spec_order(parse_group_spec(extra)) <= max_order:
            specs.add(extra)
    return sorted(specs, key=lambda s: (spec_order(parse_group_spec(s)), s))


def random_families(spec_text: str, class_count: int):
    """RANDOM_FAMILIES deterministic pseudo-random explicit families
    (frozensets of class indices) for the crossmethod suite, drawn in turn
    from one generator seeded by the group's spec text alone."""
    digest = hashlib.sha256(f"artinx.sweep:{spec_text}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    for _ in range(RANDOM_FAMILIES):
        size = rng.randint(0, class_count)
        yield frozenset(rng.sample(range(class_count), size))


# ---------------------------------------------------------------------------
# individual check suites: each takes (lattice, table, report), reads the
# group from lattice.group and its spec from report.group, and returns a
# status plus failures/notes
# ---------------------------------------------------------------------------


def _failure(spec: str, check: str, expected, got, context: str = "") -> dict:
    entry = {"group": spec, "check": check, "expected": str(expected), "got": str(got)}
    if context:
        entry["context"] = context
    return entry


def _note(spec: str, check: str, message: str) -> dict:
    return {"group": spec, "check": check, "message": message}


def _check_crossmethod(lattice, table, report) -> tuple[str, list, list]:
    """The cyclic family, whose two exponents the report compared, then the
    random families: the report carries their method 1 analyses, from the
    one walk that served its cyclic family, and each gets one solve here."""
    spec, failures = report.group, []
    if not report.methods_agree:
        failures.append(_failure(spec, "crossmethod", report.exponent_congruence,
                                 report.exponent_marks, "family cyclic"))
    for i, (fam, analysis) in enumerate(report.extra_analyses):
        m = artin_exponent_marks(table, fam)
        if analysis.exponent != m:
            failures.append(_failure(spec, "crossmethod", analysis.exponent, m,
                                     f"random family {i}"))
    return ("fail" if failures else "ok"), failures, []


def _check_cyclic(lattice, table, report) -> tuple[str, list, list]:
    exponent = report.exponent
    if lattice.group.is_cyclic:
        if exponent != 1:
            return "fail", [_failure(report.group, "cyclic", 1, exponent, "cyclic group")], []
    elif exponent == 1:
        return "fail", [_failure(report.group, "cyclic", "> 1", 1, "noncyclic group")], []
    return "ok", [], []


def _check_oddp(lattice, table, report) -> tuple[str, list, list]:
    prediction = report.prediction
    if prediction.branch != "odd p-group":
        return "skip", [], []
    if report.exponent != prediction.value:
        return "fail", [_failure(report.group, "oddp", prediction.value, report.exponent)], []
    return "ok", [], []


def _check_twogroup(lattice, table, report) -> tuple[str, list, list]:
    shape, details = report.prediction.shape, report.prediction.details
    if shape is None:
        return "skip", [], []
    notes = []
    exponent = report.exponent
    thm_value = 2 if shape in ("quaternion", "dihedral") else details["generic"]
    cor_value = details.get("bracket-whole-group")
    if exponent != thm_value:
        notes.append(_note(report.group, "twogroup",
                           f"computed {exponent} vs power-formula value {thm_value} "
                           f"(shape {shape}) -- mismatch (report-only)"))
    if cor_value is not None and shape in ("quaternion", "dihedral", "semidihedral") \
            and exponent != cor_value:
        notes.append(_note(report.group, "twogroup",
                           f"computed {exponent} vs cyclic-commutator-rule value {cor_value} "
                           f"(shape {shape}) -- mismatch (report-only)"))
    return "report", [], notes


def _check_conductor(lattice, table, report) -> tuple[str, list, list]:
    """The conductor equals |G| for every finite G: the congruence at U = 1
    forces |G| to divide it, and |G| times any ghost vector comes from the
    Burnside ring.  So this tests the solver and the table of marks, not a
    property of the group."""
    if report.order > CONDUCTOR_ORDER_CAP:
        return "skip", [], []
    got = conductor(table)
    if got != report.order:
        return "fail", [_failure(report.group, "conductor", report.order, got)], []
    return "ok", [], []


def _check_sylow(lattice, table, report) -> tuple[str, list, list]:
    """The Sylow comparison for the report's cyclic family, read off the
    lattice; it goes on the report, which evaluate_group writes after the
    suites have run."""
    report.sylow = sylow_reduction_report(lattice, ALL_CYCLIC, report.exponent)
    notes = []
    for comparison in report.sylow:
        if not comparison.match:
            notes.append(_note(report.group, "sylow",
                               f"p={comparison.p}: exponent part {comparison.exponent_part} "
                               f"vs Sylow-subgroup exponent {comparison.sylow_exponent} "
                               f"-- mismatch (report-only)"))
    return "report", [], notes


def _check_lemmas(lattice, table, report) -> tuple[str, list, list]:
    """Counting-set checks over every (H, U) with H a p-subgroup (one per
    conjugacy class) and U a cyclic subgroup normal in H, each class's
    reports from one count_C_sets(lattice, h) call:

    - the full and normal-members extension counts agree mod p;
    - the normal members are exactly the extensions inside H';
    - for abelian H and nontrivial proper U, the count is prime to p
      exactly when H is cyclic;
    - for 2-groups with |U| = 2 and [H,H] <= U, an odd count forces H
      cyclic or nonabelian of order 8.
    """
    mult, spec, failures = lattice.group.mult, report.group, []
    for h, H in enumerate(lattice.classes):
        pp = as_prime_power(H.order)
        if pp is None:
            continue
        p = pp[0]
        gens = H.generators
        # H <= C_G(H) exactly when its recorded generators commute pairwise
        abelian = all(mult[a][b] == mult[b][a] for a in gens for b in gens)
        cyclic_h = H.is_cyclic
        for u_mask, r in count_C_sets(lattice, h):
            u_order, count, count_prime = u_mask.bit_count(), len(r.c_masks), len(r.c_prime_masks)
            bad = []  # (expected, got) per failed check
            if (count - count_prime) % p:
                bad.append(("counts congruent mod p", f"{count} vs {count_prime}"))
            if r.c_prime_masks != r.c_of_h_prime_masks:
                bad.append(("normal members = extensions in H'", "set mismatch"))
            if abelian and 1 < u_order < H.order and (count % p != 0) != cyclic_h:
                bad.append(("count prime to p iff H cyclic", f"count {count}, cyclic {cyclic_h}"))
            # [H, H] <= U exactly when H' = {h : [h, H] <= U} is all of H
            if p == 2 and u_order == 2 and r.h_prime_mask == H.mask and count % 2 \
                    and not (cyclic_h or (not abelian and H.order == 8)):
                bad.append(("odd count forces cyclic or nonabelian order 8", f"count {count}"))
            if bad:
                where = f"H order {H.order} in {spec}, U order {u_order}"
                failures += [_failure(spec, "lemmas", want, got, where) for want, got in bad]
    return ("fail" if failures else "ok"), failures, []


# ---------------------------------------------------------------------------
# per-group evaluation and the sweep driver
# ---------------------------------------------------------------------------


def evaluate_group(spec_text: str) -> dict:
    """Run every suite for one group; the unit of parallel work."""
    started = time.perf_counter()
    lattice = enumerate_subgroups(group_from_spec(spec_text))
    table = build_mark_table(lattice)

    # the crossmethod suite's families ride on the report's method 1 walk
    families = list(random_families(spec_text, len(lattice.classes)))
    try:
        report = compute_exponent_report(lattice, table, spec_text, extra_families=families)
    except MethodDisagreement as err:
        report = err.report  # the crossmethod suite records the disagreement
    failures: list[dict] = []
    notes: list[dict] = []
    statuses: dict[str, str] = {}
    for name in CHECK_NAMES:
        # looked up at call time, so a replaced suite is the one that runs
        suite = globals()[f"_check_{name}"]
        statuses[name], f, n = suite(lattice, table, report)
        failures += f
        notes += n

    return {
        "spec": spec_text,
        "report": report_to_dict(report),
        "statuses": statuses,
        "failures": failures,
        "notes": notes,
        "seconds": time.perf_counter() - started,
    }


def run_sweep(config: SweepConfig) -> list[dict]:
    """Evaluate every catalog group, optionally across workers; the rows
    come in catalog order."""
    specs = default_catalog(config.max_order)
    if config.jobs > 1 and len(specs) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(config.jobs, len(specs))) as pool:
            # one group at a time: the catalog is sorted by order, so larger
            # chunks would leave its heavy tail to a single worker
            return pool.map(evaluate_group, specs, chunksize=1)
    return [evaluate_group(spec) for spec in specs]


def summary_to_dict(config: SweepConfig, rows: list[dict], include_timings: bool = False) -> dict:
    """The sweep's result, JSON-ready: the CLI prints it and --json writes
    it.  Timings are opt-in so that identical runs stay byte-identical."""
    failures = [f for row in rows for f in row["failures"]]
    notes = [n for row in rows for n in row["notes"]]
    out = {
        "schema": 1,
        "max_order": config.max_order,
        "checks": list(CHECK_NAMES),
        "group_count": len(rows),
        "ok": not failures,
        "failures": failures,
        "notes": notes,
        "groups": [
            {
                "group": row["spec"],
                "exponent": row["report"]["exponent"],
                "statuses": row["statuses"],
            }
            for row in rows
        ],
        "reports": [row["report"] for row in rows],
    }
    if include_timings:
        out["timings"] = {row["spec"]: round(row["seconds"], 6) for row in rows}
    return out
