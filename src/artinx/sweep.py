"""Catalog sweeps: run the exponent computations and check suites over a
generated family of small groups.

The catalog covers every cyclic group up to the order bound, every abelian
group as an invariant-factor chain of up to three cyclic factors, the
dihedral / quaternion / semidihedral 2-power families, and a few standbys
(S3, S4, A4, H3).  Checks are named suites; crossmethod, cyclic, oddp,
conductor and lemmas fail the run on violation, while twogroup and sylow are
report-only comparisons whose mismatches become notes.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from .artin import (
    Family,
    MethodDisagreement,
    artin_exponent_marks,
    compute_exponent_report,
    c_set_reports,
    report_to_dict,
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


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: order bound, suites, worker count."""

    max_order: int = 64
    checks: frozenset = frozenset(CHECK_NAMES)
    jobs: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.max_order <= 256:
            raise ValueError("max_order must be between 1 and 256")
        if not self.checks:
            raise ValueError("checks must name at least one suite")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def default_catalog(max_order: int = 64) -> list[str]:
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


def random_families(spec_text: str, class_count: int, count: int = RANDOM_FAMILIES):
    """Deterministic pseudo-random explicit families for cross-method checks,
    drawn in turn from one generator seeded by the group's spec text alone."""
    digest = hashlib.sha256(f"artinx.sweep:{spec_text}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    for _ in range(count):
        size = rng.randint(0, class_count)
        yield Family(frozenset(rng.sample(range(class_count), size)))


# ---------------------------------------------------------------------------
# individual check suites: each takes (spec, group, lattice, table, report)
# and returns a status plus failures/notes
# ---------------------------------------------------------------------------


def _failure(spec: str, check: str, expected, got, context: str = "") -> dict:
    entry = {"group": spec, "check": check, "expected": str(expected), "got": str(got)}
    if context:
        entry["context"] = context
    return entry


def _check_crossmethod(spec, group, lattice, table, report) -> tuple[str, list, list]:
    """The random families: the report carries their method 1 analyses,
    from the one walk that served its cyclic family, and each gets one
    solve here.  evaluate_group records a cyclic-family disagreement, which
    still fails this suite."""
    failures = []
    for i, (fam, analysis) in enumerate(report.extra_analyses):
        m = artin_exponent_marks(table, fam)
        if analysis.exponent != m:
            failures.append(_failure(spec, "crossmethod", analysis.exponent, m,
                                     f"random family {i}"))
    status = "fail" if failures or not report.methods_agree else "ok"
    return status, failures, []


def _check_cyclic(spec, group, lattice, table, report) -> tuple[str, list, list]:
    exponent = report.exponent
    if group.is_cyclic:
        if exponent != 1:
            return "fail", [_failure(spec, "cyclic", 1, exponent, "cyclic group")], []
    elif exponent == 1:
        return "fail", [_failure(spec, "cyclic", "> 1", 1, "noncyclic group")], []
    return "ok", [], []


def _check_oddp(spec, group, lattice, table, report) -> tuple[str, list, list]:
    prediction = report.prediction
    if prediction.branch != "odd p-group":
        return "skip", [], []
    if report.exponent != prediction.value:
        return "fail", [_failure(spec, "oddp", prediction.value, report.exponent)], []
    return "ok", [], []


def _check_twogroup(spec, group, lattice, table, report) -> tuple[str, list, list]:
    shape, details = report.prediction.shape, report.prediction.details
    if shape is None:
        return "skip", [], []
    notes = []
    exponent = report.exponent
    thm_value = 2 if shape in ("quaternion", "dihedral") else details["generic"]
    cor_value = details.get("bracket-whole-group")
    if exponent != thm_value:
        notes.append({
            "group": spec, "check": "twogroup",
            "message": f"computed {exponent} vs power-formula value {thm_value} "
                       f"(shape {shape}) -- mismatch (report-only)",
        })
    if cor_value is not None and shape in ("quaternion", "dihedral", "semidihedral") \
            and exponent != cor_value:
        notes.append({
            "group": spec, "check": "twogroup",
            "message": f"computed {exponent} vs cyclic-commutator-rule value {cor_value} "
                       f"(shape {shape}) -- mismatch (report-only)",
        })
    return "report", [], notes


def _check_conductor(spec, group, lattice, table, report) -> tuple[str, list, list]:
    """The conductor equals |G| for every finite G: the congruence at U = 1
    forces |G| to divide it, and |G| times any ghost vector comes from the
    Burnside ring.  So this checks the solver and the table of marks, not a
    property of the group."""
    if group.order > CONDUCTOR_ORDER_CAP:
        return "skip", [], []
    got = conductor(table)
    if got != group.order:
        return "fail", [_failure(spec, "conductor", group.order, got)], []
    return "ok", [], []


def _check_sylow(spec, group, lattice, table, report) -> tuple[str, list, list]:
    notes = []
    for comparison in report.sylow or ():
        if not comparison.match:
            notes.append({
                "group": spec, "check": "sylow",
                "message": f"p={comparison.p}: exponent part {comparison.exponent_part} "
                           f"vs Sylow-subgroup exponent {comparison.sylow_exponent} "
                           f"-- mismatch (report-only)",
            })
    return "report", [], notes


def _check_lemmas(spec, group, lattice, table, report) -> tuple[str, list, list]:
    """Counting-set checks over every (H, U) with H a p-subgroup (one per
    conjugacy class) and U a cyclic subgroup normal in H:

    - the full and normal-members extension counts agree mod p;
    - the normal members are exactly the extensions inside H';
    - for abelian H and nontrivial proper U, the count is prime to p
      exactly when H is cyclic;
    - for 2-groups with |U| = 2 and [H,H] <= U, an odd count forces H
      cyclic or nonabelian of order 8.
    """
    failures = []
    for cls in lattice.classes:
        pp = as_prime_power(cls.representative.order)
        if pp is None:
            continue
        p = pp[0]
        H = cls.representative
        gens = lattice.generators_of(H.mask)
        # H <= C_G(H) exactly when its recorded generators commute pairwise
        abelian = all(group.mul(a, b) == group.mul(b, a) for a in gens for b in gens)
        cyclic_h = H.is_cyclic
        for u_mask, r in c_set_reports(lattice, H.mask):
            u_order, count = u_mask.bit_count(), r.c_count
            bad = []  # (expected, got) per failed check
            if (count - r.c_prime_count) % p:
                bad.append(("counts congruent mod p", f"{count} vs {r.c_prime_count}"))
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


def evaluate_group(task: tuple[str, tuple[str, ...]]) -> dict:
    """Run the requested checks for one group; the unit of parallel work."""
    spec_text, checks = task
    started = time.perf_counter()
    group = group_from_spec(spec_text)
    lattice = enumerate_subgroups(group)
    table = build_mark_table(lattice)

    # the crossmethod suite's families ride on the report's method 1 walk
    families = []
    if "crossmethod" in checks:
        families = list(random_families(spec_text, len(lattice.classes)))
    failures: list[dict] = []
    try:
        report = compute_exponent_report(
            group, spec_text, lattice=lattice, table=table,
            include_sylow="sylow" in checks, extra_families=families,
        )
    except MethodDisagreement as err:
        # the suites read the same report; the row fails whichever of them run
        report = err.report
        failures.append(_failure(spec_text, "crossmethod", report.exponent_congruence,
                                 report.exponent_marks, "family cyclic"))
    notes: list[dict] = []
    statuses: dict[str, str] = {}
    for name in CHECK_NAMES:
        if name in checks:
            # looked up at call time, so a replaced suite is the one that runs
            suite = globals()[f"_check_{name}"]
            statuses[name], f, n = suite(spec_text, group, lattice, table, report)
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


@dataclass
class RunResult:
    """Everything a sweep produced, in catalog order."""

    config: SweepConfig
    catalog: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)

    @property
    def failures(self) -> list[dict]:
        return [f for row in self.rows for f in row["failures"]]

    @property
    def notes(self) -> list[dict]:
        return [n for row in self.rows for n in row["notes"]]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(config: SweepConfig) -> RunResult:
    """Evaluate every catalog group, in order, optionally across workers."""
    catalog = tuple(default_catalog(config.max_order))
    checks = tuple(c for c in CHECK_NAMES if c in config.checks)
    tasks = [(spec, checks) for spec in catalog]
    if config.jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(config.jobs, len(tasks))) as pool:
            # one group at a time: the catalog is sorted by order, so larger
            # chunks would leave its heavy tail to a single worker
            rows = pool.map(evaluate_group, tasks, chunksize=1)
    else:
        rows = [evaluate_group(task) for task in tasks]
    return RunResult(config=config, catalog=catalog, rows=rows)


def summary_to_dict(result: RunResult, include_timings: bool = False) -> dict:
    """JSON-ready sweep summary; timings are opt-in so that identical runs
    stay byte-identical."""
    out = {
        "schema": 1,
        "max_order": result.config.max_order,
        "checks": [c for c in CHECK_NAMES if c in result.config.checks],
        "group_count": len(result.catalog),
        "ok": result.ok,
        "failures": result.failures,
        "notes": result.notes,
        "groups": [
            {
                "group": row["spec"],
                "exponent": row["report"]["exponent"],
                "statuses": row["statuses"],
            }
            for row in result.rows
        ],
        "reports": [row["report"] for row in result.rows],
    }
    if include_timings:
        out["timings"] = {row["spec"]: round(row["seconds"], 6) for row in result.rows}
    return out
