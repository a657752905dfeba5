"""The acceptance checklist.

One test per numbered criterion, each asserted at full stated scope and
ending with a one-line summary (visible under -s or on failure).  Everything
here is exact integer arithmetic; there are no tolerances.
"""

import random
import time
from fractions import Fraction

from artinx.artin import (
    artin_exponent_congruence,
    artin_exponent_marks,
    closed_form_predictor,
    compute_exponent_report,
)
from artinx.burnside import (
    build_mark_table,
    conductor,
    dense_rows,
    ghost_of,
    solve_membership,
)
from artinx.groups import as_prime_power, group_from_spec
from artinx.lattice import enumerate_subgroups
from artinx.sweep import RANDOM_FAMILIES, SweepConfig, default_catalog, run_sweep

from oracles import (
    brute_force_artin_exponent,
    multiply_basis,
    multiply_elements,
    relabeled,
    solve_lower_triangular_fractions,
)

CATALOG_64 = default_catalog(64)
CATALOG_24 = default_catalog(24)


def setup_group(spec):
    group = group_from_spec(spec)
    return group, enumerate_subgroups(group)


def test_criterion_01_exponent_one_iff_cyclic():
    started = time.perf_counter()
    for spec in CATALOG_64:
        group, lattice = setup_group(spec)
        exponent = artin_exponent_congruence(lattice)
        assert (exponent == 1) == group.is_cyclic, spec
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"criterion 1 PASS: exponent 1 exactly on the cyclic entries, all "
        f"{len(CATALOG_64)} catalog groups, {elapsed:.1f}s (< 60s)"
    )


def test_criterion_02_odd_p_group_formula():
    # For a noncyclic p-group of odd order p^alpha the exponent is
    # p^(alpha-1).  Each value is computed by both methods and additionally
    # pinned by the from-scratch brute-force oracle; for the rank-2 abelian
    # entries two generators span every subgroup, so the oracle may stop
    # there.
    started = time.perf_counter()
    cases = ("C3xC3", "C3xC9", "C3xC3xC3", "H3", "C5xC5", "C7xC7")
    summary = []
    for spec in cases:
        group, lattice = setup_group(spec)
        p, alpha = as_prime_power(group.order)
        expected = p ** (alpha - 1)
        congruence = artin_exponent_congruence(lattice)
        marks = artin_exponent_marks(build_mark_table(lattice))
        oracle = brute_force_artin_exponent(group, max_gens=3 if alpha == 3 else 2)
        assert congruence == marks == oracle == expected, spec
        summary.append(f"{spec}={expected}")
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(
        f"criterion 2 PASS: p^(alpha-1) on all six odd p-groups "
        f"({', '.join(summary)}), {elapsed:.1f}s (< 120s); note: the larger "
        f"p^alpha readings 25 and 49 for C5xC5 and C7xC7 are contradicted by "
        f"both methods and by the brute-force oracle"
    )


def test_criterion_03_dihedral_quaternion_semidihedral():
    # pinned exact values
    for spec in ("D8", "D16", "D32", "D64", "Q8"):
        group, lattice = setup_group(spec)
        assert artin_exponent_congruence(lattice) == 2, spec
        assert artin_exponent_marks(build_mark_table(lattice)) == 2, spec

    # Q8 once more by hand: back-substitute the transposed mark table with
    # plain fractions; n = 1 is non-integral, n = 2 is integral.
    group, lattice = setup_group("Q8")
    table = build_mark_table(lattice)
    k = table.n
    rows = dense_rows(table)
    flipped = [[rows[k - 1 - j][k - 1 - i] for j in range(k)] for i in range(k)]
    target = [1 if c else 0 for c in reversed(table.class_cyclic)]
    at_one = solve_lower_triangular_fractions(flipped, target)
    at_two = solve_lower_triangular_fractions(flipped, [2 * t for t in target])
    assert any(Fraction(x).denominator != 1 for x in at_one)
    assert all(Fraction(x).denominator == 1 for x in at_two)

    # larger quaternion and all semidihedral groups: the two closed-form
    # candidates conflict, so acceptance is cross-method agreement plus a
    # side-by-side report of both predictions.
    lines = []
    for spec in ("Q16", "Q32", "Q64", "SD16", "SD32", "SD64"):
        group, lattice = setup_group(spec)
        congruence = artin_exponent_congruence(lattice)
        marks = artin_exponent_marks(build_mark_table(lattice))
        assert congruence == marks, spec
        prediction = closed_form_predictor(group)
        shape = prediction.shape
        power_rule = 2 if shape in ("quaternion", "dihedral") else prediction.details["generic"]
        commutator_rule = prediction.details["bracket-whole-group"]
        lines.append(
            f"{spec}: computed {congruence}, power-rule {power_rule}, "
            f"commutator-rule {commutator_rule}"
        )
    print(
        "criterion 3 PASS: D8-D64 and Q8 equal 2 exactly (Q8 re-verified by "
        "hand back-substitution); Q16-Q64 and SD16-SD64 cross-method agree, "
        "predictions reported side by side: " + "; ".join(lines)
    )


def test_criterion_04_conductor_equals_order():
    started = time.perf_counter()
    for spec in CATALOG_24:
        group, lattice = setup_group(spec)
        assert conductor(build_mark_table(lattice)) == group.order, spec
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    print(
        f"criterion 4 PASS: conductor equals group order on all "
        f"{len(CATALOG_24)} catalog groups of order <= 24, {elapsed:.1f}s (< 30s)"
    )


def test_criterion_05_cross_method_equivalence():
    assert RANDOM_FAMILIES == 20
    result = run_sweep(SweepConfig(max_order=64, checks=frozenset({"crossmethod"})))
    assert result.ok
    assert all(row["statuses"]["crossmethod"] == "ok" for row in result.rows)
    assert all(
        row["report"]["methods_agree"] is True for row in result.rows
    )
    print(
        f"criterion 5 PASS: congruence and mark-table exponents agree on all "
        f"{len(result.rows)} catalog groups, for the cyclic family and 20 "
        f"seeded explicit families per group, zero exceptions"
    )


def test_criterion_06_counting_lemma_suite():
    result = run_sweep(SweepConfig(max_order=64, checks=frozenset({"lemmas"})))
    assert result.ok
    assert all(row["statuses"]["lemmas"] == "ok" for row in result.rows)
    print(
        f"criterion 6 PASS: extension-counting congruence, normal-members "
        f"identity, abelian cyclicity test, and the odd-count implication "
        f"hold over every (H, U) pair in all {len(result.rows)} catalog groups"
    )


def test_criterion_07_burnside_ring_structure():
    pair_checks = 0
    for spec in CATALOG_24:
        group, lattice = setup_group(spec)
        table = build_mark_table(lattice)
        k = table.n
        rows = dense_rows(table)
        for i in range(k):
            assert rows[i][0] == group.order // table.class_orders[i]
            expected_diag = group.order // (table.class_sizes[i] * table.class_orders[i])
            assert rows[i][i] == expected_diag > 0
            for j in range(i + 1, k):
                assert rows[i][j] == 0
        # multiplication lands in the ring and matches marks pointwise
        for i in range(k):
            row_i = rows[i]
            for j in range(i, k):
                row_j = rows[j]
                product = ghost_of(table, multiply_basis(group, lattice, i, j))
                assert product == tuple(a * b for a, b in zip(row_i, row_j))
                pair_checks += 1
        # membership solving inverts the ghost map
        rng = random.Random(f"acceptance:roundtrip:{spec}")
        for _ in range(100):
            coeffs = tuple(rng.randint(-9, 9) for _ in range(k))
            assert solve_membership(table, ghost_of(table, coeffs)) == coeffs

    random_pair_checks = 0
    for spec in ("S4", "D12", "Q8"):
        group, lattice = setup_group(spec)
        table = build_mark_table(lattice)
        k = table.n
        rng = random.Random(f"acceptance:pairs:{spec}")
        for _ in range(1000):
            x = tuple(rng.randint(-3, 3) for _ in range(k))
            y = tuple(rng.randint(-3, 3) for _ in range(k))
            ghost = ghost_of(table, multiply_elements(group, lattice, x, y))
            pointwise = tuple(
                a * b for a, b in zip(ghost_of(table, x), ghost_of(table, y))
            )
            assert ghost == pointwise
            random_pair_checks += 1
    print(
        f"criterion 7 PASS: triangular/diagonal/first-column structure on all "
        f"{len(CATALOG_24)} tables, ghost of product = pointwise product on "
        f"{pair_checks} basis pairs and {random_pair_checks} random element "
        f"pairs, 100 membership round-trips per group"
    )


def test_criterion_08_divisibility_and_invariance():
    started = time.perf_counter()
    for spec in CATALOG_64:
        group, lattice = setup_group(spec)
        exponent = artin_exponent_congruence(lattice)
        assert group.order % exponent == 0, spec
        rng = random.Random(f"acceptance:relabel:{spec}")
        for _ in range(10):
            perm = [0] + rng.sample(range(1, group.order), group.order - 1)
            shuffled = relabeled(group, perm)
            assert (
                artin_exponent_congruence(enumerate_subgroups(shuffled))
                == exponent
            ), spec
    elapsed = time.perf_counter() - started
    print(
        f"criterion 8 PASS: exponent divides group order and survives 10 "
        f"random relabelings, all {len(CATALOG_64)} catalog groups, "
        f"{elapsed:.1f}s"
    )


def test_criterion_09_performance_envelope():
    started = time.perf_counter()
    result = run_sweep(SweepConfig(max_order=64, jobs=1))
    sweep_seconds = time.perf_counter() - started
    assert result.ok
    assert sweep_seconds < 300

    slowest_spec, slowest = "", 0.0
    for spec in CATALOG_64:
        group = group_from_spec(spec)
        t0 = time.perf_counter()
        enumerate_subgroups(group)
        dt = time.perf_counter() - t0
        assert dt < 2.0, spec
        if dt > slowest:
            slowest_spec, slowest = spec, dt
    print(
        f"criterion 9 PASS: full default sweep single-threaded in "
        f"{sweep_seconds:.1f}s (< 300s); slowest single enumeration "
        f"{slowest_spec} at {slowest:.2f}s (< 2s)"
    )
