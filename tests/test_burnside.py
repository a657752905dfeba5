"""Tables of marks, ghost vectors, membership, conductor, multiplication."""

import random
from fractions import Fraction

import pytest

from artinx.burnside import (
    NotIntegral,
    build_mark_table,
    conductor,
    ghost_of,
    mark_table_to_dict,
    multiply_basis,
    multiply_elements,
    solve_ghost_exact,
    solve_membership,
)
from artinx.groups import group_from_spec
from artinx.lattice import enumerate_subgroups

from oracles import brute_force_mark, mark, normalizer, solve_lower_triangular_fractions


def setup_group(spec):
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    return g, lattice, build_mark_table(g, lattice)


# ---------------------------------------------------------------------------
# the table itself
# ---------------------------------------------------------------------------


def test_c2_marks():
    _, _, table = setup_group("C2")
    assert table.rows == [[2, 0], [1, 1]]


def test_s3_marks_frozen():
    _, _, table = setup_group("S3")
    assert table.class_orders == [1, 2, 3, 6]
    assert table.rows == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]


def test_q8_marks_frozen():
    _, _, table = setup_group("Q8")
    assert table.class_orders == [1, 2, 4, 4, 4, 8]
    assert table.rows == [
        [8, 0, 0, 0, 0, 0],
        [4, 4, 0, 0, 0, 0],
        [2, 2, 2, 0, 0, 0],
        [2, 2, 0, 2, 0, 0],
        [2, 2, 0, 0, 2, 0],
        [1, 1, 1, 1, 1, 1],
    ]


@pytest.mark.parametrize("spec", ["C12", "S3", "D8", "Q8", "A4", "S4", "D12"])
def test_marks_match_brute_force(spec):
    g, lattice, table = setup_group(spec)
    for i, ci in enumerate(lattice.classes):
        for j, cj in enumerate(lattice.classes):
            expected = brute_force_mark(g, cj.representative.mask, ci.representative.mask)
            assert table.rows[i][j] == expected
            assert mark(g, lattice, j, i) == expected


@pytest.mark.parametrize("spec", ["C12", "S3", "Q8", "S4", "D12", "C2xC2xC2", "SD16"])
def test_mark_table_shape_invariants(spec):
    g, lattice, table = setup_group(spec)
    n = table.n
    for i in range(n):
        # lower triangular with zero above the diagonal
        assert all(table.rows[i][j] == 0 for j in range(i + 1, n))
        # first column: index of the subgroup; last row: all ones
        assert table.rows[i][0] == g.order // table.class_orders[i]
        assert table.rows[n - 1][i] == 1
        # diagonal: index of the subgroup in its normalizer
        nz = normalizer(g, lattice.classes[i].representative.mask)
        assert table.rows[i][i] == bin(nz).count("1") // table.class_orders[i]


# ---------------------------------------------------------------------------
# ghost vectors and membership
# ---------------------------------------------------------------------------


def test_ghost_of_basis_vector_is_table_row():
    _, _, table = setup_group("S4")
    for i in range(table.n):
        unit = [0] * table.n
        unit[i] = 1
        assert ghost_of(table, unit) == tuple(table.rows[i])


def test_s3_membership_solution_frozen():
    _, _, table = setup_group("S3")
    assert solve_membership(table, (2, 2, 2, 0)) == (-1, 2, 1, 0)


def test_s3_membership_witness_frozen():
    _, _, table = setup_group("S3")
    result = solve_membership(table, (1, 1, 1, 0))
    assert result == NotIntegral(class_index=2, denominator=2)


def test_q8_idempotent_scaling():
    _, _, table = setup_group("Q8")
    cyclic_ghost = (1, 1, 1, 1, 1, 0)
    assert solve_membership(table, [2 * v for v in cyclic_ghost]) == (0, -1, 1, 1, 1, 0)
    witness = solve_membership(table, cyclic_ghost)
    assert isinstance(witness, NotIntegral)
    assert witness.class_index == 4
    assert witness.denominator == 2


@pytest.mark.parametrize("spec", ["C6", "S3", "Q8", "D12", "S4"])
def test_round_trip_random_coefficients(spec):
    _, _, table = setup_group(spec)
    rng = random.Random(20240513)
    for _ in range(100):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(table.n))
        assert solve_membership(table, ghost_of(table, coeffs)) == coeffs


def test_solver_agrees_with_plain_fraction_elimination():
    _, _, table = setup_group("S4")
    rng = random.Random(77)
    # M^T x = v  <=>  solving the transposed system by forward substitution
    transposed = [[table.rows[j][i] for j in range(table.n)] for i in range(table.n)]
    reversed_rows = [[transposed[table.n - 1 - i][table.n - 1 - j] for j in range(table.n)] for i in range(table.n)]
    for _ in range(20):
        ghost = [rng.randint(-50, 50) for _ in range(table.n)]
        expected = solve_lower_triangular_fractions(reversed_rows, ghost[::-1])[::-1]
        got = solve_ghost_exact(table, ghost)
        assert [Fraction(c) for c in got] == expected


def test_non_integral_witness_is_first_from_top():
    _, _, table = setup_group("C4")
    # ghost (0, 1, 0): class C2 needs coefficient 1/2
    witness = solve_membership(table, (0, 1, 0))
    assert witness == NotIntegral(class_index=1, denominator=2)


# ---------------------------------------------------------------------------
# conductor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expected",
    [("C1", 1), ("C2", 2), ("C4", 4), ("C6", 6), ("S3", 6), ("Q8", 8), ("C2xC2", 4)],
)
def test_conductor_known_values(spec, expected):
    _, _, table = setup_group(spec)
    assert conductor(table) == expected


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_identity_element_is_full_group_class():
    g, lattice, table = setup_group("S3")
    n = len(lattice.classes)
    for i in range(n):
        prod = multiply_basis(g, lattice, i, n - 1)
        expected = tuple(1 if k == i else 0 for k in range(n))
        assert prod == expected
        assert multiply_basis(g, lattice, n - 1, i) == expected


def test_regular_representation_squares():
    g, lattice, _ = setup_group("C2")
    # [G/1] * [G/1] = |G| [G/1]
    assert multiply_basis(g, lattice, 0, 0) == (2, 0)


def test_free_times_anything_is_free():
    g, lattice, table = setup_group("S4")
    n = len(lattice.classes)
    for j in range(n):
        prod = multiply_basis(g, lattice, 0, j)
        # [G/1] * [G/V] = (G:V) [G/1]
        expected = tuple(g.order // table.class_orders[j] if k == 0 else 0 for k in range(n))
        assert prod == expected


@pytest.mark.parametrize("spec", ["C6", "S3", "Q8", "D8", "C2xC2"])
def test_ghost_map_is_ring_homomorphism_all_pairs(spec):
    g, lattice, table = setup_group(spec)
    n = len(lattice.classes)
    rows = [tuple(r) for r in table.rows]
    for i in range(n):
        for j in range(n):
            prod = multiply_basis(g, lattice, i, j)
            lhs = ghost_of(table, prod)
            rhs = tuple(a * b for a, b in zip(rows[i], rows[j]))
            assert lhs == rhs


def test_multiplication_commutes_and_distributes():
    g, lattice, table = setup_group("D12")
    rng = random.Random(4242)
    n = len(lattice.classes)
    for _ in range(10):
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        y = tuple(rng.randint(-3, 3) for _ in range(n))
        z = tuple(rng.randint(-3, 3) for _ in range(n))
        xy = multiply_elements(g, lattice, x, y)
        assert xy == multiply_elements(g, lattice, y, x)
        yz = tuple(a + b for a, b in zip(y, z))
        lhs = multiply_elements(g, lattice, x, yz)
        xz = multiply_elements(g, lattice, x, z)
        assert lhs == tuple(a + b for a, b in zip(xy, xz))
        assert ghost_of(table, xy) == tuple(
            a * b for a, b in zip(ghost_of(table, x), ghost_of(table, y))
        )


def test_mark_table_serialization():
    _, _, table = setup_group("S3")
    data = mark_table_to_dict(table, "S3")
    assert data["schema"] == 1
    assert data["group"] == "S3"
    assert data["marks"] == table.rows
    assert data["class_orders"] == [1, 2, 3, 6]
    assert data["class_sizes"] == [1, 3, 1, 1]
    assert data["class_cyclic"] == [True, True, True, False]
