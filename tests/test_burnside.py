"""Tables of marks, ghost vectors, membership, conductor, multiplication."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinx.burnside import (
    NotIntegral,
    build_mark_table,
    conductor,
    dense_rows,
    ghost_of,
    mark_table_to_dict,
    solve_membership,
)
from artinx.groups import group_from_spec
from artinx.lattice import enumerate_subgroups
from artinx.sweep import default_catalog

from oracles import (
    brute_force_mark,
    count_solves,
    mark,
    multiply_basis,
    multiply_elements,
    normalizer,
    reference_conductor,
    relabeled,
    solve_lower_triangular_fractions,
)

A5 = "perm:(1 2 3 4 5),(1 2 3)"
S5 = "perm:(1 2 3 4 5),(1 2)"


def setup_group(spec):
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    return g, lattice, build_mark_table(lattice)


_tables = {}


def cached_table(spec):
    if spec not in _tables:
        _tables[spec] = setup_group(spec)[2]
    return _tables[spec]


# ---------------------------------------------------------------------------
# the table itself
# ---------------------------------------------------------------------------


def test_c2_marks():
    _, _, table = setup_group("C2")
    assert dense_rows(table) == [[2, 0], [1, 1]]
    assert table.rows == [((0,), (2,)), ((0, 1), (1, 1))]


def test_s3_marks_frozen():
    _, _, table = setup_group("S3")
    assert table.class_orders == [1, 2, 3, 6]
    assert dense_rows(table) == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]


def test_q8_marks_frozen():
    _, _, table = setup_group("Q8")
    assert table.class_orders == [1, 2, 4, 4, 4, 8]
    assert dense_rows(table) == [
        [8, 0, 0, 0, 0, 0],
        [4, 4, 0, 0, 0, 0],
        [2, 2, 2, 0, 0, 0],
        [2, 2, 0, 2, 0, 0],
        [2, 2, 0, 0, 2, 0],
        [1, 1, 1, 1, 1, 1],
    ]


@pytest.mark.parametrize(
    "spec", ["C12", "S3", "D8", "Q8", "A4", "S4", "D12", "A5", "S3xS3", "A4xC3", "D30"]
)
def test_marks_match_brute_force(spec):
    g, lattice, table = setup_group(spec)
    rows = dense_rows(table)
    for i, ci in enumerate(lattice.classes):
        for j, cj in enumerate(lattice.classes):
            expected = brute_force_mark(g, cj.representative.mask, ci.representative.mask)
            assert rows[i][j] == expected
            assert mark(g, lattice, j, i) == expected


@pytest.mark.parametrize("spec", ["C12", "S3", "Q8", "S4", "D12", "C2xC2xC2", "SD16"])
def test_mark_table_shape_invariants(spec):
    g, lattice, table = setup_group(spec)
    n = table.n
    rows = dense_rows(table)
    for i in range(n):
        # lower triangular with zero above the diagonal
        assert all(rows[i][j] == 0 for j in range(i + 1, n))
        # first column: index of the subgroup; last row: all ones
        assert rows[i][0] == g.order // table.class_orders[i]
        assert rows[n - 1][i] == 1
        # diagonal: index of the subgroup in its normalizer
        nz = normalizer(g, lattice.classes[i].representative.mask)
        assert rows[i][i] == bin(nz).count("1") // table.class_orders[i]
        # the stored row: exactly the nonzero marks, ascending, diagonal last
        columns, marks = table.rows[i]
        assert list(zip(columns, marks)) == [(j, m) for j, m in enumerate(rows[i]) if m]
        assert type(columns) is type(marks) is tuple
        assert columns[-1] == i and marks[-1] == rows[i][i]


def test_mark_table_of_c2_to_the_sixth_stays_small():
    """The largest panel lattice, C2^6 (2,825 classes, 95,706 nonzero marks):
    with the lattice and its below() index built beforehand, building the
    table allocates under 3 MB at its peak.  Rows of (j, mark) pair tuples
    take about 6 MB; two flat tuples per row take about 2 MB."""
    lattice = enumerate_subgroups(group_from_spec("C2xC2xC2xC2xC2xC2"))
    lattice.below()
    tracemalloc.start()
    try:
        table = build_mark_table(lattice)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (table.n, sum(len(columns) for columns, _ in table.rows)) == (2825, 95706)
    assert peak < 3_000_000, peak


# ---------------------------------------------------------------------------
# ghost vectors and membership
# ---------------------------------------------------------------------------


def test_ghost_of_basis_vector_is_table_row():
    _, _, table = setup_group("S4")
    for i in range(table.n):
        unit = [0] * table.n
        unit[i] = 1
        assert ghost_of(table, unit) == tuple(dense_rows(table)[i])


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


def fraction_solution(table, ghost):
    """Rational coefficients of a ghost vector by plain forward substitution:
    M^T x = v is lower triangular once both axes are reversed."""
    rows = dense_rows(table)
    k = table.n
    flipped = [[rows[k - 1 - j][k - 1 - i] for j in range(k)] for i in range(k)]
    return solve_lower_triangular_fractions(flipped, list(ghost)[::-1])[::-1]


def assert_solver_matches_fractions(table, ghost):
    """solve_membership gives the rational solution when it is integral and
    otherwise its first non-integer from the top; |G| times the vector
    always solves, to |G| times the rational solution."""
    expected = fraction_solution(table, ghost)
    got = solve_membership(table, ghost)
    fractional = [i for i, x in enumerate(expected) if x.denominator != 1]
    if fractional:
        top = fractional[-1]
        assert got == NotIntegral(class_index=top, denominator=expected[top].denominator)
    else:
        assert got == tuple(int(x) for x in expected)
    order = table.class_orders[-1]
    scaled = solve_membership(table, [order * v for v in ghost])
    assert scaled == tuple(order * x for x in expected)
    return got


def test_solver_agrees_with_plain_fraction_elimination():
    table = cached_table("S4")
    rng = random.Random(77)
    witnesses = 0
    for _ in range(20):
        ghost = [rng.randint(-50, 50) for _ in range(table.n)]
        witnesses += isinstance(assert_solver_matches_fractions(table, ghost), NotIntegral)
    assert witnesses > 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["S4", "Q8", "SD16", "C2xC2xC2", A5]), st.data())
def test_solver_agrees_with_fractions_on_random_ghosts(spec, data):
    table = cached_table(spec)
    vector = data.draw(
        st.lists(st.integers(-10**6, 10**6), min_size=table.n, max_size=table.n)
    )
    # half the draws are images of random coefficients, so integral results occur
    ghost = ghost_of(table, vector) if data.draw(st.booleans()) else vector
    assert_solver_matches_fractions(table, ghost)


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


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5])
def test_conductor_matches_fraction_lcm(spec):
    assert conductor(cached_table(spec)) == reference_conductor(cached_table(spec))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_conductor_matches_fraction_lcm_relabeled(spec):
    g = group_from_spec(spec)
    rng = random.Random(f"conductor:{spec}")
    for _ in range(3):
        h = relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1))
        table = build_mark_table(enumerate_subgroups(h))
        assert conductor(table) == reference_conductor(table) == g.order


@pytest.mark.parametrize("spec", ["C1", "S4", "SD16", "C2xC2xC2"])
def test_conductor_solves_once_per_class(spec, monkeypatch):
    table = cached_table(spec)
    calls = count_solves(monkeypatch)
    conductor(table)
    assert len(calls) == table.n


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
    rows = [tuple(r) for r in dense_rows(table)]
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
    assert data["marks"] == dense_rows(table)
    assert data["class_orders"] == [1, 2, 3, 6]
    assert data["class_sizes"] == [1, 3, 1, 1]
    assert data["class_cyclic"] == [True, True, True, False]
