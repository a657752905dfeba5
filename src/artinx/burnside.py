"""The Burnside ring of a finite group.

The ring B(G) is the free abelian group on the transitive G-sets [G/V], one
per conjugacy class of subgroups V.  Everything here is indexed by the class
order of a SubgroupLattice: coefficient vectors and ghost (mark) vectors are
plain tuples of that length.

The table of marks M has rows indexed by V and columns by U, with M[V][U]
the number of cosets of G/V fixed by U.  With classes sorted by subgroup
order it is lower triangular with positive diagonal, so membership of a
ghost vector in the image of B(G) is decided by exact back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .groups import GroupTable
from .lattice import SubgroupLattice, conjugate_mask, cosets, mask_elements


@dataclass(frozen=True)
class NotIntegral:
    """Witness that a ghost vector is not in the image of the Burnside ring:
    back-substitution hit a non-integer at this class index."""

    class_index: int
    denominator: int


class MarkTable:
    """Table of marks plus the per-class data needed to interpret it."""

    def __init__(
        self,
        rows: list[list[int]],
        class_orders: Sequence[int],
        class_sizes: Sequence[int],
        class_cyclic: Sequence[bool],
    ) -> None:
        self.rows = rows  # kept, not copied: a dense n x n table is the largest object here
        self.n = len(self.rows)
        self.class_orders = list(class_orders)
        self.class_sizes = list(class_sizes)
        self.class_cyclic = list(class_cyclic)
        self._columns: Optional[list[list[tuple[int, int]]]] = None

    def column(self, j: int) -> list[tuple[int, int]]:
        """Nonzero entries of column j strictly below the diagonal, as
        (row_index, value) pairs."""
        if self._columns is None:
            self._columns = [
                [(i, self.rows[i][j]) for i in range(j + 1, self.n) if self.rows[i][j]]
                for j in range(self.n)
            ]
        return self._columns[j]


def build_mark_table(group: GroupTable, lattice: SubgroupLattice) -> MarkTable:
    """The full table of marks in the lattice's class order."""
    n = len(lattice.classes)
    order = group.order
    reps = [c.representative for c in lattice.classes]
    rows = [[0] * n for _ in range(n)]
    if group.is_abelian:
        for i, V in enumerate(reps):
            index = order // V.order
            row = rows[i]
            vm = V.mask
            for j in range(i + 1):
                um = reps[j].mask
                if um & vm == um:
                    row[j] = index
    else:
        full = (1 << order) - 1
        for i, V in enumerate(reps):
            conjugates = [
                conjugate_mask(group, g, V.mask) for g in cosets(group, full, V.mask)
            ]
            row = rows[i]
            for j in range(i + 1):
                um = reps[j].mask
                row[j] = sum(1 for w in conjugates if um & w == um)
    return MarkTable(
        rows,
        class_orders=[r.order for r in reps],
        class_sizes=[c.size for c in lattice.classes],
        class_cyclic=[r.is_cyclic for r in reps],
    )


def ghost_of(table: MarkTable, coefficients: Sequence[int]) -> tuple[int, ...]:
    """Mark vector of an element given by basis coefficients."""
    n = table.n
    if len(coefficients) != n:
        raise ValueError("coefficient vector has the wrong length")
    out = []
    for j in range(n):
        acc = coefficients[j] * table.rows[j][j]
        for i, m in table.column(j):
            c = coefficients[i]
            if c:
                acc += c * m
        out.append(acc)
    return tuple(out)


def _back_substitute(
    table: MarkTable, values: Sequence[int], stop_at_nonintegral: bool
) -> Union[list, NotIntegral]:
    """Solve (M transposed) x = values from the last class downward.

    Returns the coefficient list (ints and Fractions), or the first
    NotIntegral witness when stop_at_nonintegral is set.
    """
    n = table.n
    if len(values) != n:
        raise ValueError("ghost vector has the wrong length")
    coeffs: list = [0] * n
    for j in range(n - 1, -1, -1):
        acc = values[j]
        for i, m in table.column(j):
            c = coeffs[i]
            if c:
                acc -= m * c
        d = table.rows[j][j]
        if isinstance(acc, int) and acc % d == 0:
            coeffs[j] = acc // d
            continue
        q = Fraction(acc) / d
        if q.denominator == 1:
            coeffs[j] = int(q)
        elif stop_at_nonintegral:
            return NotIntegral(class_index=j, denominator=q.denominator)
        else:
            coeffs[j] = q
    return coeffs


def solve_membership(
    table: MarkTable, ghost: Sequence[int]
) -> Union[tuple[int, ...], NotIntegral]:
    """Express a ghost vector in the transitive basis, or return the first
    non-integrality witness (largest class first)."""
    result = _back_substitute(table, ghost, stop_at_nonintegral=True)
    if isinstance(result, NotIntegral):
        return result
    return tuple(result)


def solve_ghost_exact(table: MarkTable, ghost: Sequence[int]) -> list:
    """Full rational solution (ints where exact, Fractions elsewhere)."""
    result = _back_substitute(table, ghost, stop_at_nonintegral=False)
    assert not isinstance(result, NotIntegral)
    return result


def conductor(table: MarkTable) -> int:
    """Least n >= 1 such that n times every ghost vector lies in the image
    of the Burnside ring; the lcm of all denominators of the inverse table."""
    result = 1
    n = table.n
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        for c in _back_substitute(table, unit, stop_at_nonintegral=False):
            if isinstance(c, Fraction):
                result = lcm(result, c.denominator)
    return result


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def _coset_rep_array(group: GroupTable, mask: int) -> list[int]:
    """For each g, the least element of the left coset g*H."""
    members = mask_elements(mask)
    reps = [-1] * group.order
    mult = group.mult
    for g in range(group.order):
        if reps[g] >= 0:
            continue
        row = mult[g]
        for u in members:
            reps[row[u]] = g
    return reps


def multiply_basis(
    group: GroupTable, lattice: SubgroupLattice, i: int, j: int
) -> tuple[int, ...]:
    """Coefficients of [G/U_i] * [G/U_j] in the transitive basis.

    Orbits of G on (G/U_i) x (G/U_j) are enumerated directly; the orbit of
    (aU, bV) contributes one copy of [G / (aUa^-1 meet bVb^-1)].
    """
    cache = lattice._cache.setdefault("basis_products", {})
    key = (i, j) if i <= j else (j, i)
    if key in cache:
        return cache[key]

    order = group.order
    full = (1 << order) - 1
    u_mask = lattice.classes[key[0]].representative.mask
    v_mask = lattice.classes[key[1]].representative.mask
    rep_u = _coset_rep_array(group, u_mask)
    rep_v = _coset_rep_array(group, v_mask)
    gens = lattice.generators_of(full)
    mult = group.mult

    coeffs = [0] * len(lattice.classes)
    seen: set[tuple[int, int]] = set()
    for a in sorted(set(rep_u)):
        for b in sorted(set(rep_v)):
            start = (a, b)
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            for pair in orbit:
                pa, pb = pair
                for g in gens:
                    nxt = (rep_u[mult[g][pa]], rep_v[mult[g][pb]])
                    if nxt not in seen:
                        seen.add(nxt)
                        orbit.append(nxt)
            stab = conjugate_mask(group, a, u_mask) & conjugate_mask(group, b, v_mask)
            if len(orbit) * bin(stab).count("1") != order:
                raise AssertionError("orbit size does not match its stabilizer")
            coeffs[lattice.class_of[stab]] += 1

    result = tuple(coeffs)
    cache[key] = result
    return result


def multiply_elements(
    group: GroupTable,
    lattice: SubgroupLattice,
    x: Sequence[int],
    y: Sequence[int],
) -> tuple[int, ...]:
    """Product of two Burnside-ring elements given by basis coefficients."""
    n = len(lattice.classes)
    if len(x) != n or len(y) != n:
        raise ValueError("coefficient vector has the wrong length")
    out = [0] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            prod = multiply_basis(group, lattice, i, j)
            scale = xi * yj
            for k, c in enumerate(prod):
                if c:
                    out[k] += scale * c
    return tuple(out)


def mark_table_to_dict(table: MarkTable, spec_text: str) -> dict:
    """JSON-ready description of a table of marks."""
    return {
        "schema": 1,
        "group": spec_text,
        "class_orders": list(table.class_orders),
        "class_sizes": list(table.class_sizes),
        "class_cyclic": list(table.class_cyclic),
        "marks": [list(r) for r in table.rows],
    }
