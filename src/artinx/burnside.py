"""The Burnside ring of a finite group.

The ring B(G) is the free abelian group on the transitive G-sets [G/V], one
per conjugacy class of subgroups V.  Everything here is indexed by the class
order of a SubgroupLattice: coefficient vectors and ghost (mark) vectors are
plain tuples of that length.

The table of marks M has rows indexed by V and columns by U, with M[V][U]
the number of cosets of G/V fixed by U.  Counting the pairs U' <= W with U'
conjugate to U and W conjugate to V two ways gives

    M[V][U] = |G : V| * #{U' in cl U : U' <= V} / |cl U|,

so a row needs only the subgroups inside V's representative, which the
lattice's below index lists.  With classes sorted by subgroup order M is lower
triangular with positive diagonal, and most entries below the diagonal are
zero too, so each row is stored once, as two tuples: the columns of its
nonzero marks, ascending, and those marks in the same order; the diagonal
comes last.

Membership of a ghost vector in the image of B(G) is decided by exact
integer back-substitution, one row at a time from the last class down.
Since |G| times any ghost vector lies in that image, the solve of |G| times
a vector always succeeds, and its coefficients give the denominators of the
rational solution without any rational arithmetic.
"""

from __future__ import annotations

import json
from collections import Counter
from math import gcd, lcm
from typing import Collection, Iterator, NamedTuple, Sequence, Union

from .lattice import SubgroupLattice


class NotIntegral(NamedTuple):
    """Witness that a ghost vector is not in the image of the Burnside ring:
    back-substitution hit a non-integer at this class index."""

    class_index: int
    denominator: int


class MarkTable(NamedTuple):
    """Table of marks plus the per-class data needed to interpret it.

    rows[i] is a pair (columns, marks) of equal-length tuples: the columns j
    of row i's nonzero marks, ascending, and the marks M[i][j] in the same
    order.  The last column is the diagonal i, so marks[-1] is M[i][i]."""

    rows: list[tuple[tuple[int, ...], tuple[int, ...]]]
    class_orders: list[int]
    class_sizes: list[int]
    class_cyclic: list[bool]


def build_mark_table(lattice: SubgroupLattice) -> MarkTable:
    """The table of marks in the lattice's class order, as sparse rows.

    U fixes the coset gV exactly when U lies in the conjugate gVg^-1, and
    each conjugate W of V arises from |G : V| / |cl V| cosets.  Both
    |cl U| * #{W in cl V : U <= W} and |cl V| * #{U' in cl U : U' <= V}
    count the pairs U' <= W with U' in cl U and W in cl V, so
    M[V][U] = |G : V| * #{U' in cl U : U' <= V} / |cl U|, a tally over
    lattice.below of V that reads no conjugate of V; the division is
    exact."""
    classes, class_of = lattice.classes, lattice.class_of
    sizes = [c.size for c in classes]
    rows = []
    for cls, inside in zip(classes, lattice.below):
        tally = Counter(map(class_of.__getitem__, inside))
        index = lattice.group.order // cls.order
        columns = tuple(sorted(tally))
        rows.append((columns, tuple([index * tally[j] // sizes[j] for j in columns])))
    return MarkTable(
        rows,
        class_orders=[c.order for c in classes],
        class_sizes=sizes,
        class_cyclic=[c.is_cyclic for c in classes],
    )


def solve_membership(
    table: MarkTable, ghost: Sequence[int]
) -> Union[tuple[int, ...], NotIntegral]:
    """Express a ghost vector in the transitive basis, or return the first
    non-integrality witness (largest class first).

    Coefficient i is fixed by entry i once every larger class's row has been
    subtracted, because row i is zero to the right of its diagonal."""
    rows = table.rows
    n = len(rows)
    if len(ghost) != n:
        raise ValueError("ghost vector has the wrong length")
    rest = list(ghost)
    coeffs = [0] * n
    for i in range(n - 1, -1, -1):
        columns, marks = rows[i]
        d = marks[-1]
        q, r = divmod(rest[i], d)
        if r:
            return NotIntegral(class_index=i, denominator=d // gcd(r, d))
        if q:
            coeffs[i] = q
            # an index walk, not zip: rows average a handful of marks, and
            # building a zip per row costs a sweep more than the subtractions
            k = 0
            for j in columns:
                rest[j] -= q * marks[k]
                k += 1
    return tuple(coeffs)


def ghost_denominator(table: MarkTable, support: Collection[int]) -> int:
    """Least n >= 1 with n * e in the image of B(G), for the ghost vector e
    that is 1 on the classes in support and 0 elsewhere.

    |G| times any ghost vector lies in that image.  With c the coefficients
    of |G| * e, n * e solves to n * c / |G|, which is integral exactly when
    |G| / gcd(|G|, c) divides n."""
    order = table.class_orders[-1]
    coeffs = solve_membership(table, [order if i in support else 0 for i in range(len(table.rows))])
    if isinstance(coeffs, NotIntegral):
        raise RuntimeError(
            f"|G| times a ghost vector did not solve integrally ({coeffs}); "
            "the table of marks is inconsistent"
        )
    return order // gcd(order, *coeffs)


def conductor(table: MarkTable) -> int:
    """Least n >= 1 such that n times every ghost vector lies in the image
    of the Burnside ring: the lcm of the denominators of the unit vectors."""
    result = 1
    for j in range(len(table.rows)):
        result = lcm(result, ghost_denominator(table, (j,)))
    return result


def mark_table_json(table: MarkTable, spec_text: str) -> Iterator[str]:
    """The table as a JSON document indented by 2: its schema, group, class
    orders, sizes and cyclicity, and "marks", the n x n matrix of ints.  The
    text comes in pieces, one per matrix row, each built from the row's
    stored marks, so that no more than one row of the matrix is ever held."""
    head = json.dumps({
        "schema": 1,
        "group": spec_text,
        "class_orders": table.class_orders,
        "class_sizes": table.class_sizes,
        "class_cyclic": table.class_cyclic,
    }, indent=2)
    yield head[:-2] + ',\n  "marks": [\n'  # reopens the object that head closed
    zeros = ["      0"] * len(table.rows)
    separator = ""
    for columns, marks in table.rows:
        cells = zeros.copy()
        for j, m in zip(columns, marks):
            cells[j] = f"      {m}"
        yield separator + "    [\n" + ",\n".join(cells) + "\n    ]"
        separator = ",\n"
    yield "\n  ]\n}"
