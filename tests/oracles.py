"""Independent brute-force oracles used to cross-check the fast implementations.

These deliberately avoid the library's enumeration strategies: subgroups
are found by closing every small subset of elements.  That is exhaustive for
any group whose subgroups are all generated by at most max_gens elements,
which holds for every group these oracles are pointed at in the tests.

The second half holds reference implementations and helpers that only the
tests use: the all-triples table check, the per-element power walk, powers
by repeated multiplication and the pair-scan abelian test, the
entry-by-entry realizations of C, D, Q, SD and direct products, group
tables from tuple elements,
relabelled tables, per-entry marks, the dense table of marks with its
JSON form and the ghost vectors of basis coefficients, the per-conjugate
table of marks, the
divisor-scan exponent and the Fraction conductor, products in the transitive basis, normality and
normalizer tests, the commutator subgroup, quotient groups, subgroups as
standalone tables with the local exponent and the Sylow comparison run on
them, the element-scanning cyclic extensions, conjugacy
classes by conjugating with every element, the join-closure lattice, the
congruence-pair scan over every subgroup, and coset counting with the
per-coset profile, the element-scanning p-group count, the lattice-free
closure path and the central p-part reduction, the 2-group shape by
relation search, the centralizer and second-center pair scans with the
predictor's bracket rules read off them and the closure-checked
center-only bracket rule, method 1's walk with a family list per pair, the
per-h bracket preimage scan and the lemma suite's reports by scanning every
cyclic subgroup for each U, one pair's report with no lattice at hand, the
cyclic x cyclic block of the table of marks from the group table and the
cyclic-family exponent solved from it, and a hypothesis strategy of random
perm: specs.
"""

import functools
import itertools
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from hypothesis import strategies as st

from artinx import artin as artin_module
from artinx.artin import (
    ALL_CYCLIC,
    CongruenceAnalysis,
    CongruencePair,
    CSetReport,
    Family,
    SylowComparison,
    artin_exponent_marks,
    bracket_preimage,
    bracket_rows,
    family_members,
)
from artinx import burnside
from artinx.burnside import (
    MarkTable,
    NotIntegral,
    build_mark_table,
    solve_membership,
)
from artinx.groups import (
    FAMILIES,
    DirectProduct,
    GroupTable,
    Named,
    _compose,
    _cycles_to_perm,
    as_prime_power,
    p_part,
    parse_group_spec,
    prime_factors,
    tabulate,
)
from artinx.lattice import (
    SubgroupLattice,
    _assemble,
    _expand_class,
    check_subgroup,
    closure_mask,
    conjugate_mask,
    cosets,
    enumerate_subgroups,
    mask_elements,
)


def brute_force_subgroup_masks(group: GroupTable, max_gens: int = 3) -> set[int]:
    """All subgroup bit sets found by closing subsets of up to max_gens elements."""
    masks = {1}
    for k in range(1, max_gens + 1):
        for subset in itertools.combinations(range(1, group.order), k):
            masks.add(closure_mask(group, subset))
    return masks


def brute_force_classes(group: GroupTable, max_gens: int = 3) -> set[frozenset[int]]:
    """Subgroup conjugacy classes as frozensets of masks."""
    classes = set()
    for mask in brute_force_subgroup_masks(group, max_gens):
        classes.add(frozenset(conjugate_mask(group, g, mask) for g in range(group.order)))
    return classes


def class_conjugates(lattice: SubgroupLattice) -> list[tuple[int, ...]]:
    """Per lattice class, its conjugate masks read off class_of, ascending
    in element order."""
    out: list[list[int]] = [[] for _ in lattice.classes]
    for mask, idx in lattice.class_of.items():
        out[idx].append(mask)
    return [tuple(sorted(masks, key=mask_elements)) for masks in out]


def brute_force_mark(group: GroupTable, u_mask: int, v_mask: int) -> int:
    """Number of cosets gV fixed by U under left translation on G/V,
    counted directly from the definition."""
    u_elems = mask_elements(u_mask)
    v_elems = set(mask_elements(v_mask))
    count = 0
    seen = set()
    for g in range(group.order):
        coset = frozenset(group.mult[g][v] for v in v_elems)
        if coset in seen:
            continue
        seen.add(coset)
        if all(group.mult[u][g] in coset for u in u_elems):
            count += 1
    return count


def solve_lower_triangular_fractions(rows, values):
    """Solve M x = v for lower-triangular integer M by plain forward
    substitution over exact fractions."""
    n = len(rows)
    out = [Fraction(0)] * n
    for i in range(n):
        acc = Fraction(values[i])
        for j in range(i):
            acc -= rows[i][j] * out[j]
        out[i] = acc / rows[i][i]
    return out


def is_cyclic_mask_naive(group: GroupTable, mask: int) -> bool:
    """Whether the subgroup on the mask is generated by one of its elements."""
    return any(closure_mask(group, (x,)) == mask for x in mask_elements(mask))


def brute_force_cyclic_coset_count(group: GroupTable, u_mask: int, v_mask: int) -> int:
    """Number of cosets vU in V/U with <v, U> cyclic, straight from the
    definition: enumerate cosets as frozensets, close U together with the
    coset representative, test cyclicity by single-generator search."""
    u_elems = mask_elements(u_mask)
    seen = set()
    count = 0
    for v in mask_elements(v_mask):
        coset = frozenset(group.mult[v][u] for u in u_elems)
        if coset in seen:
            continue
        seen.add(coset)
        generated = closure_mask(group, tuple(u_elems) + (v,))
        if is_cyclic_mask_naive(group, generated):
            count += 1
    return count


def brute_force_artin_exponent(group: GroupTable, max_gens: int = 3) -> int:
    """Least n >= 1 with n * (indicator of cyclic classes) expressible as an
    integer combination of mark-table rows, found by scanning every n in turn
    with a from-scratch lattice, from-scratch marks, and the plain fraction
    solver above.  Exhaustive but slow; meant for small groups only."""
    classes = brute_force_classes(group, max_gens)
    reps = sorted((min(cls) for cls in classes), key=lambda m: (bin(m).count("1"), m))
    k = len(reps)
    rows = [[brute_force_mark(group, u, v) for u in reps] for v in reps]
    target = [1 if is_cyclic_mask_naive(group, m) else 0 for m in reps]
    # membership asks for integer a with sum_j a_j * rows[j][i] = n * target[i];
    # reversing both axes makes the transposed system lower triangular
    flipped = [[rows[k - 1 - j][k - 1 - i] for j in range(k)] for i in range(k)]
    n = 0
    while True:
        n += 1
        values = [n * t for t in reversed(target)]
        solution = solve_lower_triangular_fractions(flipped, values)
        if all(x.denominator == 1 for x in solution):
            return n


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def reference_validate_table(mult) -> None:
    """The group-table check with associativity tested on all n**3 triples;
    raises ValueError with the same messages as the library's validator."""
    n = len(mult)
    if any(len(row) != n for row in mult):
        raise ValueError("multiplication table must be square")
    if any(not 0 <= x < n for row in mult for x in row):
        raise ValueError("multiplication table entries out of range")
    ident = list(range(n))
    if list(mult[0]) != ident or [row[0] for row in mult] != ident:
        raise ValueError("element 0 is not a two-sided identity")
    if any(sorted(row) != ident for row in mult):
        raise ValueError("multiplication table is not a Latin square (rows)")
    if any(sorted(col) != ident for col in zip(*mult)):
        raise ValueError("multiplication table is not a Latin square (columns)")
    for a in range(n):
        for b in range(n):
            ab = mult[a][b]
            for c in range(n):
                if mult[ab][c] != mult[a][mult[b][c]]:
                    raise ValueError("multiplication table is not associative")


def reference_cycle_data(mult) -> tuple[list[int], list[int]]:
    """Each element's order and the bit set of its cyclic subgroup, by
    walking the powers of every element one by one."""
    orders, masks = [], []
    for g in range(len(mult)):
        mask, x, k = 1, g, 1
        while x != 0:
            mask |= 1 << x
            x = mult[x][g]
            k += 1
        orders.append(k)
        masks.append(mask)
    return orders, masks


def element_order(group: GroupTable, g: int) -> int:
    """The order of g, the size of the cyclic subgroup it generates."""
    return group.cyclic_masks[g].bit_count()


def power(group: GroupTable, g: int, k: int) -> int:
    """g**k, by k mod the order of g multiplications on the right."""
    acc = 0
    for _ in range(k % element_order(group, g)):
        acc = group.mult[acc][g]
    return acc


def reference_is_abelian(mult) -> bool:
    """Whether every pair of elements commutes, pair by pair."""
    n = len(mult)
    return all(mult[a][b] == mult[b][a] for a in range(n) for b in range(a + 1, n))


def relabeled(group: GroupTable, perm: Sequence[int]) -> GroupTable:
    """The same group with elements renamed by perm (which must fix 0)."""
    n = group.order
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..order-1")
    if perm[0] != 0:
        raise ValueError("perm must fix the identity (element 0)")
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        row = group.mult[a]
        target = mult[perm[a]]
        for b in range(n):
            target[perm[b]] = perm[row[b]]
    return GroupTable(mult)


def _cycle_parity(p: Sequence[int]) -> int:
    """Parity of a permutation as the sum of (length - 1) over its cycles."""
    seen = [False] * len(p)
    parity = 0
    for start in range(len(p)):
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            parity ^= x != start
    return parity


def _reference_realization(spec):
    """Elements of a spec as tuples or ints, with their multiplication; a
    direct product's elements are tuples multiplied factor by factor.  Named
    families dispatch on their letters here, not through groups.FAMILIES."""
    if isinstance(spec, DirectProduct):
        realized = [_reference_realization(f) for f in spec.factors]
        muls = [r[1] for r in realized]

        def mul(a, b):
            return tuple(m(x, y) for m, x, y in zip(muls, a, b))

        return list(itertools.product(*(r[0] for r in realized))), mul
    if not isinstance(spec, Named):  # permutation generators
        degree = max([1] + [max(c) for gen in spec.generators for c in gen])
        gens = [_cycles_to_perm(gen, degree) for gen in spec.generators]
        elements = [tuple(range(degree))]
        for current in elements:
            for g in gens:
                nxt = _compose(current, g)
                if nxt not in elements:
                    elements.append(nxt)
        return elements, _compose
    n = spec.n
    if spec.family == "C":
        return list(range(n)), lambda a, b: (a + b) % n
    if spec.family in ("D", "Q", "SD"):
        m = n // 2
        twist, square = {"D": (-1, 0), "Q": (-1, m // 2), "SD": (m // 2 - 1, 0)}[spec.family]

        def mul(a, b):
            (i, f), (j, g) = a, b
            return ((i + (twist * j if f else j) + (square if f and g else 0)) % m, f ^ g)

        return [(i, f) for f in (0, 1) for i in range(m)], mul
    if spec.family == "S":
        return list(itertools.permutations(range(n))), _compose
    if spec.family == "A":
        even = [p for p in itertools.permutations(range(n)) if _cycle_parity(p) == 0]
        return even, _compose
    if spec.family == "H":

        def mul(a, b):
            return ((a[0] + b[0]) % n, (a[1] + b[1]) % n, (a[2] + b[2] + a[0] * b[1]) % n)

        return list(itertools.product(range(n), repeat=3)), mul
    raise ValueError(f"no reference realization for family {spec.family!r}")


def reference_realize_cyclic(n: int) -> list[list[int]]:
    """Addition mod n, entry by entry."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def reference_product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The direct product A x B entry by entry, with (i, j) numbered i * |B| + j."""
    nb = len(b)
    return [[x * nb + y for x in row_a for y in row_b] for row_a in a for row_b in b]


def reference_realize_two_generator(m: int, twist: int, square_offset: int) -> list[list[int]]:
    """<g, h> with g of order m, h^2 = g^square_offset and h g h^-1 =
    g^twist, tabulated from (i, f) pairs standing for g^i h^f."""
    elements = [(i, f) for f in (0, 1) for i in range(m)]

    def mul(a, b):
        i, f = a
        j, g = b
        k = i + (twist * j if f else j) + (square_offset if f and g else 0)
        return (k % m, f ^ g)

    return tabulate(elements, mul)


def reference_realize(spec) -> list[list[int]]:
    """The table of a spec from the entry-by-entry realizations above: C,
    D, Q and SD by their own, a product by reference_product_table, and S,
    A and H (which the library also tabulates) through groups.FAMILIES."""
    spec = parse_group_spec(spec) if isinstance(spec, str) else spec
    if isinstance(spec, DirectProduct):
        return functools.reduce(reference_product_table, map(reference_realize, spec.factors))
    n = spec.n
    if spec.family == "C":
        return reference_realize_cyclic(n)
    m = n // 2
    if spec.family == "D":
        return reference_realize_two_generator(m, -1, 0)
    if spec.family == "Q":
        return reference_realize_two_generator(m, -1, m // 2)
    if spec.family == "SD":
        return reference_realize_two_generator(m, m // 2 - 1, 0)
    return FAMILIES[spec.family].realize(n)


def reference_group_table(spec) -> list[list[int]]:
    """The multiplication table of a spec from tuple elements and a Python
    multiplication, numbered through an index dict in element-list order."""
    elements, mul = _reference_realization(
        parse_group_spec(spec) if isinstance(spec, str) else spec
    )
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def dense_rows(table: MarkTable) -> list[list[int]]:
    """The table of marks as a full n x n matrix of ints."""
    out = []
    for columns, marks in table.rows:
        dense = [0] * len(table.rows)
        for j, m in zip(columns, marks):
            dense[j] = m
        out.append(dense)
    return out


def mark_table_to_dict(table: MarkTable, spec_text: str) -> dict:
    """The table as the dict whose json.dumps(..., indent=2) is the text
    that burnside.mark_table_json streams, with the dense matrix whole."""
    return {
        "schema": 1,
        "group": spec_text,
        "class_orders": list(table.class_orders),
        "class_sizes": list(table.class_sizes),
        "class_cyclic": list(table.class_cyclic),
        "marks": dense_rows(table),
    }


def ghost_of(table: MarkTable, coefficients: Sequence[int]) -> tuple[int, ...]:
    """Mark vector of an element given by basis coefficients."""
    if len(coefficients) != len(table.rows):
        raise ValueError("coefficient vector has the wrong length")
    out = [0] * len(table.rows)
    for c, (columns, marks) in zip(coefficients, table.rows):
        if c:
            for j, m in zip(columns, marks):
                out[j] += c * m
    return tuple(out)


def reference_exponent_marks(
    group: GroupTable, table: MarkTable, family: Family = ALL_CYCLIC
) -> int:
    """Least divisor n of |G| with n * e_F integral in the transitive basis,
    found by trying every divisor in ascending order."""
    members = family_members(table.class_cyclic, family)
    for n in range(1, group.order + 1):
        if group.order % n:
            continue
        ghost = [n if i in members else 0 for i in range(len(table.rows))]
        if not isinstance(solve_membership(table, ghost), NotIntegral):
            return n
    raise AssertionError("|G| times a ghost vector did not solve integrally")


def reference_conductor(table: MarkTable) -> int:
    """The lcm of every denominator of the rational solutions for the unit
    ghost vectors, by Fraction back-substitution down the dense table."""
    rows = dense_rows(table)
    n = len(table.rows)
    below = [[(i, rows[i][j]) for i in range(j + 1, n) if rows[i][j]] for j in range(n)]
    result = 1
    for k in range(n):
        coeffs = [Fraction(0)] * n
        for j in range(n - 1, -1, -1):
            acc = Fraction(int(j == k))
            for i, m in below[j]:
                acc -= m * coeffs[i]
            coeffs[j] = acc / rows[j][j]
            result = lcm(result, coeffs[j].denominator)
    return result


def reference_mark_table(lattice: SubgroupLattice) -> MarkTable:
    """The table of marks by testing every class j <= i against every
    conjugate W of class i: each W arises from |N_G(V) : V| = |G : V| / |cl V|
    cosets, so M[V][U] = (|G : V| / |cl V|) * #{W in cl V : U <= W}."""
    classes = lattice.classes
    masks = [c.mask for c in classes]
    top = classes[-1].order
    rows = []
    for i, (cls, conjugates) in enumerate(zip(classes, class_conjugates(lattice))):
        hits = [j for w in conjugates for j in range(i + 1) if masks[j] & w == masks[j]]
        tally = Counter(hits)
        scale = top // (cls.order * cls.size)
        columns = tuple(sorted(tally))
        rows.append((columns, tuple(scale * tally[j] for j in columns)))
    return MarkTable(
        rows,
        class_orders=[c.order for c in classes],
        class_sizes=[c.size for c in classes],
        class_cyclic=[c.is_cyclic for c in classes],
    )


def count_solves(monkeypatch):
    """Replace solve_membership wherever an artinx module binds it by a
    counting wrapper; returns the list the wrapper appends to."""
    calls = []
    original = burnside.solve_membership

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("artinx") and getattr(module, "solve_membership", None) is original:
            monkeypatch.setattr(module, "solve_membership", counted)
    return calls


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
    classes = lattice.classes
    i, j = min(i, j), max(i, j)
    coeffs = [0] * len(classes)
    for stab in _orbit_stabilizers(group, classes[i].mask, classes[j].mask, classes[-1].generators):
        coeffs[lattice.class_of[stab]] += 1
    return tuple(coeffs)


@functools.lru_cache(maxsize=1 << 14)
def _orbit_stabilizers(group: GroupTable, u_mask: int, v_mask: int,
                       gens: tuple[int, ...]) -> tuple[int, ...]:
    """One stabilizer aUa^-1 meet bVb^-1 per orbit of G, generated by gens,
    on (G/U) x (G/V); cached, since the ring tests multiply the same basis
    pairs many times."""
    order = group.order
    rep_u = _coset_rep_array(group, u_mask)
    rep_v = _coset_rep_array(group, v_mask)
    mult = group.mult

    stabilizers = []
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
            stabilizers.append(stab)
    return tuple(stabilizers)


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


def is_normal_in(group: GroupTable, inner: int, outer: int) -> bool:
    """Whether the first subgroup is normal in the second (must be contained in it)."""
    if inner & outer != inner:
        raise ValueError("inner subgroup is not contained in the outer one")
    # g and gu conjugate the inner subgroup alike, so one g per left coset will do
    return all(conjugate_mask(group, g, inner) == inner for g in cosets(group, outer, inner))


def normalizer_index(lattice: SubgroupLattice, class_index: int) -> int:
    """(G : N_G(H)) for the class representative; equals the class size."""
    return lattice.classes[class_index].size


def normalizer(group: GroupTable, mask: int) -> int:
    """Bit set of {g : g H g^-1 == H}."""
    out = 0
    for g in range(group.order):
        if conjugate_mask(group, g, mask) == mask:
            out |= 1 << g
    return out


def quotient_group(group: GroupTable, outer: int, inner: int) -> tuple[GroupTable, list[int]]:
    """The quotient of the outer subgroup by a normal inner one, as its own
    table, plus the list of coset representatives indexing its elements."""
    if not is_normal_in(group, inner, outer):
        raise ValueError("inner subgroup is not normal, quotient undefined")
    reps = cosets(group, outer, inner)
    rep_of = {}
    for r in reps:
        for u in mask_elements(inner):
            rep_of[group.mult[r][u]] = r
    rep_index = {r: i for i, r in enumerate(reps)}
    mul = [[rep_index[rep_of[group.mult[a][b]]] for b in reps] for a in reps]
    return GroupTable(mul), reps


def subgroup_as_group(group: GroupTable, mask: int) -> tuple[GroupTable, list[int]]:
    """A subgroup as a standalone GroupTable, plus the list mapping its
    element indices back to elements of the ambient group."""
    elems = mask_elements(mask)
    try:
        mult = tabulate(elems, lambda a, b: group.mult[a][b])
    except KeyError:
        raise ValueError("mask is not closed under multiplication") from None
    return GroupTable.adopt(mult), elems


def standalone_local_exponent(
    group: GroupTable, lattice: SubgroupLattice, h_mask: int, family: Family
) -> int:
    """The exponent of a subgroup H for the family restricted to H, from H as
    a standalone group: its own validated table, its own enumerated lattice
    and its own table of marks, with the family moved across by mapping
    each class representative of H back into G."""
    sub, elems = subgroup_as_group(group, h_mask)
    sub_lattice = enumerate_subgroups(sub)
    sub_family = ALL_CYCLIC
    if family is not None:
        kept = []
        for i, cls in enumerate(sub_lattice.classes):
            in_g = sum(1 << elems[x] for x in mask_elements(cls.mask))
            if lattice.class_of[in_g] in family:
                kept.append(i)
        sub_family = frozenset(kept)
    return artin_exponent_marks(build_mark_table(sub_lattice), sub_family)


def standalone_sylow_report(
    group: GroupTable, lattice: SubgroupLattice, family: Family, exponent: int
) -> tuple[SylowComparison, ...]:
    """The Sylow comparison with each Sylow subgroup P as a standalone group,
    its exponent from standalone_local_exponent."""
    out = []
    for p in prime_factors(group.order):
        sylow_order = p_part(group.order, p)
        part = p_part(exponent, p)
        if sylow_order == group.order:
            out.append(SylowComparison(p, part, sylow_order, exponent))
            continue
        sylow_mask = next(c.mask for c in lattice.classes if c.order == sylow_order)
        out.append(SylowComparison(p, part, sylow_order,
                                   standalone_local_exponent(group, lattice, sylow_mask, family)))
    return tuple(out)


def cyclic_extensions(group: GroupTable, h_mask: int, u_mask: int, p: int) -> frozenset[int]:
    """Masks of the cyclic subgroups V with U <= V <= H and (V:U) = p.

    Every such V is generated by a single element of order p|U|, so scanning
    element orders is exhaustive."""
    target = p * u_mask.bit_count()
    out = set()
    for x in mask_elements(h_mask):
        if element_order(group, x) == target:
            cm = group.cyclic_masks[x]
            if cm & u_mask == u_mask:
                out.add(cm)
    return frozenset(out)


def reference_expand_class(group: GroupTable, mask: int) -> dict[int, int]:
    """All conjugates of a mask, each mapped to the least element conjugating
    the mask onto it, found by conjugating with every element in turn."""
    out: dict[int, int] = {}
    for g in range(group.order):
        c = conjugate_mask(group, g, mask)
        if c not in out:
            out[c] = g
    return out


def join_closure_lattice(group: GroupTable) -> SubgroupLattice:
    """The subgroup lattice by join-closure, the enumerator that cyclic
    extension replaced: starting from the trivial subgroup, one base per
    class is joined with every nontrivial cyclic subgroup by closure_mask,
    and each new class is expanded once, when it is first reached."""
    cyclic: dict[int, tuple[int, ...]] = {}
    for g in range(1, group.order):
        cyclic.setdefault(group.cyclic_masks[g], (g,))
    found = [(*_expand_class(group, 1), ())]
    known = {1}
    queue: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    while queue:
        base, base_gens = queue.pop()
        for cm, cm_gens in cyclic.items():
            if cm & base == cm:
                continue
            gens = base_gens + cm_gens
            joined = closure_mask(group, gens, base)
            if joined in known:
                continue
            conj_to_g, normalizer = _expand_class(group, joined)
            found.append((conj_to_g, normalizer, gens))
            known.update(conj_to_g)
            queue.append((joined, gens))
    return _assemble(group, found)


def commutator(group: GroupTable, a: int, b: int) -> int:
    """a b a^-1 b^-1."""
    return group.mult[group.mult[a][b]][group.inv[group.mult[b][a]]]


def commutator_closure(group: GroupTable, mask: int) -> int:
    """Subgroup generated by all commutators of pairs from the bit set."""
    members = mask_elements(mask)
    gens = {commutator(group, a, b) for a in members for b in members}
    gens.discard(0)
    return closure_mask(group, gens)


def reference_congruence_pairs(
    group: GroupTable, lattice: SubgroupLattice, family: Family = ALL_CYCLIC
) -> list[CongruencePair]:
    """The congruence pairs by the plain scan: every subgroup against every
    class representative, normality tested by conjugating with all of V."""
    members = family_members([c.is_cyclic for c in lattice.classes], family)
    pairs = []
    for v_idx, V in enumerate(lattice.classes):
        vm = V.mask
        for u_mask in sorted(lattice.class_of):
            if u_mask == vm or u_mask & vm != u_mask:
                continue
            index = V.order // bin(u_mask).count("1")
            if as_prime_power(index) is None:
                continue
            if not all(conjugate_mask(group, g, u_mask) == u_mask for g in mask_elements(vm)):
                continue
            count = reference_coset_count(group, lattice, u_mask, vm, members)
            pairs.append(CongruencePair(
                v_class=v_idx,
                u_class=lattice.class_of[u_mask],
                u_mask=u_mask,
                index=index,
                count=count,
                constraint=index // gcd(index, count),
            ))
    return pairs


def reference_congruence_analysis(
    lattice: SubgroupLattice, families: Sequence[Family]
) -> list[CongruenceAnalysis]:
    """Method 1 by the one walk with a family list per pair: V over class
    representatives in class order, U over lattice.below; at every pair
    the families whose running exponent the index does not divide are listed
    afresh, and a pair with none is skipped before its prime-power and
    normality tests.  Any other pair is tallied once, through
    artin._coset_tally looked up at call time (so that a test can count the
    tallies), and each listed family sums its classes from that tally."""
    cyclic = [c.is_cyclic for c in lattice.classes]
    members = [family_members(cyclic, family) for family in families]
    exponents = [1] * len(families)
    best: list[dict[int, CongruencePair]] = [{} for _ in families]
    memo: dict[int, tuple[int, list]] = {}
    for v_idx, (V, inside) in enumerate(zip(lattice.classes, lattice.below)):
        for u_mask in inside:
            if u_mask == V.mask:
                continue
            index = V.order // u_mask.bit_count()
            needy = [i for i, e in enumerate(exponents) if e % index]
            if (not needy or as_prime_power(index) is None
                    or V.mask & ~lattice.normalizers[u_mask]):
                continue
            tally = artin_module._coset_tally(lattice, memo, u_mask, V.mask)
            for i in needy:
                count = sum(n for c, n in tally if c in members[i])
                constraint = index // gcd(index, count)
                if exponents[i] % constraint:
                    exponents[i] = lcm(exponents[i], constraint)
                    best[i][as_prime_power(constraint)[0]] = CongruencePair(
                        v_idx, lattice.class_of[u_mask], u_mask, index, count, constraint)
    return [
        CongruenceAnalysis(exponent, tuple(pairs[p] for p in sorted(pairs)))
        for exponent, pairs in zip(exponents, best)
    ]


def reference_pair_profile(
    group: GroupTable, lattice: SubgroupLattice, u_mask: int, v_mask: int
) -> dict[int, int]:
    """For U normal in V, how many cosets vU of V/U generate a subgroup in
    each lattice class, extending U by every coset representative in turn:
    <U, v> is the union of the cosets U v^k."""
    profile: dict[int, int] = {}
    for v in cosets(group, v_mask, u_mask):
        mask = u_mask
        frontier = mask_elements(u_mask)
        while frontier:
            frontier = [y for y in (group.mult[x][v] for x in frontier) if not mask >> y & 1]
            for y in frontier:
                mask |= 1 << y
        cls = lattice.class_of[mask]
        profile[cls] = profile.get(cls, 0) + 1
    return profile


def reference_coset_count(
    group: GroupTable,
    lattice: SubgroupLattice,
    u_mask: int,
    v_mask: int,
    members: frozenset[int],
) -> int:
    """Cosets vU of V/U with <v, U> in the family whose lattice classes are
    members, from the per-coset profile."""
    profile = reference_pair_profile(group, lattice, u_mask, v_mask)
    return sum(c for cls, c in profile.items() if cls in members)


def cyclic_coset_count_p_group(group: GroupTable, u_mask: int, v_mask: int) -> int:
    """Cosets vU of V/U with <v, U> cyclic, for V a p-group and U cyclic.

    In a p-group, <v, U> is cyclic exactly when U <= <v> (the subgroups of a
    cyclic p-group are totally ordered), and then every element of the coset
    vU qualifies; so qualifying elements outside U come in blocks of |U|.
    """
    u_order = bin(u_mask).count("1")
    v_elems = mask_elements(v_mask)
    if any(group.cyclic_masks[x] == v_mask for x in v_elems):
        return len(v_elems) // u_order
    qualifying = 0
    for x in v_elems:
        if not u_mask >> x & 1 and group.cyclic_masks[x] & u_mask == u_mask:
            qualifying += 1
    if qualifying % u_order:
        raise AssertionError("qualifying elements did not fill whole cosets")
    return 1 + qualifying // u_order


def mark(group: GroupTable, lattice: SubgroupLattice, u_class: int, v_class: int) -> int:
    """Number of cosets of G/V fixed by U (classes given by index)."""
    U = lattice.classes[u_class]
    V = lattice.classes[v_class]
    if group.is_abelian:
        return group.order // V.order if U.mask & V.mask == U.mask else 0
    full = (1 << group.order) - 1
    um = U.mask
    count = 0
    for g in cosets(group, full, V.mask):
        w = conjugate_mask(group, g, V.mask)
        if um & w == um:
            count += 1
    return count


def cyclic_count(
    group: GroupTable,
    u_mask: int,
    v_mask: int,
    family: Family = ALL_CYCLIC,
    lattice: Optional[SubgroupLattice] = None,
    central_reduction: bool = False,
) -> int:
    """Number of cosets vU of V/U whose extension <v, U> belongs to the family.

    Requires U normal in V (the count is only congruence-meaningful then).
    Explicit-class families need the lattice (class indices refer to it).
    With central_reduction=True the count is recomputed through the p-part
    reduction (valid when U is cyclic and central in V) and cross-checked.
    """
    if not is_normal_in(group, u_mask, v_mask):
        raise ValueError("U must be normal in V")
    if lattice is not None:
        members = family_members(
            [c.is_cyclic for c in lattice.classes], family)
        direct = reference_coset_count(group, lattice, u_mask, v_mask, members)
    elif family is not None:
        raise ValueError("explicit-class families require the subgroup lattice")
    else:
        direct = _closure_cyclic_count(group, u_mask, v_mask)
    if central_reduction:
        if family is not None:
            raise ValueError("central reduction applies to the cyclic family only")
        reduced = _reduced_cyclic_count(group, u_mask, v_mask)
        if reduced is not None and reduced != direct:
            raise RuntimeError(
                f"central reduction disagrees with the direct count: "
                f"{reduced} != {direct}"
            )
    return direct


def _closure_cyclic_count(group: GroupTable, u_mask: int, v_mask: int) -> int:
    """The cyclic-family count without a lattice: the p-group shortcut when
    it applies, else closing U with each coset representative."""
    if not is_cyclic_mask_naive(group, u_mask):
        return 0  # every extension contains U, so none is cyclic
    if as_prime_power(bin(v_mask).count("1")):
        return cyclic_coset_count_p_group(group, u_mask, v_mask)
    u_elems = mask_elements(u_mask)
    count = 0
    for v in cosets(group, v_mask, u_mask):
        m = closure_mask(group, tuple(u_elems) + (v,))
        if is_cyclic_mask_naive(group, m):
            count += 1
    return count


def central_reduction_pair(
    group: GroupTable, u_mask: int, v_mask: int
) -> Optional[tuple[int, int, int]]:
    """(p, U_p, V_p) for the p-part reduction c(U, V) = c(U_p, V_p), or None.

    The reduction needs U cyclic, (V:U) a power of a prime p, and U central
    in V; then V splits as V_p x U_{p'} and the p-parts are exactly the
    elements of p-power order."""
    u_elems = mask_elements(u_mask)
    v_elems = mask_elements(v_mask)
    pp = as_prime_power(len(v_elems) // len(u_elems))
    if pp is None or not is_cyclic_mask_naive(group, u_mask):
        return None
    mult = group.mult
    if any(mult[u][v] != mult[v][u] for u in u_elems for v in v_elems):
        return None
    p = pp[0]
    vp_mask = 0
    for x in v_elems:
        order = element_order(group, x)
        while order % p == 0:
            order //= p
        if order == 1:
            vp_mask |= 1 << x
    check_subgroup(group, vp_mask)
    up_mask = vp_mask & u_mask
    if bin(vp_mask).count("1") * len(u_elems) != len(v_elems) * bin(up_mask).count("1"):
        raise AssertionError("p-part indices disagree under the central hypothesis")
    return p, up_mask, vp_mask


def _reduced_cyclic_count(group: GroupTable, u_mask: int, v_mask: int) -> Optional[int]:
    """c(U, V) via the p-part reduction followed by the quotient step that
    shrinks U_p to order p; None when the hypotheses do not hold."""
    triple = central_reduction_pair(group, u_mask, v_mask)
    if triple is None:
        return None
    p, up_mask, vp_mask = triple
    if bin(up_mask).count("1") > p:
        shrink = 0  # p-th powers of U_p: its unique subgroup of index p
        for x in mask_elements(up_mask):
            shrink |= 1 << power(group, x, p)
        qtable, reps = quotient_group(group, vp_mask, shrink)
        u_image = 0
        for i, r in enumerate(reps):
            if up_mask >> r & 1:
                u_image |= 1 << i
        return cyclic_coset_count_p_group(qtable, u_image, (1 << qtable.order) - 1)
    return cyclic_coset_count_p_group(group, up_mask, vp_mask)


def reference_recognize_2group(group: GroupTable) -> str:
    """2-group shape by searching for a defining pair of generators: g
    spanning a cyclic subgroup of index 2 and order >= 4, h outside it, with
    h^2 and hgh^-1 as each shape requires.  Cyclic 2-groups admit no such
    pair and fall under "other"."""
    order = group.order
    half = order // 2
    if half < 4:
        return "other"
    for g in range(1, order):
        if element_order(group, g) != half:
            continue
        gm = group.cyclic_masks[g]
        g_inv = group.inv[g]
        q_square = power(group, g, half // 2)
        sd_twist = power(group, g, half // 2 - 1)
        for h in range(1, order):
            if gm >> h & 1:
                continue
            hh = group.mult[h][h]
            conj = group.mult[group.mult[h][g]][group.inv[h]]
            if hh == 0 and conj == g_inv:
                return "dihedral"
            if hh == q_square and conj == g_inv:
                return "quaternion"
            if order >= 16 and hh == 0 and conj == sd_twist:
                return "semidihedral"
    return "other"


def centralizer(group: GroupTable, mask: int) -> int:
    """Bit set of elements commuting with everything in the given bit set."""
    members = mask_elements(mask)
    mult = group.mult
    out = 0
    for g in range(group.order):
        row = mult[g]
        if all(row[x] == mult[x][g] for x in members):
            out |= 1 << g
    return out


def reference_second_center(group: GroupTable) -> int:
    """Bit set of {g : [g, x] in Z(G) for every x in G}, by scanning every
    pair of elements."""
    z_mask = centralizer(group, (1 << group.order) - 1)
    out = 0
    for g in range(group.order):
        if all(z_mask >> commutator(group, g, x) & 1 for x in range(group.order)):
            out |= 1 << g
    return out


def reference_bracket_preimage(
    group: GroupTable, elements: Sequence[int], generators: Sequence[int], u_mask: int
) -> int:
    """Bit set of the h in elements whose commutators [h, s] = h s h^-1 s^-1
    with every s in generators lie in the bit set u_mask, testing each h in
    turn."""
    out = 0
    for h in elements:
        if all(u_mask >> commutator(group, h, s) & 1 for s in generators):
            out |= 1 << h
    return out


def reference_c_set_reports(lattice: SubgroupLattice, h: int) -> list[tuple[int, CSetReport]]:
    """(U, report) for every cyclic U normal in the p-group H, the
    representative of class h, ascending by mask: normality by conjugation,
    H'(U) by the per-h scan over the class's generators, and for each U a
    scan of all of H's cyclic subgroups for the extensions of order p|U|
    that contain U."""
    group, cls = lattice.group, lattice.classes[h]
    h_mask, generators = cls.mask, cls.generators
    p = as_prime_power(h_mask.bit_count())[0]
    elements = mask_elements(h_mask)
    cyclic = sorted({group.cyclic_masks[x] for x in elements})
    normal = frozenset(m for m in cyclic if is_normal_in(group, m, h_mask))
    out = []
    for u_mask in sorted(normal):
        h_prime = reference_bracket_preimage(group, elements, generators, u_mask)
        c_masks = frozenset(m for m in cyclic
                            if m.bit_count() == p * u_mask.bit_count() and not u_mask & ~m)
        out.append((u_mask, CSetReport(c_masks, c_masks & normal, h_prime,
                                       frozenset(m for m in c_masks if not m & ~h_prime))))
    return out


def standalone_c_set_report(group: GroupTable, h_mask: int, u_mask: int) -> CSetReport:
    """The lemma suite's report for one pair with no lattice at hand, for H
    a nontrivial p-group and U cyclic and normal in H: H is proved a
    subgroup first, the bracket rows run over every element of H, so a
    subgroup M is normal in H exactly when M <= H'(M), and H'(U) is proved
    a subgroup by checking its closure."""
    check_subgroup(group, h_mask)
    pp = as_prime_power(h_mask.bit_count())
    if pp is None:
        raise ValueError("H must be a nontrivial p-group")
    if u_mask not in group.cyclic_subgroups:
        raise ValueError("U must be cyclic")
    if u_mask & h_mask != u_mask:
        raise ValueError("inner subgroup is not contained in the outer one")
    elements = mask_elements(h_mask)
    rows = bracket_rows(group, elements, elements)
    h_prime = bracket_preimage(rows, u_mask)
    if u_mask & h_prime != u_mask:
        raise ValueError("U must be normal in H")
    check_subgroup(group, h_prime)
    cyclic = {group.cyclic_masks[x] for x in elements}
    normal = frozenset(m for m in cyclic if not m & ~bracket_preimage(rows, m))
    c_masks = frozenset(m for m in cyclic
                        if m.bit_count() == pp[0] * u_mask.bit_count() and not u_mask & ~m)
    return CSetReport(c_masks, c_masks & normal, h_prime,
                      frozenset(m for m in c_masks if not m & ~h_prime))


def reference_order2_center_rules(group: GroupTable) -> Optional[dict[str, int]]:
    """The predictor's two bracket rules for a group whose center has order
    2, from the pair scans of the center and the second center, with the
    second center closure-checked; None when the center has another order."""
    if centralizer(group, (1 << group.order) - 1).bit_count() != 2:
        return None
    sub = reference_second_center(group)
    check_subgroup(group, sub)
    return {"bracket-whole-group": 4 if sub in group.cyclic_subgroups else 2,
            "bracket-center-only": 2}


def reference_center_only_rule(group: GroupTable) -> Optional[int]:
    """The "4 if cyclic else 2" rule on {g : [g, U] <= U} for a group whose
    center U has order 2, found by scanning every element and closure-checking
    the result; None when the center has another order."""
    z_mask = centralizer(group, (1 << group.order) - 1)
    if z_mask.bit_count() != 2:
        return None
    center_only = 0
    for g in range(group.order):
        if all(z_mask >> commutator(group, g, x) & 1 for x in mask_elements(z_mask)):
            center_only |= 1 << g
    check_subgroup(group, center_only)
    return 4 if center_only in group.cyclic_subgroups else 2


def is_p_hyperelementary(lattice: SubgroupLattice, h_mask: int, p: int) -> bool:
    """Whether H is p-hyperelementary, C ⋊ P with C cyclic of order prime to
    p and P a p-group: whether H holds an element of order |H|_{p'} whose
    cyclic subgroup is normal in H, read off the lattice's normalizers."""
    order = h_mask.bit_count()
    group, normalizers = lattice.group, lattice.normalizers
    return any(
        element_order(group, x) == order // p_part(order, p)
        and not h_mask & ~normalizers[group.cyclic_masks[x]]
        for x in mask_elements(h_mask)
    )


def dress_exponent(lattice: SubgroupLattice, family: Family = ALL_CYCLIC) -> int:
    """The least n >= 1 with n * e_F in the Burnside ring, by Dress's
    congruences (Dress 1969): a ghost vector x is the ghost of a Burnside
    ring element exactly when, for every U with w = |N(U):U|, the sum of
    x(<g, U>) over the cosets gU of N(U)/U is divisible by w.  For n * e_F
    that sum is n * c_U, with c_U the number of cosets whose <g, U> lies in
    F, so n must be a multiple of w / gcd(w, c_U); conjugates give the same
    condition, so one U per class will do.  The cosets g^k U with k prime to
    the order m of gU all generate <g, U>, so one walk gU, g^2 U, ... back
    to U counts phi(m) of them at once."""
    group, class_of = lattice.group, lattice.class_of
    members = family_members([c.is_cyclic for c in lattice.classes], family)
    exponent = 1
    for cls in lattice.classes:
        u_mask, u_elems = cls.mask, mask_elements(cls.mask)
        normalizer = lattice.normalizers[u_mask]
        w = normalizer.bit_count() // len(u_elems)
        count = int(class_of[u_mask] in members)  # the coset U itself
        todo = normalizer & ~u_mask
        while todo:
            g = (todo & -todo).bit_length() - 1
            layers, power = [], g  # the bit sets of g^k U, for k = 1, ..., m - 1
            while not u_mask >> power & 1:
                layers.append(sum(1 << group.mult[power][u] for u in u_elems))
                power = group.mult[power][g]
            m = len(layers) + 1
            extension = u_mask
            for k, bits in enumerate(layers, 1):
                extension |= bits
                if gcd(k, m) == 1:
                    todo &= ~bits
            if class_of[extension] in members:
                count += sum(1 for k in range(1, m) if gcd(k, m) == 1)
        exponent = lcm(exponent, w // gcd(w, count))
    return exponent


def cyclic_block_marks(group: GroupTable) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """The cyclic x cyclic block of the table of marks from the group table
    alone, with no lattice.  The cyclic subgroups fall into conjugacy
    classes, found by conjugating each least generator, and a class is named
    by its least mask: class_of maps the mask of every cyclic subgroup to
    its class's name.  marks[D, C] is phi_C(G/D), the mark of C on G/D, for
    every nonzero mark: for cyclic C and D it is |N_G(C)| / |D| when D's
    subgroup of order |C| is conjugate to C, and 0 otherwise, with
    |N_G(C)| = |G| / |cl C|."""
    mult, inv, masks = group.mult, group.inv, group.cyclic_masks
    class_of, size_of, powers_of = {}, {}, {}  # classes keyed by their least mask
    for mask, x in group.cyclic_subgroups.items():
        if mask in class_of:
            continue
        conjugates = {masks[mult[mult[g][x]][inv[g]]] for g in range(group.order)}
        rep = min(conjugates)
        class_of.update(dict.fromkeys(conjugates, rep))
        size_of[rep] = len(conjugates)
        x = group.cyclic_subgroups[rep]
        powers, y = [0], x  # x^0, x^1, ...: D's subgroup of order k is <x^(|D|/k % |D|)>
        while y:
            powers.append(y)
            y = mult[y][x]
        powers_of[rep] = powers
    marks = {}
    for d, powers in powers_of.items():
        m = d.bit_count()
        for k in range(1, m + 1):
            if m % k == 0:  # C is the class of D's subgroup of order k
                c = class_of[masks[powers[m // k % m]]]
                marks[d, c] = group.order // size_of[c] // m
    return class_of, marks


def cyclic_block_exponent(group: GroupTable) -> int:
    """A(G) for the cyclic family from the group table alone, with no
    lattice or table of marks.  An element of the Burnside ring whose ghost
    vanishes on every noncyclic class is a combination of the [G/D] with D
    cyclic (take a noncyclic K of nonzero coefficient maximal: its mark at
    K could not vanish), so the exponent is the least n for which n times
    the all-ones vector solves cyclic_block_marks over the integers.  The
    block is triangular by order, and its Fraction solution for the
    all-ones vector gives the exponent as the lcm of the denominators."""
    class_of, marks = cyclic_block_marks(group)
    solved: dict[int, Fraction] = {}
    for c in sorted(set(class_of.values()), key=int.bit_count, reverse=True):
        # every class solved so far is at least as large as C
        acc = Fraction(1) - sum(b * marks.get((d, c), 0) for d, b in solved.items())
        solved[c] = acc / marks[c, c]
    return lcm(*(b.denominator for b in solved.values()))


_cycles =st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=6, unique=True)
# permutation groups on up to six points, solvable or not
perm_specs = st.lists(st.lists(_cycles, min_size=1, max_size=2), min_size=1, max_size=3).map(
    lambda gens: "perm:" + ",".join(
        "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in gen) for gen in gens
    )
)
