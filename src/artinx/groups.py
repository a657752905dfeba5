"""Finite groups as explicit multiplication tables.

Elements of a group of order n are the integers 0..n-1 with 0 the identity.
A table is proven to be a group at construction, on its rows as bytes: the
range by one byte translation, the two-sided identity 0, Light's
associativity test by one byte translation per generator and row, and a 0
in every row; the rows and columns then need no check of their own, see
_validate_table.  So everything downstream may assume it really has one.
Its facts are computed there too, once: the generators that Light's test
found, each element's order, inverse and cyclic subgroup, and whether the
group is abelian, which is whether those generators commute.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from functools import reduce
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

ORDER_CAP = 256


class GroupSpecError(ValueError):
    """Malformed spec text, or parameters outside the supported families."""


class OrderCapError(ValueError):
    """Construction would exceed the supported maximum group order."""


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def as_prime_power(n: int) -> Optional[tuple[int, int]]:
    """Return (p, k) with n == p**k and k >= 1, or None if n is not a prime power."""
    if n < 2:
        return None
    p = _smallest_prime_factor(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factor(n) == n


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    while n > 1:
        p = _smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


# ---------------------------------------------------------------------------
# Group specs
# ---------------------------------------------------------------------------


class _NamedFields(NamedTuple):
    family: str
    n: int


class Named(_NamedFields):
    """A group of a family in FAMILIES, by the family's letters and its
    parameter: Named("SD", 16) is the semidihedral group of order 16."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, family: str, n: int) -> Named:
        entry = FAMILIES.get(family)
        if entry is None:
            raise GroupSpecError(f"unknown group family {family!r}")
        if not entry.accepts(n):
            raise GroupSpecError(f"{entry.rule}, got {n}")
        return super().__new__(cls, family, n)


class _DirectProductFields(NamedTuple):
    factors: tuple[GroupSpec, ...]


class DirectProduct(_DirectProductFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, factors: tuple[GroupSpec, ...]) -> DirectProduct:
        if len(factors) < 2:
            raise GroupSpecError("direct product needs at least two factors")
        return super().__new__(cls, factors)


class _PermGeneratorsFields(NamedTuple):
    generators: tuple[tuple[tuple[int, ...], ...], ...]


class PermGenerators(_PermGeneratorsFields):
    """Generators given in cycle notation; each generator is a tuple of cycles,
    each cycle a tuple of 1-based points.  A generator's cycles are composed
    left to right, the rightmost cycle applied first."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, generators: tuple[tuple[tuple[int, ...], ...], ...]) -> PermGenerators:
        if not generators:
            raise GroupSpecError("permutation spec needs at least one generator")
        return super().__new__(cls, generators)


GroupSpec = Union[Named, DirectProduct, PermGenerators]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_INTEGER_RE = re.compile(r"-?[0-9]+")


def ascii_int(text: str) -> int:
    """The integer that specs and CLI options write: an optional '-' and
    ASCII digits, around whitespace.  int() alone also reads '+', '_' and
    non-ASCII digits."""
    if not _INTEGER_RE.fullmatch(text.strip()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _parse_family_token(token: str) -> Named:
    m = _FAMILY_RE.match(token)
    if not m:
        raise GroupSpecError(f"malformed group token {token!r}")
    family, digits = m.group(1), m.group(2).lstrip("0") or "0"
    # a parameter longer than the cap is larger than it, and so is the order
    # it gives in every family; refusing it here keeps huge numbers from
    # being converted, factorized or printed
    if len(digits) > len(str(ORDER_CAP)):
        raise OrderCapError(
            f"{family} parameter of {len(digits)} digits exceeds the order cap of {ORDER_CAP}"
        )
    return Named(family, int(digits))


def _parse_perm_generators(body: str) -> PermGenerators:
    generators = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise GroupSpecError("empty permutation in generator list")
        leftover = _CYCLE_RE.sub("", chunk).strip()
        if leftover:
            raise GroupSpecError(f"unparsed text {leftover!r} in permutation {chunk!r}")
        cycles = []
        for cyc in _CYCLE_RE.finditer(chunk):
            points = cyc.group(1).split()
            try:
                values = tuple(map(ascii_int, points))
            except ValueError as exc:
                raise GroupSpecError(f"non-integer point in cycle {cyc.group(0)!r}") from exc
            if any(v < 1 for v in values):
                raise GroupSpecError(f"cycle points must be >= 1 in {cyc.group(0)!r}")
            if len(set(values)) != len(values):
                raise GroupSpecError(f"repeated point in cycle {cyc.group(0)!r}")
            if len(values) >= 2:
                cycles.append(values)
        generators.append(tuple(cycles))
    return PermGenerators(tuple(generators))


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string such as 'C12', 'C2xC4xC8', 'Q8', 'SD16', 'S4',
    'H3', or 'perm:(1 2)(3 4),(1 2 3)'.  The named families are the entries
    of FAMILIES, so a family is added by one entry there."""
    if not isinstance(text, str) or not text.strip():
        raise GroupSpecError("group spec is empty")
    body = text.strip()
    if body.startswith("perm:"):
        return _parse_perm_generators(body[len("perm:"):])
    parts = body.split("x")
    if any(not part for part in parts):
        raise GroupSpecError(f"empty factor in product spec {text!r}")
    factors = tuple(_parse_family_token(part) for part in parts)
    if len(factors) == 1:
        return factors[0]
    return DirectProduct(factors)


def spec_to_text(spec: GroupSpec) -> str:
    """Inverse of parse_group_spec, up to whitespace."""
    if isinstance(spec, Named):
        return f"{spec.family}{spec.n}"
    if isinstance(spec, DirectProduct):
        return "x".join(spec_to_text(f) for f in spec.factors)
    # a generator without cycles is the identity, written ()
    parts = ["".join("(" + " ".join(map(str, c)) + ")" for c in gen) or "()" for gen in spec.generators]
    return "perm:" + ",".join(parts)


def spec_order(spec: GroupSpec) -> Optional[int]:
    """Group order implied by the spec, or None when only closure can tell
    (permutation generators)."""
    if isinstance(spec, Named):
        return FAMILIES[spec.family].order(spec.n)
    if isinstance(spec, DirectProduct):
        return math.prod(spec_order(f) for f in spec.factors)
    return None


# ---------------------------------------------------------------------------
# Table validation and the GroupTable type
# ---------------------------------------------------------------------------


def _validate_table(mult: list[list[int]]) -> list[int]:
    """Prove that mult is the table of a group with identity 0, or raise
    ValueError naming the first of these that fails: square, entries in
    range, two-sided identity 0, Latin rows, Latin columns, associativity.
    Returns the generators that Light's test found.

    The proof, on each row as bytes (ORDER_CAP is 256, so every entry in
    range fits in one byte):

    - bytearray() refuses an entry outside 0..255, and deleting the bytes
      0..n-1 from the rows leaves nothing exactly when every entry is
      below n;
    - Light's test: the elements s with (x*s)*y == x*(s*y) for all x, y
      contain the identity and are closed under products, so checking them
      on a set that generates every element by left-normed products proves
      associativity.  For one s and x, the row of x*s must equal s's row
      translated through x's row, which maps each s*y to x*(s*y);
    - then the table is a monoid, and when every row holds 0 every element
      has a right inverse, and a monoid in which every element has a right
      inverse is a group, whose rows and columns are Latin.

    So the rows and columns are read, by _not_a_group, only when Light's
    test or the inverses fail, to pick the message.
    """
    n = len(mult)
    if any(len(row) != n for row in mult):
        raise ValueError("multiplication table must be square")
    ident = bytes(range(n))
    try:
        rows = list(map(bytearray, mult))
    except ValueError:  # an entry outside 0..255
        rows = None
    if rows is None or b"".join(rows).translate(None, ident):
        raise ValueError("multiplication table entries out of range")
    if rows[0] != ident or bytes([row[0] for row in mult]) != ident:
        raise ValueError("element 0 is not a two-sided identity")
    # the generators: each element that left-normed products of the earlier
    # ones do not reach
    gens: list[int] = []
    reached = bytearray(n)
    reached[0] = 1
    for candidate in range(1, n):
        if reached[candidate]:
            continue
        gens.append(candidate)
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            new = []
            for x in frontier:
                row = mult[x]
                for s in gens:
                    y = row[s]
                    if not reached[y]:
                        reached[y] = 1
                        new.append(y)
            frontier = new
    pad = bytes(256 - n)
    tables = [row + pad for row in rows]  # translate() takes 256 bytes
    for s in gens:
        times_x = rows[s].translate  # x's table -> (x*(s*y) for each y)
        if list(map(times_x, tables)) != [rows[row[s]] for row in mult]:
            raise ValueError(_not_a_group(mult))
    if not all(0 in row for row in rows):
        raise ValueError(_not_a_group(mult))
    return gens


def _not_a_group(mult: list[list[int]]) -> str:
    """What fails first for a square table in range with identity 0 that is
    not a group: its rows, else its columns, else associativity."""
    n = len(mult)
    elements = set(range(n))
    if not all(map(elements.__eq__, map(set, mult))):
        return "multiplication table is not a Latin square (rows)"
    if any(len(set(col)) != n for col in zip(*mult)):
        return "multiplication table is not a Latin square (columns)"
    return "multiplication table is not associative"


class GroupTable:
    """A finite group given by its full multiplication table."""

    __slots__ = ("order", "mult", "inv", "generators", "is_abelian", "is_cyclic",
                 "cyclic_subgroups", "_cyclic_mask_of")

    def __init__(self, mult: Sequence[Sequence[int]]) -> None:
        """Validate a copy of mult, normalized to a list of int lists; an
        entry that is not an integer, such as a float or a string, raises
        TypeError."""
        self._set_table([list(map(operator.index, row)) for row in mult])

    @classmethod
    def adopt(cls, mult: list[list[int]]) -> GroupTable:
        """A group on a fresh table that artinx built: validated, not copied."""
        group = cls.__new__(cls)
        group._set_table(mult)
        return group

    def _set_table(self, mult: list[list[int]]) -> None:
        n = len(mult)
        if n == 0:
            raise ValueError("empty multiplication table")
        if n > ORDER_CAP:
            raise OrderCapError(f"group order {n} exceeds the cap of {ORDER_CAP}")
        self.generators = gens = tuple(_validate_table(mult))
        self.order = n
        self.mult = mult
        # the generators generate G, so G is abelian exactly when they commute
        self.is_abelian = all(mult[a][b] == mult[b][a] for a, b in itertools.combinations(gens, 2))
        # walk each cyclic subgroup <x> once, for the least x it has not
        # reached: x^k has order m / d and generates the multiples of d in
        # <x>, for m = |<x>| and d = gcd(k, m), so one mask serves each d,
        # and x^(m-k) is the inverse of x^k; every mask holds the identity,
        # so a mask of 0 marks x unreached
        self._cyclic_mask_of = masks = [0] * n
        self.inv = inv = [0] * n
        for x in range(n):
            if masks[x]:
                continue
            powers, y = [0], x
            while y:
                powers.append(y)
                y = mult[y][x]
            m = len(powers)
            by_divisor: dict[int, int] = {}
            for k, power in enumerate(powers):
                d = math.gcd(k, m)
                if d not in by_divisor:
                    by_divisor[d] = sum([1 << z for z in powers[::d]])
                masks[power] = by_divisor[d]
                inv[power] = powers[-k]
        # each cyclic subgroup's bit set, mapped to its least generator, in
        # ascending order of that generator
        self.cyclic_subgroups = cyclic = {}
        for x, mask in enumerate(masks):
            cyclic.setdefault(mask, x)
        self.is_cyclic = (1 << n) - 1 in cyclic

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupTable(order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mult[self.mult[g][x]][self.inv[g]]

    def cyclic_mask(self, g: int) -> int:
        """Bit set of the cyclic subgroup generated by g."""
        return self._cyclic_mask_of[g]


# ---------------------------------------------------------------------------
# Named family realizations
# ---------------------------------------------------------------------------


def _check_cap(order: int, what: str) -> None:
    if order > ORDER_CAP:
        # an order too long to read, such as that of S999, is given by its length
        shown = order if order < 10**9 else f"of {len(str(order))} digits"
        raise OrderCapError(f"{what} has order {shown}, exceeding the cap of {ORDER_CAP}")


def tabulate(elements: Sequence, mul) -> list[list[int]]:
    """Multiplication table of the elements under mul, each element numbered
    by its position in the list.  Raises KeyError when a product falls
    outside the list."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def _product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Table of the direct product A x B, with the pair (i, j) numbered
    i * |B| + j, the order of itertools.product: the row of (i, j) is, for
    each x in A's row i, B's row j shifted by x * |B|."""
    na, nb = len(a), len(b)
    if nb == 1:  # A x 1 is A, numbered alike
        return a
    numbers = list(range(na * nb))
    shifted = [
        [itemgetter(*row_b)(numbers[x * nb:(x + 1) * nb]) for x in range(na)] for row_b in b
    ]
    return [
        list(itertools.chain.from_iterable(map(copies.__getitem__, row_a)))
        for row_a in a
        for copies in shifted
    ]


def _realize_cyclic(n: int) -> list[list[int]]:
    """Addition mod n: row a is 0..n-1 rotated left by a."""
    ident = list(range(n))
    return [ident[a:] + ident[:a] for a in range(n)]


def _realize_two_generator(m: int, twist: int, square_offset: int) -> list[list[int]]:
    """Groups <g, h> with g of order m, h^2 = g^square_offset and
    h g h^-1 = g^twist.  Element g^i h^f is numbered f * m + i.

    g^i times g^j h^f is g^(i+j) h^f, and g^i h times g^j h^f is
    g^(i + twist*j + f*square_offset) h^(1-f): rotations of 0..m-1, read
    through the twist map j -> twist*j mod m for the rows with an h."""
    numbers = list(range(2 * m))
    plain = [numbers[i:m] + numbers[:i] for i in range(m)]  # g^(i+j), by j
    with_h = [numbers[m + i:] + numbers[m:m + i] for i in range(m)]  # g^(i+j) h
    twisted = itemgetter(*[twist * j % m for j in range(m)])
    return [plain[i] + with_h[i] for i in range(m)] + [
        [*twisted(with_h[i]), *twisted(plain[(i + square_offset) % m])] for i in range(m)
    ]


def _realize_dihedral(order: int) -> list[list[int]]:
    return _realize_two_generator(order // 2, -1, 0)


def _realize_quaternion(order: int) -> list[list[int]]:
    return _realize_two_generator(order // 2, -1, order // 4)


def _realize_semidihedral(order: int) -> list[list[int]]:
    return _realize_two_generator(order // 2, order // 4 - 1, 0)


def _perm_parity(p: Sequence[int]) -> int:
    """0 for an even permutation, 1 for an odd one: the parity of its inversions."""
    return sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2)) % 2


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(x) = p[q[x]]: q acts first."""
    return tuple(p[q[x]] for x in range(len(p)))


def _realize_symmetric(n: int) -> list[list[int]]:
    return tabulate(list(itertools.permutations(range(n))), _compose)


def _realize_alternating(n: int) -> list[list[int]]:
    elements = [p for p in itertools.permutations(range(n)) if _perm_parity(p) == 0]
    return tabulate(elements, _compose)


def _realize_heisenberg(p: int) -> list[list[int]]:
    """3x3 upper unitriangular matrices over the prime field F_p."""
    elements = list(itertools.product(range(p), repeat=3))

    def mul(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2] + a[0] * b[1]) % p)

    return tabulate(elements, mul)


def _positive(n: int) -> bool:
    return n >= 1


def _even_from_4(n: int) -> bool:
    return n >= 4 and n % 2 == 0


def _two_power_from_8(n: int) -> bool:
    return n >= 8 and n & (n - 1) == 0


def _two_power_from_16(n: int) -> bool:
    return n >= 16 and n & (n - 1) == 0


def _parameter(n: int) -> int:
    return n


def _half_factorial(n: int) -> int:
    return max(1, math.factorial(n) // 2)


def _cube(p: int) -> int:
    return p ** 3


class _Family(NamedTuple):
    rule: str  # what the parameter must meet, as the error message says it
    accepts: Callable[[int], bool]
    order: Callable[[int], int]  # the group order, from the parameter
    realize: Callable[[int], list[list[int]]]  # the table, from the parameter


# The named families, keyed by the letters that start a spec token.  A new
# family is one entry here: parsing, spec text, orders, the order cap and
# realization all read this table.
FAMILIES: dict[str, _Family] = {
    "C": _Family("cyclic order must be >= 1", _positive, _parameter, _realize_cyclic),
    "D": _Family("dihedral order must be even and >= 4", _even_from_4, _parameter, _realize_dihedral),
    "Q": _Family("quaternion order must be a power of two >= 8",
                 _two_power_from_8, _parameter, _realize_quaternion),
    "SD": _Family("semidihedral order must be a power of two >= 16",
                  _two_power_from_16, _parameter, _realize_semidihedral),
    "S": _Family("symmetric degree must be >= 1", _positive, math.factorial, _realize_symmetric),
    "A": _Family("alternating degree must be >= 1", _positive, _half_factorial, _realize_alternating),
    "H": _Family("Heisenberg parameter must be prime", is_prime, _cube, _realize_heisenberg),
}
_FAMILY_RE = re.compile("(" + "|".join(FAMILIES) + r")([0-9]+)\Z")


def _cycles_to_perm(cycles: Iterable[tuple[int, ...]], degree: int) -> tuple[int, ...]:
    perms = []
    for cyc in cycles:
        p = list(range(degree))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a - 1] = b - 1
        perms.append(tuple(p))
    return reduce(_compose, perms, tuple(range(degree)))


def _realize_perm_generators(spec: PermGenerators) -> list[list[int]]:
    # number the points that occur 1, 2, ... in ascending order, so a tuple is
    # as long as the number of points and not the largest one; the closure
    # compares permutations only for equality, so the table is the same
    points = sorted({p for gen in spec.generators for cyc in gen for p in cyc})
    number = {p: i for i, p in enumerate(points, 1)}
    gens = [
        _cycles_to_perm([tuple(number[p] for p in cyc) for cyc in gen], len(points))
        for gen in spec.generators
    ]
    identity = tuple(range(len(points)))
    elements = [identity]
    seen = {identity}
    for current in elements:
        for g in gens:
            nxt = _compose(current, g)
            if nxt not in seen:
                if len(elements) >= ORDER_CAP:
                    raise OrderCapError(
                        f"permutation closure exceeds the cap of {ORDER_CAP} elements"
                    )
                seen.add(nxt)
                elements.append(nxt)
    return tabulate(elements, _compose)


def _realize(spec: GroupSpec) -> list[list[int]]:
    """The table of a spec.  Every table is checked against the cap before
    it is built: a named group from its order, a product factor by factor,
    a permutation group during its closure."""
    if isinstance(spec, Named):
        _check_cap(spec_order(spec), spec_to_text(spec))
        return FAMILIES[spec.family].realize(spec.n)
    if isinstance(spec, DirectProduct):
        tables, order = [], 1
        for count, factor in enumerate(spec.factors, 1):
            tables.append(_realize(factor))
            order *= len(tables[-1])
            if order > ORDER_CAP:
                # name the first prefix over the cap: a long product stops
                # there, with an order short enough to print
                _check_cap(order, spec_to_text(DirectProduct(spec.factors[:count])))
        return reduce(_product_table, tables)
    return _realize_perm_generators(spec)


def build_group(spec: GroupSpec) -> GroupTable:
    """Materialize the full multiplication table for a spec."""
    return GroupTable.adopt(_realize(spec))


def group_from_spec(spec: Union[str, GroupSpec]) -> GroupTable:
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    return build_group(spec)
