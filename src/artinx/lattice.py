"""Subgroup lattices of finite groups.

Subgroups are represented as bit sets over the element indices: bit x of the
mask is set exactly when element x belongs to the subgroup.  The lattice
groups all subgroups into conjugacy classes, each with a canonical
representative, and is the index structure everything downstream (tables of
marks, Artin exponents) is expressed against: with each subgroup's class and
normalizer, it lists the subgroups inside each class representative.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import partial
from typing import Iterable, NamedTuple, Optional, Sequence

from .groups import GroupTable, as_prime_power, prime_factors

MAX_SUBGROUPS = 100_000  # enumerate_subgroups raises ResourceCapError past this many


class ResourceCapError(RuntimeError):
    """Enumeration would exceed a resource limit."""


class IncompleteLattice(RuntimeError):
    """A subgroup that a computation reached is missing from the lattice."""


def mask_elements(mask: int) -> list[int]:
    """Element indices contained in a bit set, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def closure_mask(
    group: GroupTable,
    generators: Iterable[int],
    base: int = 1,
    base_rows: Optional[list[list[int]]] = None,
) -> int:
    """Bit set of the subgroup generated by the given elements.

    base is the bit set of a subgroup H of the result (by default the trivial
    one) that the closure grows from, as a union of right cosets H y: each
    coset representative times each generator lands in a coset already
    present or adds a whole new one.  H must lie in the subgroup that the
    generators alone generate.  base_rows, when given, are the table rows of
    H's elements, for a caller that joins one base with many generators.
    """
    gens = [g for g in generators]
    mult = group.mult
    h_rows = [mult[h] for h in mask_elements(base)] if base_rows is None else base_rows
    mask = base
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            row = mult[x]
            for g in gens:
                y = row[g]
                if not mask >> y & 1:
                    for h_row in h_rows:  # the coset H y
                        mask |= 1 << h_row[y]
                    new.append(y)
        frontier = new
    return mask


def check_subgroup(group: GroupTable, mask: int) -> None:
    """Prove a bit set a subgroup: it holds the identity and is closed under
    the product; raise ValueError otherwise."""
    if not mask & 1:
        raise ValueError("subgroup mask must contain the identity")
    mult = group.mult
    elements = mask_elements(mask)
    for a in elements:
        row = mult[a]
        for b in elements:
            if not mask >> row[b] & 1:
                raise ValueError(f"mask is not closed: {a}*{b} escapes")


def conjugate_mask(group: GroupTable, g: int, mask: int) -> int:
    """Bit set of g H g^-1."""
    mult, row, g_inv = group.mult, group.mult[g], group.inv[g]
    out = 0
    for x in mask_elements(mask):
        out |= 1 << mult[row[x]][g_inv]
    return out


def cosets(group: GroupTable, outer: int, inner: int) -> list[int]:
    """Left coset representatives of the inner subgroup in the outer one,
    each the least element of its coset, in ascending order."""
    if inner & outer != inner:
        raise ValueError("inner subgroup is not contained in the outer one")
    inner_elems = mask_elements(inner)
    mult = group.mult
    seen = 0
    reps = []
    for v in mask_elements(outer):
        if seen >> v & 1:
            continue
        reps.append(v)
        row = mult[v]
        for u in inner_elems:
            seen |= 1 << row[u]
    return reps


class SubgroupClass(NamedTuple):
    """A conjugacy class of subgroups, as its representative, the conjugate
    least in element order: its bit set, order, cyclicity and a small
    generating set, and the number of conjugates in the class.  The other
    conjugates are the masks that the lattice's class_of maps to the class."""

    mask: int
    order: int
    is_cyclic: bool
    size: int
    generators: tuple[int, ...]


class SubgroupLattice(NamedTuple):
    """All subgroups of a group, organized by conjugacy class; _assemble
    builds every lattice.

    Classes are sorted by (subgroup order, element tuple of the canonical
    representative), which _assemble reads off the bits of each mask's
    complement, from bit 0 up, with no element lists; the trivial subgroup
    is class 0 and the whole group is the last class.  class_of maps every
    subgroup mask (not just the representatives) to its class index, and
    normalizers maps it to its normalizer in the group: U is normal in V
    when V & ~normalizers[U] is 0.
    below lists, for each class, the subgroup masks inside its
    representative (see _below_index).
    """

    group: GroupTable
    classes: list[SubgroupClass]
    class_of: dict[int, int]
    normalizers: dict[int, int]
    below: list[list[int]]

    def subgroup_count(self) -> int:
        return sum(c.size for c in self.classes)


def _below_index(group: GroupTable, classes: Sequence[SubgroupClass],
                 class_of: dict[int, int]) -> list[list[int]]:
    """For each class, the subgroup masks inside its representative,
    ascending by mask.

    A subgroup U is not inside V exactly when it holds an element
    outside V.  Then a power of that element of prime-power order lies
    outside V too, and so does every generator of the cyclic subgroup
    of U that the power generates.  So with one generator x per cyclic
    subgroup of prime-power order of the group, bit i of lacking[x]
    marks the i-th subgroup as lacking x, and V's subgroups are the AND
    of lacking[x] over the x outside V."""
    masks = sorted(class_of)
    everything = (1 << len(masks)) - 1
    generators = _prime_power_generators(group)
    gens = sum(1 << x for x in generators)
    # bit i of containing[x] is set when masks[i] contains x; built as
    # bytes, since flipping one bit of an int copies the whole int
    containing = {x: bytearray((len(masks) + 7) // 8) for x in generators}
    for i, m in enumerate(masks):
        for x in mask_elements(m & gens):
            containing[x][i >> 3] |= 1 << (i & 7)
    lacking = {x: everything ^ int.from_bytes(bits, "little") for x, bits in containing.items()}
    below = []
    for cls in classes:
        inside = everything
        for x in mask_elements(gens & ~cls.mask):
            inside &= lacking[x]
        below.append([masks[i] for i in mask_elements(inside)])
    return below


def _prime_power_generators(group: GroupTable) -> list[int]:
    """One generator, the least, of each cyclic subgroup of prime-power
    order > 1, ascending."""
    return [x for c, x in group.cyclic_subgroups.items() if as_prime_power(c.bit_count())]


def _expand_class(group: GroupTable, mask: int) -> tuple[dict[int, int], int]:
    """All conjugates of a mask, each mapped to one conjugating element, the
    mask itself first, mapped to the identity 0; and the bit set of the
    mask's normalizer."""
    everything = (1 << group.order) - 1
    if group.is_abelian:
        return {mask: 0}, everything
    out: dict[int, int] = {}
    normalizer = 0
    elements = mask_elements(mask)
    # g and gh give the same conjugate, so one g per left coset gH will do;
    # the least element of each coset is the first g that reaches it, and
    # the cosets whose conjugate is H itself make up its normalizer
    for g in cosets(group, everything, mask):
        c = conjugate_mask(group, g, mask)
        if c not in out:
            out[c] = g
        if c == mask:
            normalizer |= sum(1 << group.mult[g][h] for h in elements)
    return out, normalizer


def _element_order_key(n: int, mask: int) -> str:
    """A key that orders the bit sets of one size over n elements as their
    ascending element tuples: the complement's bits, from bit 0 up."""
    return format(mask ^ ((1 << n) - 1), f"0{n}b")[::-1]


def _assemble(
    group: GroupTable, found: Iterable[tuple[dict[int, int], int, tuple[int, ...]]]
) -> SubgroupLattice:
    """The lattice of the given classes; every lattice is built here.

    Each class comes as what _expand_class returns for a mask, plus
    generators of that mask; every conjugate g H g^-1 is given the
    normalizer conjugated by g.  A class's representative is its conjugate
    least in element order, and it gets the generators conjugated to it.

    Element order needs no element lists: for two masks of one size, the
    lowest bit where they differ is set in the one whose ascending element
    tuple is less, so their tuples compare as their complements' bits do,
    read from bit 0 up, which is what _element_order_key spells.
    """
    key = partial(_element_order_key, group.order)
    mult, inv = group.mult, group.inv
    raw = []
    for conj_to_g, normalizer, gens in found:
        rep = next(iter(conj_to_g)) if len(conj_to_g) == 1 else min(conj_to_g, key=key)
        g = conj_to_g[rep]
        cls = SubgroupClass(rep, rep.bit_count(), rep in group.cyclic_subgroups, len(conj_to_g),
                            tuple(mult[mult[g][x]][inv[g]] for x in gens))
        raw.append((cls, conj_to_g, normalizer))
    raw.sort(key=lambda r: (r[0].order, key(r[0].mask)))
    classes = []
    class_of: dict[int, int] = {}
    normalizers: dict[int, int] = {}
    for idx, (cls, conj_to_g, normalizer) in enumerate(raw):
        classes.append(cls)
        for m, g in conj_to_g.items():
            class_of[m] = idx
            normalizers[m] = conjugate_mask(group, g, normalizer) if g else normalizer
    return SubgroupLattice(group, classes, class_of, normalizers,
                           _below_index(group, classes, class_of))


def _powers(group: GroupTable, k: int) -> list[int]:
    """x^k for every element x, in element order, for k >= 1: square and
    multiply on the whole list of elements at once, reading k's bits from
    the highest down."""
    mult = group.mult
    acc = list(range(group.order))
    for bit in bin(k)[3:]:
        acc = [mult[a][a] for a in acc]
        if bit == "1":
            acc = [mult[a][x] for x, a in enumerate(acc)]
    return acc


def enumerate_subgroups(group: GroupTable) -> SubgroupLattice:
    """Find every subgroup of the group, organized into conjugacy classes.

    Cyclic extension (Neubüser; GAP's LatticeByCyclicExtension): starting
    from the trivial subgroup, each class base V is extended by every x that
    normalizes V (a bit test against the normalizer that expanding V's
    class records), lies outside it and has x^p in V for a prime p.  Then
    W = V<x> is the union of the cosets V, xV, ..., x^(p-1)V, read off by
    walking the powers of x, with no closure; the other elements of W outside
    V give W again and are skipped.  Each new W is expanded into its class
    once and becomes the base of that class, with the generators of V and x.

    This reaches every solvable subgroup: a solvable H != 1 has a normal
    subgroup M of prime index p, so H = M<x> for any x in H outside M, and if
    g M g^-1 is the base of M's class, g H g^-1 is its extension by g x g^-1.
    Everything reached this way is solvable, so the whole group is reached
    exactly when it is solvable.  When it is not, every base is visited
    again, and now also joined by closure_mask with each cyclic subgroup of
    prime-power order that does not normalize it; a normalizing one is
    reached from the base by a chain of prime-index extensions.  Then each
    base is joined with every cyclic subgroup of prime-power order, and as
    g <H, C> g^-1 is the join of g H g^-1 with a cyclic subgroup, and every
    subgroup is generated by elements of prime-power order, every class is
    reached.  Each class is expanded once, when it is first reached, and
    the expansion records the normalizer of every subgroup in the class.
    """
    n = group.order
    mult = group.mult
    # per prime p dividing |G|: roots[v] is the bit set of the x with x^p = v
    all_roots = []
    for p in prime_factors(n):
        roots = [0] * n
        for x, v in enumerate(_powers(group, p)):
            roots[v] |= 1 << x
        all_roots.append(roots)

    # per class: its conjugates, its base's normalizer, and generators of its
    # base; the base is the first conjugate, as _expand_class lists it
    found = [(*_expand_class(group, 1), ())]
    known = {1}

    def add(mask: int, gens: tuple[int, ...]) -> None:
        conj_to_g, normalizer = _expand_class(group, mask)
        found.append((conj_to_g, normalizer, gens))
        known.update(conj_to_g)
        if len(known) > MAX_SUBGROUPS:
            raise ResourceCapError(
                f"the group has more than {MAX_SUBGROUPS} subgroups, the most artinx enumerates"
            )

    def extend(base: int, normalizer: int, gens: tuple[int, ...]) -> None:
        elements = mask_elements(base)
        for roots in all_roots:
            candidates = 0
            for v in elements:
                candidates |= roots[v]
            candidates &= normalizer & ~base
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                x = low.bit_length() - 1
                joined, y = base, x
                while not base >> y & 1:  # the coset y V, for y = x, x^2, ...
                    row = mult[y]
                    for v in elements:
                        joined |= 1 << row[v]
                    y = row[x]
                candidates &= ~joined
                if joined not in known:
                    # generators of V inside <x> are redundant
                    powers = group.cyclic_masks[x]
                    add(joined, tuple(v for v in gens if not powers >> v & 1) + (x,))

    for conj_to_g, normalizer, gens in found:  # the list grows while it is walked
        extend(next(iter(conj_to_g)), normalizer, gens)
    extended = len(found)
    if (1 << n) - 1 in known:
        return _assemble(group, found)

    # not solvable: visit every base again, and join it with the cyclic
    # subgroups of prime-power order that do not normalize it
    cyclic = _prime_power_generators(group)
    for i, (conj_to_g, normalizer, gens) in enumerate(found):
        base = next(iter(conj_to_g))
        if i >= extended:
            extend(base, normalizer, gens)
        rows = [mult[h] for h in mask_elements(base)]
        for x in cyclic:
            if normalizer >> x & 1:  # x lies in the base or normalizes it
                continue
            joined = closure_mask(group, gens + (x,), base, rows)
            if joined not in known:
                add(joined, gens + (x,))
    return _assemble(group, found)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def lattice_to_dict(lattice: SubgroupLattice, spec_text: str) -> dict:
    """JSON-ready description of a lattice, keyed by the group spec text."""
    return {
        "schema": 2,
        "spec": spec_text,
        "order": lattice.group.order,
        "classes": [
            {
                "rep_bits_hex": format(c.mask, "x"),
                "rep_generators": list(c.generators),
                "order": c.order,
                "conjugate_count": c.size,
            }
            for c in lattice.classes
        ],
    }


def lattice_from_dict(group: GroupTable, data: dict) -> Optional[SubgroupLattice]:
    """Rebuild a lattice from its serialized form.

    Each representative is checked against the group: its stored generators
    must be element indices that generate exactly its mask, which proves the
    mask a subgroup.  Each class is re-expanded; the stored orders, class
    sizes and representatives must match the rebuilt classes in their
    canonical order, no class may repeat, the trivial subgroup and the whole
    group must be present, and so must every cyclic subgroup.  A stale or
    foreign entry yields None rather than a wrong lattice; so does anything
    but a dict.  The check does not prove that every noncyclic class is
    present, and an entry that lacks one can give both methods the same
    wrong exponent.
    """
    if not isinstance(data, dict):
        return None
    try:
        if data.get("schema") != 2 or data["order"] != group.order:
            return None
        stored = [
            (int(c["rep_bits_hex"], 16), c["order"], c["conjugate_count"], c["rep_generators"])
            for c in data["classes"]
        ]
    except (KeyError, TypeError, ValueError):
        return None

    n = group.order
    found = []
    for mask, _, _, gens in stored:
        # bools are ints to Python, and a negative index reads a row from its end
        if not isinstance(gens, list) or not all(type(x) is int and 0 <= x < n for x in gens):
            return None
        if closure_mask(group, gens) != mask:
            return None
        found.append((*_expand_class(group, mask), tuple(gens)))

    lattice = _assemble(group, found)
    classes = lattice.classes
    rebuilt = [(c.mask, c.order, c.size) for c in classes]
    if rebuilt != [s[:3] for s in stored] or len(lattice.class_of) != lattice.subgroup_count():
        return None
    if not classes or classes[0].order != 1 or classes[-1].order != n:
        return None
    if not group.cyclic_subgroups.keys() <= lattice.class_of.keys():
        return None
    return lattice


def lattice_cache_path(cache_dir: str, spec_text: str) -> str:
    """File path a lattice for the given spec text is cached under."""
    digest = hashlib.sha256(spec_text.encode()).hexdigest()[:12]
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in spec_text)
    return os.path.join(cache_dir, f"{safe[:48]}-{digest}.lattice.json")


def cached_lattice(group: GroupTable, spec_text: str, cache_dir: Optional[str]) -> SubgroupLattice:
    """Enumerate a lattice, reusing a JSON copy under cache_dir when valid.

    Entries that fail lattice_from_dict's checks are rebuilt and rewritten
    silently; a corrupt or missing file never raises.
    """
    if cache_dir is None:
        return enumerate_subgroups(group)
    os.makedirs(cache_dir, exist_ok=True)  # so that an unusable one fails before any work
    path = lattice_cache_path(cache_dir, spec_text)
    try:
        with open(path, encoding="utf-8") as handle:
            cached = lattice_from_dict(group, json.load(handle))
    except (OSError, ValueError, RecursionError):  # bad JSON or UTF-8, or JSON nested too deep
        cached = None
    if cached is not None:
        return cached
    lattice = enumerate_subgroups(group)
    payload = json.dumps(lattice_to_dict(lattice, spec_text), separators=(",", ":"), sort_keys=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    os.replace(tmp, path)
    return lattice
