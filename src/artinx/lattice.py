"""Subgroup lattices of finite groups.

Subgroups are represented as bit sets over the element indices: bit x of the
mask is set exactly when element x belongs to the subgroup.  The lattice
groups all subgroups into conjugacy classes, each with a canonical
representative, and is the index structure everything downstream (tables of
marks, Artin exponents) is expressed against.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .groups import GroupTable


class ResourceCapError(RuntimeError):
    """Enumeration would exceed a configured resource limit."""


def mask_elements(mask: int) -> list[int]:
    """Element indices contained in a bit set, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def closure_mask(group: GroupTable, generators: Iterable[int], base: int = 1) -> int:
    """Bit set of the subgroup generated by the given elements.

    base is the bit set of a subgroup H of the result (by default the trivial
    one) that the closure grows from, as a union of right cosets H y: each
    coset representative times each generator lands in a coset already
    present or adds a whole new one.  H must lie in the subgroup that the
    generators alone generate.
    """
    gens = [g for g in generators]
    mult = group.mult
    h_rows = [mult[h] for h in mask_elements(base)]
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


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a bit set, with a few precomputed attributes."""

    mask: int
    order: int = field(compare=False)
    is_cyclic: bool = field(compare=False)
    elements: tuple[int, ...] = field(compare=False)


def subgroup_from_mask(group: GroupTable, mask: int, check: bool = False) -> Subgroup:
    """Wrap a bit set as a Subgroup; with check=True verify closure first."""
    elements = tuple(mask_elements(mask))
    if check:
        if not mask & 1:
            raise ValueError("subgroup mask must contain the identity")
        mult = group.mult
        for a in elements:
            row = mult[a]
            for b in elements:
                if not mask >> row[b] & 1:
                    raise ValueError(f"mask is not closed: {a}*{b} escapes")
    order = len(elements)
    is_cyclic = any(group.cyclic_mask(x) == mask for x in elements)
    return Subgroup(mask=mask, order=order, is_cyclic=is_cyclic, elements=elements)


def conjugate_mask(group: GroupTable, g: int, mask: int) -> int:
    """Bit set of g H g^-1."""
    out = 0
    for x in mask_elements(mask):
        out |= 1 << group.conj(g, x)
    return out


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


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups: canonical representative plus the
    full list of conjugate masks (representative included)."""

    representative: Subgroup
    conjugates: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.conjugates)


class SubgroupLattice:
    """All subgroups of a group, organized by conjugacy class.

    Classes are sorted by (subgroup order, element tuple of the canonical
    representative); the trivial subgroup is class 0 and the whole group is
    the last class.  class_of maps every subgroup mask (not just the
    representatives) to its class index.
    """

    def __init__(
        self,
        group: GroupTable,
        classes: Sequence[SubgroupClass],
        class_of: dict[int, int],
        generators: dict[int, tuple[int, ...]],
    ) -> None:
        self.group = group
        self.classes = list(classes)
        self.class_of = class_of
        self._generators = generators
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.classes)

    def subgroup_count(self) -> int:
        return sum(c.size for c in self.classes)

    def generators_of(self, mask: int) -> tuple[int, ...]:
        """A small generating set recorded for the subgroup during enumeration."""
        try:
            return self._generators[mask]
        except KeyError:
            raise KeyError(f"mask {mask:#x} is not a subgroup of this lattice") from None

    def cyclic_class_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.classes) if c.representative.is_cyclic]


def _canonical_rep(group: GroupTable, masks: Iterable[int]) -> int:
    """The conjugate whose sorted element tuple is lexicographically least."""
    return min(masks, key=mask_elements)


def _expand_class(group: GroupTable, mask: int) -> dict[int, int]:
    """All conjugates of a mask, each mapped to one conjugating element."""
    if group.is_abelian:
        return {mask: 0}
    out: dict[int, int] = {}
    # g and gh give the same conjugate, so one g per left coset gH will do;
    # the least element of each coset is the first g that reaches it
    for g in cosets(group, (1 << group.order) - 1, mask):
        c = conjugate_mask(group, g, mask)
        if c not in out:
            out[c] = g
    return out


def enumerate_subgroups(group: GroupTable, max_subgroups: int = 100_000) -> SubgroupLattice:
    """Find every subgroup of the group, organized into conjugacy classes.

    Starts from the cyclic subgroups and closes under joins with them: any
    subgroup is a join of cyclic ones, and joining class representatives
    with all cyclic subgroups reaches a representative of every class.
    """
    n = group.order
    full_mask = (1 << n) - 1

    # seed: all cyclic subgroups, with a single generator each
    generators: dict[int, tuple[int, ...]] = {1: ()}
    cyclic_masks: list[int] = [1]
    seen_cyclic = {1}
    for g in range(1, n):
        m = group.cyclic_mask(g)
        if m not in seen_cyclic:
            seen_cyclic.add(m)
            cyclic_masks.append(m)
            generators[m] = (g,)
    cyclic_masks.sort(key=mask_elements)

    all_masks: set[int] = set(cyclic_masks)
    # queue of class representatives still to be joined against the cyclics
    queue: list[int] = list(cyclic_masks)
    processed: set[int] = set()

    while queue:
        base = queue.pop()
        if base in processed:
            continue
        processed.add(base)
        if base == full_mask:
            continue
        base_gens = generators[base]
        for cm in cyclic_masks:
            if cm & base == cm:
                continue
            joined_gens = base_gens + generators[cm]
            joined = closure_mask(group, joined_gens, base)
            if joined in all_masks:
                continue
            generators[joined] = joined_gens
            conj_to_g = _expand_class(group, joined)
            for m, g0 in conj_to_g.items():
                if m not in generators:
                    generators[m] = tuple(group.conj(g0, x) for x in joined_gens)
            all_masks.update(conj_to_g)
            if len(all_masks) > max_subgroups:
                raise ResourceCapError(
                    f"more than {max_subgroups} subgroups; raise max_subgroups to proceed"
                )
            queue.append(joined)

    # group into conjugacy classes
    class_of: dict[int, int] = {}
    raw_classes: list[tuple[Subgroup, tuple[int, ...]]] = []
    remaining = set(all_masks)
    while remaining:
        m = remaining.pop()
        members = set(_expand_class(group, m))
        remaining -= members
        rep_mask = _canonical_rep(group, members)
        rep = subgroup_from_mask(group, rep_mask)
        raw_classes.append((rep, tuple(sorted(members, key=mask_elements))))

    raw_classes.sort(key=lambda rc: (rc[0].order, rc[0].elements))
    classes = []
    for idx, (rep, members) in enumerate(raw_classes):
        classes.append(SubgroupClass(representative=rep, conjugates=members))
        for m in members:
            class_of[m] = idx

    return SubgroupLattice(group, classes, class_of, generators)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def lattice_to_dict(lattice: SubgroupLattice, spec_text: str) -> dict:
    """JSON-ready description of a lattice, keyed by the group spec text."""
    return {
        "schema": 1,
        "spec": spec_text,
        "order": lattice.group.order,
        "classes": [
            {
                "rep_bits_hex": format(c.representative.mask, "x"),
                "order": c.representative.order,
                "conjugate_count": c.size,
            }
            for c in lattice.classes
        ],
    }


def lattice_from_dict(group: GroupTable, data: dict) -> Optional[SubgroupLattice]:
    """Rebuild a lattice from its serialized form.

    Every representative mask is re-verified against the group (closure and
    order); classes are re-expanded and generators recomputed, so a stale or
    foreign cache entry yields None rather than a wrong lattice.  So does
    anything but a dict, and a mask that is not a nonempty subset of G.
    """
    if not isinstance(data, dict):
        return None
    try:
        if data.get("schema") != 1 or data["order"] != group.order:
            return None
        rep_masks = [int(c["rep_bits_hex"], 16) for c in data["classes"]]
        orders = [c["order"] for c in data["classes"]]
        sizes = [c["conjugate_count"] for c in data["classes"]]
    except (KeyError, TypeError, ValueError):
        return None
    if not all(0 < mask < 1 << group.order for mask in rep_masks):
        return None

    generators: dict[int, tuple[int, ...]] = {}
    class_of: dict[int, int] = {}
    classes: list[SubgroupClass] = []
    for idx, (mask, order, size) in enumerate(zip(rep_masks, orders, sizes)):
        try:
            rep = subgroup_from_mask(group, mask, check=True)
        except ValueError:
            return None
        if rep.order != order:
            return None
        members = set(_expand_class(group, mask))
        if len(members) != size or _canonical_rep(group, members) != mask:
            return None
        classes.append(SubgroupClass(representative=rep, conjugates=tuple(sorted(members, key=mask_elements))))
        for m in members:
            class_of[m] = idx
            generators[m] = _greedy_generators(group, m)

    lattice = SubgroupLattice(group, classes, class_of, generators)
    # the full group and trivial subgroup must both be present
    if not classes or classes[0].representative.order != 1:
        return None
    if classes[-1].representative.order != group.order:
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
    path = lattice_cache_path(cache_dir, spec_text)
    try:
        with open(path, encoding="utf-8") as handle:
            cached = lattice_from_dict(group, json.load(handle))
    except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
        cached = None
    if cached is not None:
        return cached
    lattice = enumerate_subgroups(group)
    os.makedirs(cache_dir, exist_ok=True)
    payload = json.dumps(lattice_to_dict(lattice, spec_text), indent=2, sort_keys=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    os.replace(tmp, path)
    return lattice


def _greedy_generators(group: GroupTable, mask: int) -> tuple[int, ...]:
    """A small generating set for a subgroup mask, largest-order-first greedy."""
    if mask == 1:
        return ()
    elements = sorted(mask_elements(mask), key=group.element_order, reverse=True)
    gens: list[int] = []
    current = 1
    for x in elements:
        if current >> x & 1:
            continue
        gens.append(x)
        current = closure_mask(group, gens, current)
        if current == mask:
            return tuple(gens)
    raise AssertionError("mask was not closed")  # pragma: no cover
