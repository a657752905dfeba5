"""Artin exponents of finite groups, by two independent methods.

For a family F of subgroups (closed under conjugation, described by lattice
class indices; the default is all cyclic subgroups), let e_F be the ghost
vector that is 1 on classes in F and 0 elsewhere.  The exponent is the least
n >= 1 with n * e_F in the image of the Burnside ring.

Method 1 (congruences): for every pair U normal in V with prime-power index
(V:U) > 1, count the cosets vU of V/U whose extension <v, U> lies in F; by
a counting argument n must be divisible by (V:U) / gcd((V:U), count).  The
exponent candidate is the lcm of these forced divisors.

Method 2 (marks): |G| times any ghost vector lies in the image of the
Burnside ring, so one exact integer back-substitution of |G| * e_F against
the table of marks gives integer coefficients c, and the exponent is
|G| / gcd(|G|, c): n * e_F solves to n * c / |G|, integral exactly when that
quotient divides n.  Method 2 reads nothing but the table.

Method 1 gives divisors that are always necessary, so method 2 can never
return less; the two agreeing is a strong end-to-end check and any
disagreement is raised loudly rather than reconciled.  The methods share
only the lattice (its classes, class_of and below()), never each other's
code: no congruence code reaches method 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .burnside import MarkTable, build_mark_table, ghost_denominator
from .groups import (
    GroupTable,
    as_prime_power,
    is_cyclic_group,
    p_part,
    prime_factors,
)
from .lattice import (
    SubgroupLattice,
    centralizer,
    enumerate_subgroups,
    mask_elements,
    subgroup_from_mask,
    sublattice,
)


class MethodDisagreement(RuntimeError):
    """The congruence and mark-table methods produced different exponents;
    from compute_exponent_report it carries the marks-only report."""

    report: Optional[ExponentReport] = None

    def __init__(self, spec: str, family: str, congruence: int, marks: int) -> None:
        super().__init__(
            f"methods disagree for {spec} (family {family}): "
            f"congruence={congruence} marks={marks}"
        )
        self.spec = spec
        self.family = family
        self.congruence = congruence
        self.marks = marks


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A conjugation-closed collection of subgroups, as lattice class
    indices; classes=None means every cyclic subgroup."""

    classes: Optional[frozenset[int]] = None


ALL_CYCLIC = Family(None)


def family_label(family: Family) -> str:
    if family.classes is None:
        return "cyclic"
    return "classes:" + ",".join(str(i) for i in sorted(family.classes))


def family_vector(class_cyclic: Sequence[bool], family: Family) -> tuple[int, ...]:
    """Ghost vector of the family idempotent over classes with the given
    cyclicity flags: 1 on member classes, else 0.  Class indices are checked
    here, once per method call."""
    n = len(class_cyclic)
    if family.classes is None:
        return tuple(1 if c else 0 for c in class_cyclic)
    for i in family.classes:
        if not 0 <= i < n:
            raise ValueError(f"family class index {i} out of range 0..{n - 1}")
    return tuple(1 if i in family.classes else 0 for i in range(n))


# ---------------------------------------------------------------------------
# coset counting
# ---------------------------------------------------------------------------


def _pair_profile(
    group: GroupTable, lattice: SubgroupLattice, u_mask: int, v_mask: int
) -> dict[int, int]:
    """For U normal in V, how many cosets vU of V/U generate a subgroup
    <v, U> in each lattice class.  <v, U> depends only on the coset, so this
    is a finite profile; it is cached on the lattice and shared by every
    family.

    The cosets U v^k with k prime to m = |<U, v> : U| all generate <U, v>,
    so one walk U v, U v^2, ... back to U counts phi(m) cosets at once and
    takes them off the elements left to walk.  The coset U itself counts
    once, for U."""
    cache = lattice._cache.setdefault("pair_profiles", {})
    key = (u_mask, v_mask)
    hit = cache.get(key)
    if hit is not None:
        return hit
    mult = group.mult
    u_elems = mask_elements(u_mask)
    profile = {lattice.class_of[u_mask]: 1}
    todo = v_mask & ~u_mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        layers = []  # bit sets of the cosets v^k U = U v^k, for k = 1, ..., m - 1
        power = v
        while not u_mask >> power & 1:
            row = mult[power]
            layers.append(sum([1 << row[x] for x in u_elems]))
            power = row[v]
        m = len(layers) + 1
        extension = u_mask
        generating = 0
        for k, bits in enumerate(layers, 1):
            extension |= bits
            if gcd(k, m) == 1:
                todo &= ~bits
                generating += 1
        cls = lattice.class_of[extension]
        profile[cls] = profile.get(cls, 0) + generating
    cache[key] = profile
    return profile


def _coset_count(
    group: GroupTable,
    lattice: SubgroupLattice,
    u_mask: int,
    v_mask: int,
    members: Sequence[int],
) -> int:
    """Cosets vU of V/U with <v, U> in the family, for U normal in V, whose
    ghost vector over the lattice's classes is members."""
    profile = _pair_profile(group, lattice, u_mask, v_mask)
    return sum(c for cls, c in profile.items() if members[cls])


# ---------------------------------------------------------------------------
# method 1: congruences
# ---------------------------------------------------------------------------


class CongruencePair(NamedTuple):
    """One congruence: U normal in V of prime-power index, with the family
    coset count and the divisor of the exponent it forces.  A named tuple,
    since a sweep makes one per pair and family."""

    v_class: int
    u_class: int
    u_mask: int
    index: int
    count: int
    constraint: int


def _normalizes(
    group: GroupTable, gens: Sequence[int], mask: int, mask_gens: Sequence[int]
) -> bool:
    """Whether every element of gens normalizes the subgroup with bit set
    mask generated by mask_gens: g<S>g^-1 = <gSg^-1>, which lies in the
    subgroup exactly when each conjugate of a generator does."""
    return all(mask >> group.conj(g, x) & 1 for g in gens for x in mask_gens)


def _congruence_skeleton(
    group: GroupTable, lattice: SubgroupLattice
) -> list[tuple[int, int, int, int, int]]:
    """Every pair U normal in V with (V:U) a prime power > 1, V over class
    representatives in class order and U over lattice.below(), the subgroups
    of V ascending by mask, as (V class, V mask, U mask, U class, index).
    The pairs do not depend on the family, so they are found once per
    lattice and cached on it."""
    skeleton = lattice._cache.get("congruence_skeleton")
    if skeleton is not None:
        return skeleton
    abelian = group.is_abelian
    skeleton = []
    for v_idx, (cls, inside) in enumerate(zip(lattice.classes, lattice.below())):
        V = cls.representative
        vm = V.mask
        v_gens = lattice.generators_of(vm)
        for u_mask in inside:
            if u_mask == vm:
                continue
            index = V.order // u_mask.bit_count()
            if as_prime_power(index) is None:
                continue
            if not abelian and not _normalizes(
                group, v_gens, u_mask, lattice.generators_of(u_mask)
            ):
                continue
            skeleton.append((v_idx, vm, u_mask, lattice.class_of[u_mask], index))
    lattice._cache["congruence_skeleton"] = skeleton
    return skeleton


def _congruence_pair(
    group: GroupTable,
    lattice: SubgroupLattice,
    members: Sequence[int],
    row: tuple[int, int, int, int, int],
) -> CongruencePair:
    """The congruence pair of one skeleton row, counted for the family."""
    v_idx, vm, u_mask, u_class, index = row
    count = _coset_count(group, lattice, u_mask, vm, members)
    return CongruencePair(v_idx, u_class, u_mask, index, count, index // gcd(index, count))


def congruence_pairs(
    group: GroupTable, lattice: SubgroupLattice, family: Family = ALL_CYCLIC
):
    """Yield every congruence pair: V over class representatives, U over all
    normal subgroups of V with (V:U) a prime power > 1."""
    members = family_vector([c.representative.is_cyclic for c in lattice.classes], family)
    for row in _congruence_skeleton(group, lattice):
        yield _congruence_pair(group, lattice, members, row)


@dataclass
class CongruenceAnalysis:
    exponent: int
    binding_pairs: tuple[CongruencePair, ...]
    pairs: Optional[tuple[CongruencePair, ...]] = None


def congruence_analysis(
    group: GroupTable,
    lattice: SubgroupLattice,
    family: Family = ALL_CYCLIC,
    keep_pairs: bool = False,
) -> CongruenceAnalysis:
    """Run method 1, tracking for each prime one pair that forces the
    highest power of that prime (a certificate for the lcm).  Unless
    keep_pairs is set, a pair whose index already divides the exponent is
    not counted: its constraint divides its index, so it can neither raise
    the exponent nor become a binding pair."""
    members = family_vector([c.representative.is_cyclic for c in lattice.classes], family)
    exponent = 1
    best: dict[int, CongruencePair] = {}  # prime -> first pair forcing its highest power
    kept: list[CongruencePair] = []
    for row in _congruence_skeleton(group, lattice):
        if not keep_pairs and exponent % row[-1] == 0:  # row[-1] is the index
            continue
        pair = _congruence_pair(group, lattice, members, row)
        if keep_pairs:
            kept.append(pair)
        # each constraint is a prime power; one that already divides the
        # exponent forces no higher power of its prime
        if exponent % pair.constraint:
            exponent = lcm(exponent, pair.constraint)
            best[as_prime_power(pair.constraint)[0]] = pair
    binding = tuple(best[p] for p in sorted(best))
    return CongruenceAnalysis(
        exponent=exponent,
        binding_pairs=binding,
        pairs=tuple(kept) if keep_pairs else None,
    )


def artin_exponent_congruence(
    group: GroupTable, lattice: SubgroupLattice, family: Family = ALL_CYCLIC
) -> int:
    return congruence_analysis(group, lattice, family).exponent


# ---------------------------------------------------------------------------
# method 2: marks
# ---------------------------------------------------------------------------


def artin_exponent_marks(
    group: GroupTable, table: MarkTable, family: Family = ALL_CYCLIC
) -> int:
    """Least n >= 1 with n * e_F integral in the transitive basis, from one
    solve of |G| * e_F."""
    return ghost_denominator(table, family_vector(table.class_cyclic, family))


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------


def recognize_2group(group: GroupTable) -> str:
    """Classify a 2-group as dihedral / quaternion / semidihedral / other by
    searching for the defining pair of generators: g spanning a cyclic
    subgroup of index 2 and order >= 4, h outside it, with h^2 and hgh^-1 as
    each shape requires.  Cyclic 2-groups admit no such pair and fall under
    "other"."""
    order = group.order
    pp = as_prime_power(order)
    if order > 1 and (pp is None or pp[0] != 2):
        raise ValueError("recognize_2group expects a 2-group")
    half = order // 2
    if half < 4:
        return "other"
    for g in range(1, order):
        if group.element_order(g) != half:
            continue
        gm = group.cyclic_mask(g)
        g_inv = group.inv_of(g)
        q_square = group.power(g, half // 2)
        sd_twist = group.power(g, half // 2 - 1)
        for h in range(1, order):
            if gm >> h & 1:
                continue
            hh = group.mul(h, h)
            conj = group.conj(h, g)
            if hh == 0 and conj == g_inv:
                return "dihedral"
            if hh == q_square and conj == g_inv:
                return "quaternion"
            if order >= 16 and hh == 0 and conj == sd_twist:
                return "semidihedral"
    return "other"


@dataclass
class Prediction:
    """Closed-form exponent prediction; value is None outside the covered
    branches.  details carries the alternative formulas that were considered."""

    value: Optional[int]
    branch: str
    details: dict[str, int] = field(default_factory=dict)


def _order2_center_rules(group: GroupTable) -> Optional[dict[str, int]]:
    """For a 2-group with center U of order 2, the "4 if cyclic else 2" rule
    evaluated on both candidate readings of the distinguished subgroup:
    {g : [g, G] <= U} (bracket with the whole group) and {g : [g, U] <= U}
    (bracket with U only, which is all of G for central U).  Both are
    reported; neither reading is silently preferred."""
    full = (1 << group.order) - 1
    z_mask = centralizer(group, full)
    if z_mask.bit_count() != 2:
        return None
    whole = 0
    center_only = 0
    for g in range(group.order):
        if all(z_mask >> group.commutator(g, x) & 1 for x in range(group.order)):
            whole |= 1 << g
        if all(z_mask >> group.commutator(g, x) & 1 for x in mask_elements(z_mask)):
            center_only |= 1 << g
    rules = {}
    for label, mask in (("bracket-whole-group", whole), ("bracket-center-only", center_only)):
        sub = subgroup_from_mask(group, mask, check=True)
        rules[label] = 4 if sub.is_cyclic else 2
    return rules


def closed_form_predictor(group: GroupTable) -> Prediction:
    """Predicted exponent for the cyclic family, where a formula is known."""
    if is_cyclic_group(group):
        return Prediction(1, "cyclic")
    pp = as_prime_power(group.order)
    if pp is None:
        return Prediction(None, "not a p-group")
    p, alpha = pp
    generic = p ** (alpha - 1)
    if p != 2:
        return Prediction(generic, "odd p-group", {"generic": generic})
    details = {"generic": generic}
    rules = _order2_center_rules(group)
    if rules is not None:
        details.update(rules)
    shape = recognize_2group(group)
    if shape in ("dihedral", "quaternion"):
        return Prediction(2, "Q or D", details)
    if shape == "semidihedral":
        # the whole-group bracket rule, not the generic power, is what the
        # computed values track on this branch; all candidates are reported
        assert rules is not None  # semidihedral groups have a center of order 2
        return Prediction(rules["bracket-whole-group"], "SD", details)
    return Prediction(generic, "2-group other", details)


# ---------------------------------------------------------------------------
# cyclic-extension counting (the lemma suite's raw material)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CSetReport:
    """Cyclic p-extensions of U inside a p-group H: all of them (c_masks),
    the ones normal in H (c_prime_masks), and for comparison the extensions
    inside H' = {h in H : [h, H] <= U} (the two collections coincide)."""

    c_masks: frozenset[int]
    c_prime_masks: frozenset[int]
    h_prime_mask: int
    c_of_h_prime_masks: frozenset[int]

    @property
    def c_count(self) -> int:
        return len(self.c_masks)

    @property
    def c_prime_count(self) -> int:
        return len(self.c_prime_masks)


class _CSetData:
    """The U-independent part of the C-set counts for one p-group H: its
    prime, its cyclic subgroups, and its commutator rows {[h, x] : x in S}
    over a generating set S of H, so that for each U the set
    H'(U) = {h in H : [h, H] <= U} and normality in H are mask tests.

    With U normal in H, the x with [h, x] in U form a subgroup (the preimage
    of the centralizer of hU in H/U), so testing x in S is enough.  And
    [u, x] = u (x u^-1 x^-1) lies in U for all u in U exactly when x
    normalizes U, so the rows also decide whether U is normal."""

    def __init__(self, group: GroupTable, h_mask: int, generators: Sequence[int]) -> None:
        pp = as_prime_power(h_mask.bit_count())
        if pp is None:
            raise ValueError("H must be a nontrivial p-group")
        self.p = pp[0]
        elements = mask_elements(h_mask)
        self.cyclic = sorted({group.cyclic_mask(x) for x in elements})
        commutator = group.commutator
        self.rows = {}
        for g in elements:
            row = 0
            for x in generators:
                row |= 1 << commutator(g, x)
            self.rows[g] = row

    def h_prime(self, u_mask: int) -> int:
        """Bit set of {h in H : [h, H] <= U} when U is normal in H; it
        contains U exactly when U, a subgroup of H, is normal in H."""
        out = 0
        for g, row in self.rows.items():
            if row & u_mask == row:
                out |= 1 << g
        return out

    def is_normal(self, mask: int) -> bool:
        """Whether a subgroup of H is normal in H: [x, S] <= it for each x in it."""
        rows = self.rows
        return all(rows[x] & mask == rows[x] for x in mask_elements(mask))

    def report(self, u_mask: int, h_prime: int) -> CSetReport:
        """The counts for a cyclic U normal in H, given H'(U).  Every cyclic
        V with U <= V and (V:U) = p is one of H's cyclic subgroups, of order
        p|U|."""
        target = self.p * u_mask.bit_count()
        c_masks = frozenset(
            m for m in self.cyclic if m.bit_count() == target and m & u_mask == u_mask
        )
        return CSetReport(
            c_masks=c_masks,
            c_prime_masks=frozenset(m for m in c_masks if self.is_normal(m)),
            h_prime_mask=h_prime,
            c_of_h_prime_masks=frozenset(m for m in c_masks if m & h_prime == m),
        )


def count_C_sets(group: GroupTable, h_mask: int, u_mask: int) -> CSetReport:
    """Count cyclic index-p extensions of U in H, for H a nontrivial p-group
    and U cyclic and normal in H; with no lattice at hand, H' is proved a
    subgroup by checking its closure."""
    data = _CSetData(group, h_mask, mask_elements(h_mask))
    if not subgroup_from_mask(group, u_mask).is_cyclic:
        raise ValueError("U must be cyclic")
    if u_mask & h_mask != u_mask:
        raise ValueError("inner subgroup is not contained in the outer one")
    h_prime = data.h_prime(u_mask)
    if u_mask & h_prime != u_mask:
        raise ValueError("U must be normal in H")
    subgroup_from_mask(group, h_prime, check=True)
    return data.report(u_mask, h_prime)


def c_set_reports(lattice: SubgroupLattice, h_mask: int):
    """Yield (U, count_C_sets(group, H, U)) for every cyclic U normal in H,
    ascending by mask, doing the U-independent work once over the lattice's
    generators of H.  Each H'(U) is proved a subgroup by finding it in the
    lattice; a miss means the lattice lacks a subgroup, and raises."""
    data = _CSetData(lattice.group, h_mask, lattice.generators_of(h_mask))
    for u_mask in data.cyclic:
        h_prime = data.h_prime(u_mask)
        if u_mask & h_prime == u_mask:
            if h_prime not in lattice.class_of:
                raise RuntimeError(
                    f"H'(U) = {h_prime:#x} is missing from the lattice; the lattice is incomplete"
                )
            yield u_mask, data.report(u_mask, h_prime)


# ---------------------------------------------------------------------------
# Sylow comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SylowComparison:
    p: int
    exponent_part: int
    sylow_order: int
    sylow_exponent: int

    @property
    def match(self) -> bool:
        return self.exponent_part == self.sylow_exponent


def sylow_reduction_report(
    group: GroupTable,
    lattice: SubgroupLattice,
    family: Family,
    exponent: int,
) -> tuple[SylowComparison, ...]:
    """For each prime p dividing |G|, compare the p-part of the exponent with
    the exponent of a Sylow p-subgroup P for the restricted family.  The two
    need not agree in general; this is reported, not asserted.

    P's lattice and table of marks are read from G's lattice (sublattice),
    with no table or enumeration of P's own.  A class of P belongs to the
    restricted family when its subgroups' class in G belongs to the family."""
    out = []
    for p in prime_factors(group.order):
        sylow_order = p_part(group.order, p)
        part = p_part(exponent, p)
        if sylow_order == group.order:
            out.append(SylowComparison(p, part, sylow_order, exponent))
            continue
        sylow_mask = next(
            c.representative.mask
            for c in lattice.classes
            if c.representative.order == sylow_order
        )
        sub_lattice = sublattice(lattice, sylow_mask)
        sub_family = family if family.classes is None else Family(frozenset(
            i for i, c in enumerate(sub_lattice.classes)
            if lattice.class_of[c.representative.mask] in family.classes))
        sub_exponent = artin_exponent_marks(group, build_mark_table(sub_lattice), sub_family)
        out.append(SylowComparison(p, part, sylow_order, sub_exponent))
    return tuple(out)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


@dataclass
class ExponentReport:
    group: str
    order: int
    family: str
    method: str
    exponent: int
    exponent_congruence: Optional[int]
    exponent_marks: Optional[int]
    prediction: Prediction
    prime_parts: dict[int, int]
    binding_pairs: tuple[CongruencePair, ...]
    pairs: Optional[tuple[CongruencePair, ...]] = None
    sylow: Optional[tuple[SylowComparison, ...]] = None

    @property
    def methods_agree(self) -> Optional[bool]:
        """True/False when both methods ran; None when only one did."""
        if self.exponent_congruence is None or self.exponent_marks is None:
            return None
        return self.exponent_congruence == self.exponent_marks

    @property
    def prediction_matches(self) -> Optional[bool]:
        """Whether the closed-form prediction equals the computed exponent
        (None when the predictor declined)."""
        if self.prediction.value is None:
            return None
        return self.prediction.value == self.exponent


def compute_exponent_report(
    group: GroupTable,
    spec_text: str,
    family: Family = ALL_CYCLIC,
    method: str = "both",
    lattice: Optional[SubgroupLattice] = None,
    table: Optional[MarkTable] = None,
    include_pairs: bool = False,
    include_sylow: bool = False,
) -> ExponentReport:
    """Compute the exponent by the requested method(s) and assemble the
    report.  With method='both' a mismatch raises MethodDisagreement."""
    if method not in ("both", "congruence", "marks"):
        raise ValueError(f"unknown method {method!r}")
    if lattice is None:
        lattice = enumerate_subgroups(group)

    exponent_congruence = None
    binding: tuple[CongruencePair, ...] = ()
    pairs = None
    if method in ("both", "congruence"):
        analysis = congruence_analysis(group, lattice, family, keep_pairs=include_pairs)
        exponent_congruence = analysis.exponent
        binding = analysis.binding_pairs
        pairs = analysis.pairs

    exponent_marks = None
    if method in ("both", "marks"):
        if table is None:
            table = build_mark_table(lattice)
        exponent_marks = artin_exponent_marks(group, table, family)

    disagreement = None
    if method == "both" and exponent_congruence != exponent_marks:
        disagreement = MethodDisagreement(
            spec_text, family_label(family), exponent_congruence, exponent_marks
        )
        method, exponent_congruence, binding, pairs = "marks", None, (), None
    exponent = exponent_marks if exponent_marks is not None else exponent_congruence
    assert exponent is not None

    sylow = None
    if include_sylow:
        sylow = sylow_reduction_report(group, lattice, family, exponent)

    report = ExponentReport(
        group=spec_text,
        order=group.order,
        family=family_label(family),
        method=method,
        exponent=exponent,
        exponent_congruence=exponent_congruence,
        exponent_marks=exponent_marks,
        prediction=closed_form_predictor(group),
        prime_parts={p: p_part(exponent, p) for p in prime_factors(exponent)},
        binding_pairs=binding,
        pairs=pairs,
        sylow=sylow,
    )
    if disagreement is not None:
        disagreement.report = report
        raise disagreement
    return report


def _pair_to_dict(pair: CongruencePair) -> dict:
    return {
        "v_class": pair.v_class,
        "u_class": pair.u_class,
        "u_bits_hex": format(pair.u_mask, "x"),
        "index": pair.index,
        "count": pair.count,
        "constraint": pair.constraint,
    }


def report_to_dict(report: ExponentReport) -> dict:
    """JSON-ready form of an ExponentReport."""
    out = {
        "schema": 1,
        "group": report.group,
        "order": report.order,
        "family": report.family,
        "method": report.method,
        "exponent": report.exponent,
        "exponent_congruence": report.exponent_congruence,
        "exponent_marks": report.exponent_marks,
        "methods_agree": report.methods_agree,
        "prediction_matches": report.prediction_matches,
        "prediction": {
            "value": report.prediction.value,
            "branch": report.prediction.branch,
            "details": dict(report.prediction.details),
        },
        "prime_parts": {str(p): v for p, v in sorted(report.prime_parts.items())},
        "binding_pairs": [_pair_to_dict(p) for p in report.binding_pairs],
    }
    if report.pairs is not None:
        out["pairs"] = [_pair_to_dict(p) for p in report.pairs]
    if report.sylow is not None:
        out["sylow"] = [
            {
                "p": s.p,
                "exponent_part": s.exponent_part,
                "sylow_order": s.sylow_order,
                "sylow_exponent": s.sylow_exponent,
                "match": s.match,
            }
            for s in report.sylow
        ]
    return out
