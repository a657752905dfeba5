"""Artin exponents of finite groups, by two independent methods.

For a family F of subgroups (closed under conjugation, described by lattice
class indices; the default is all cyclic subgroups), let e_F be the ghost
vector that is 1 on classes in F and 0 elsewhere.  The exponent is the least
n >= 1 with n * e_F in the image of the Burnside ring.

Method 1 (congruences): for every pair U normal in V with prime-power index
(V:U) > 1, count the cosets vU of V/U whose extension <v, U> lies in F; by
a counting argument n must be divisible by (V:U) / gcd((V:U), count).  The
exponent candidate is the lcm of these forced divisors.  A call reads only
the lattice and keeps nothing: one walk serves every family it is given.

Method 2 (marks): |G| times any ghost vector lies in the image of the
Burnside ring, so one exact integer back-substitution of |G| * e_F against
the table of marks gives integer coefficients c, and the exponent is
|G| / gcd(|G|, c): n * e_F solves to n * c / |G|, integral exactly when that
quotient divides n.  Method 2 reads nothing but the table.

Method 1 gives divisors that are always necessary, so method 2 can never
return less; the two agreeing is a strong end-to-end check and any
disagreement is raised loudly rather than reconciled.  The methods share
only the lattice (its classes, class_of and below(); method 1 also reads
its normalizers and its group's table), never each other's code: no
congruence code reaches method 2.
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
    carries the full report, whose exponent is the marks value."""

    def __init__(self, report: ExponentReport) -> None:
        super().__init__(
            f"methods disagree for {report.group} (family {report.family}): "
            f"congruence={report.exponent_congruence} marks={report.exponent_marks}"
        )
        self.report = report


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


def _coset_count(
    lattice: SubgroupLattice,
    memo: dict[int, tuple[int, list]],
    u_mask: int,
    v_mask: int,
    members: Sequence[int],
) -> int:
    """Cosets vU of V/U with <v, U> in the family whose ghost vector over
    the lattice's classes is members, for U normal in V.

    memo belongs to one call of method 1: memo[U] is the bit set of the
    cosets of N(U)/U walked so far (U included), and each <U, v> found
    among them as (mask, class, cosets that generate it).  A pair walks
    only the cosets of V/U that no earlier pair with the same U walked.
    For v in N(U), <U, v> lies in V exactly when v does, so the count is
    [U in F] plus the generating cosets of the extensions in F inside V.
    The cosets U v^k with k prime to m = |<U, v> : U| all generate <U, v>,
    so one walk U v, U v^2, ... back to U records phi(m) cosets at once."""
    walked, extensions = memo.get(u_mask, (u_mask, []))
    todo = v_mask & ~walked
    mult, class_of = lattice.group.mult, lattice.class_of
    u_elems = mask_elements(u_mask) if todo else []
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
                walked |= bits
                generating += 1
        extensions.append((extension, class_of[extension], generating))
    memo[u_mask] = walked, extensions
    return members[class_of[u_mask]] + sum(
        generating for extension, cls, generating in extensions
        if members[cls] and not extension & ~v_mask)


# ---------------------------------------------------------------------------
# method 1: congruences
# ---------------------------------------------------------------------------


class CongruencePair(NamedTuple):
    """One congruence: U normal in V of prime-power index, with the family
    coset count and the divisor of the exponent it forces.  A named tuple,
    since an audit lists one per pair."""

    v_class: int
    u_class: int
    u_mask: int
    index: int
    count: int
    constraint: int


def _congruence_walk(lattice: SubgroupLattice, running: Sequence[int]):
    """Yield (V class, V mask, U mask, index, needy) for each U normal in V
    with (V:U) a prime power > 1: V over class representatives in class
    order, U over lattice.below() (ascending by mask).  needy lists the
    positions of the running exponents, read afresh at each pair, that the
    index does not divide; a pair with none is skipped before its
    prime-power and normality tests.  A running exponent of 1 skips nothing.
    U is normal in V when V lies in the normalizer the lattice records."""
    normalizers = lattice.normalizers
    for v_idx, (cls, inside) in enumerate(zip(lattice.classes, lattice.below())):
        V = cls.representative
        vm = V.mask
        for u_mask in inside:
            if u_mask == vm:
                continue
            index = V.order // u_mask.bit_count()
            needy = [i for i, e in enumerate(running) if e % index]
            if not needy or as_prime_power(index) is None or vm & ~normalizers[u_mask]:
                continue
            yield v_idx, vm, u_mask, index, needy


def congruence_pairs(lattice: SubgroupLattice, family: Family = ALL_CYCLIC):
    """Yield every congruence pair: V over class representatives, U over all
    normal subgroups of V with (V:U) a prime power > 1."""
    members = family_vector([c.representative.is_cyclic for c in lattice.classes], family)
    memo: dict[int, tuple[int, list]] = {}
    for v_idx, vm, u_mask, index, _ in _congruence_walk(lattice, [1]):
        count = _coset_count(lattice, memo, u_mask, vm, members)
        constraint = index // gcd(index, count)
        yield CongruencePair(v_idx, lattice.class_of[u_mask], u_mask, index, count, constraint)


@dataclass
class CongruenceAnalysis:
    exponent: int
    binding_pairs: tuple[CongruencePair, ...]


def congruence_analysis(
    lattice: SubgroupLattice, families: Sequence[Family]
) -> list[CongruenceAnalysis]:
    """Run method 1 for each family in one walk over the pairs, tracking for
    each prime one pair that forces the highest power of that prime (a
    certificate for the lcm).  A family whose exponent the index of a pair
    already divides does not count that pair: its constraint divides its
    index, so it can neither raise the exponent nor become a binding pair.
    congruence_pairs counts every pair."""
    cyclic = [c.representative.is_cyclic for c in lattice.classes]
    members = [family_vector(cyclic, family) for family in families]
    exponents = [1] * len(families)
    # per family: prime -> first pair forcing its highest power
    best: list[dict[int, CongruencePair]] = [{} for _ in families]
    memo: dict[int, tuple[int, list]] = {}
    for v_idx, vm, u_mask, index, needy in _congruence_walk(lattice, exponents):
        for i in needy:
            count = _coset_count(lattice, memo, u_mask, vm, members[i])
            constraint = index // gcd(index, count)
            # each constraint is a prime power; one that already divides the
            # exponent forces no higher power of its prime
            if exponents[i] % constraint:
                exponents[i] = lcm(exponents[i], constraint)
                best[i][as_prime_power(constraint)[0]] = CongruencePair(
                    v_idx, lattice.class_of[u_mask], u_mask, index, count, constraint)
    return [
        CongruenceAnalysis(exponent, tuple(pairs[p] for p in sorted(pairs)))
        for exponent, pairs in zip(exponents, best)
    ]


def artin_exponent_congruence(lattice: SubgroupLattice, family: Family = ALL_CYCLIC) -> int:
    return congruence_analysis(lattice, [family])[0].exponent


# ---------------------------------------------------------------------------
# method 2: marks
# ---------------------------------------------------------------------------


def artin_exponent_marks(table: MarkTable, family: Family = ALL_CYCLIC) -> int:
    """Least n >= 1 with n * e_F integral in the transitive basis, from one
    solve of |G| * e_F."""
    return ghost_denominator(table, family_vector(table.class_cyclic, family))


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------


def recognize_2group(group: GroupTable) -> str:
    """Classify a 2-group as dihedral / quaternion / semidihedral / other by
    counting involutions.  A noncyclic group of order 2^n >= 8 with an element
    of order 2^(n-1) is C_{2^(n-1)} x C2, dihedral, quaternion, or (n >= 4)
    semidihedral or modular (Gorenstein, *Finite Groups*, section 5.4), with
    3, 2^(n-1) + 1, 1, 2^(n-2) + 1 and 3 involutions.  Every other 2-group,
    cyclic ones included, is "other"."""
    order = group.order
    pp = as_prime_power(order)
    if order > 1 and (pp is None or pp[0] != 2):
        raise ValueError("recognize_2group expects a 2-group")
    half = order // 2
    orders = [group.element_order(g) for g in range(order)]
    if half < 4 or max(orders) != half:
        return "other"
    involutions = orders.count(2)
    if involutions == half + 1:
        return "dihedral"
    if involutions == 1:
        return "quaternion"
    if order >= 16 and involutions == half // 2 + 1:
        return "semidihedral"
    return "other"


@dataclass
class Prediction:
    """Closed-form exponent prediction; value is None outside the covered
    branches.  details carries the alternative formulas that were considered;
    shape is recognize_2group's answer, set exactly on the noncyclic 2-group
    branches."""

    value: Optional[int]
    branch: str
    details: dict[str, int] = field(default_factory=dict)
    shape: Optional[str] = None


def _order2_center_rules(group: GroupTable) -> Optional[dict[str, int]]:
    """For a noncyclic 2-group with center U of order 2, the "4 if cyclic
    else 2" rule on both candidate readings of the distinguished subgroup,
    reported side by side: {g : [g, G] <= U} (bracket with the whole group)
    and {g : [g, U] <= U} (bracket with U only).  U is central, so the second
    reading is all of G, which is noncyclic: its rule is the constant 2."""
    full = (1 << group.order) - 1
    z_mask = centralizer(group, full)
    if z_mask.bit_count() != 2:
        return None
    whole = 0
    for g in range(group.order):
        if all(z_mask >> group.commutator(g, x) & 1 for x in range(group.order)):
            whole |= 1 << g
    sub = subgroup_from_mask(group, whole, check=True)
    return {"bracket-whole-group": 4 if sub.is_cyclic else 2, "bracket-center-only": 2}


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
        return Prediction(2, "Q or D", details, shape)
    if shape == "semidihedral":
        # the whole-group bracket rule, not the generic power, is what the
        # computed values track on this branch; all candidates are reported
        assert rules is not None  # semidihedral groups have a center of order 2
        return Prediction(rules["bracket-whole-group"], "SD", details, shape)
    return Prediction(generic, "2-group other", details, shape)


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
        sub_exponent = artin_exponent_marks(build_mark_table(sub_lattice), sub_family)
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
    exponent: int
    exponent_congruence: int
    exponent_marks: int
    prediction: Prediction
    prime_parts: dict[int, int]
    binding_pairs: tuple[CongruencePair, ...]
    pairs: Optional[tuple[CongruencePair, ...]] = None
    sylow: Optional[tuple[SylowComparison, ...]] = None

    @property
    def methods_agree(self) -> bool:
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
    lattice: Optional[SubgroupLattice] = None,
    table: Optional[MarkTable] = None,
    include_pairs: bool = False,
    include_sylow: bool = False,
) -> ExponentReport:
    """Compute the exponent by both methods and assemble the report, whose
    exponent is the marks value.  A mismatch raises MethodDisagreement with
    that same report."""
    if lattice is None:
        lattice = enumerate_subgroups(group)
    (analysis,) = congruence_analysis(lattice, [family])
    if table is None:
        table = build_mark_table(lattice)
    exponent = artin_exponent_marks(table, family)
    report = ExponentReport(
        group=spec_text,
        order=group.order,
        family=family_label(family),
        exponent=exponent,
        exponent_congruence=analysis.exponent,
        exponent_marks=exponent,
        prediction=closed_form_predictor(group),
        prime_parts={p: p_part(exponent, p) for p in prime_factors(exponent)},
        binding_pairs=analysis.binding_pairs,
        pairs=tuple(congruence_pairs(lattice, family)) if include_pairs else None,
        sylow=sylow_reduction_report(group, lattice, family, exponent) if include_sylow else None,
    )
    if not report.methods_agree:
        raise MethodDisagreement(report)
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
        "method": "both",
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
