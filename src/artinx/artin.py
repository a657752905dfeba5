"""Artin exponents of finite groups, by two independent methods.

A family F of subgroups, closed under conjugation, is a frozenset of
lattice class indices, or ALL_CYCLIC (None, the default) for every cyclic
subgroup.  Let e_F be the ghost vector that is 1 on classes in F and 0
elsewhere.  The exponent is the least n >= 1 with n * e_F in the image of
the Burnside ring.  Each method resolves the family with family_members
against cyclicity flags of its own, the lattice's or the table's.

Method 1 (congruences): for every pair U normal in V with prime-power index
(V:U) > 1, count the cosets vU of V/U whose extension <v, U> lies in F; by
a counting argument n must be divisible by (V:U) / gcd((V:U), count).  The
exponent candidate is the lcm of these forced divisors.  A call reads only
the lattice and keeps nothing: one walk, a step per class V, serves every
family it is given, and skips a pair whose index divides every exponent.

Method 2 (marks): |G| times any ghost vector lies in the image of the
Burnside ring, so one exact integer back-substitution of |G| * e_F against
the table of marks gives integer coefficients c, and the exponent is
|G| / gcd(|G|, c): n * e_F solves to n * c / |G|, integral exactly when that
quotient divides n.  Method 2 reads nothing but the table.

Method 1 gives divisors that are always necessary, so method 2 can never
return less; the two agreeing is a strong end-to-end check and any
disagreement is raised loudly rather than reconciled.  The methods share
only the lattice (its classes, class_of and below; method 1 also reads
its normalizers and its group's table), never each other's code: no
congruence code reaches method 2.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .burnside import MarkTable, ghost_denominator
from .groups import (
    GroupTable,
    as_prime_power,
    p_part,
    prime_factors,
)
from .lattice import (
    IncompleteLattice,
    SubgroupLattice,
    check_subgroup,
    mask_elements,
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


Family = Optional[frozenset[int]]  # None is ALL_CYCLIC, every cyclic class
ALL_CYCLIC: Family = None


def family_label(family: Family) -> str:
    if family is None:
        return "cyclic"
    return "classes:" + ",".join(str(i) for i in sorted(family))


def family_members(class_cyclic: Sequence[bool], family: Family) -> frozenset[int]:
    """The class indices of the family over classes with the given
    cyclicity flags: ALL_CYCLIC is the cyclic classes, and an explicit
    family's indices are checked here, once per method call."""
    n = len(class_cyclic)
    if family is None:
        return frozenset(i for i, cyclic in enumerate(class_cyclic) if cyclic)
    for i in family:
        if not 0 <= i < n:
            raise ValueError(f"family class index {i} out of range 0..{n - 1}")
    return family


# ---------------------------------------------------------------------------
# coset counting
# ---------------------------------------------------------------------------


def _coset_tally(lattice: SubgroupLattice, memo: dict[int, tuple[int, list]],
                 u_mask: int, v_mask: int) -> list[tuple[int, int]]:
    """The cosets vU of V/U, for U normal in V, tallied by the lattice class
    of <v, U>: (class of U, 1) for U itself, then (class, generating cosets)
    for each extension of U inside V, a class possibly more than once.  A
    family's coset count is the sum over its member classes, so one tally
    serves every family that needs the pair.

    memo belongs to one call of method 1: memo[U] is the bit set of the
    cosets of N(U)/U walked so far (U included), and each <U, v> found
    among them as (mask, class, cosets that generate it).  A pair walks
    only the cosets of V/U that no earlier pair with the same U walked.
    For v in N(U), <U, v> lies in V exactly when v does.  The cosets U v^k
    with k prime to m = |<U, v> : U| all generate <U, v>, so one walk
    U v, U v^2, ... back to U records phi(m) cosets at once.  A <U, v> that
    the lattice lacks raises IncompleteLattice."""
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
        try:
            extensions.append((extension, class_of[extension], generating))
        except KeyError:
            raise IncompleteLattice(f"<U, v> = {extension:#x} is missing from the lattice; "
                                    "the lattice is incomplete") from None
    memo[u_mask] = walked, extensions
    return [(class_of[u_mask], 1)] + [
        (cls, generating) for extension, cls, generating in extensions
        if not extension & ~v_mask]


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


def _congruence_walk(lattice: SubgroupLattice):
    """Yield (V class, V mask, pairs) once per class V, in class order: pairs
    lists (U mask, index, p) for the U normal in V, ascending by mask, whose
    index (V:U) > 1 is a power of the prime p (tabled once per call).  U is
    normal in V when V lies in the normalizer the lattice records."""
    n, normalizers = lattice.group.order, lattice.normalizers
    primes = {p ** k: p for p in prime_factors(n) for k in range(1, n.bit_length())}
    for v_idx, (cls, inside) in enumerate(zip(lattice.classes, lattice.below)):
        order, vm = cls.order, cls.mask
        pairs = []
        for u_mask in inside:
            index = order // u_mask.bit_count()
            if index in primes and not vm & ~normalizers[u_mask]:
                pairs.append((u_mask, index, primes[index]))
        yield v_idx, vm, pairs


def congruence_pairs(lattice: SubgroupLattice, family: Family = ALL_CYCLIC):
    """Yield every congruence pair: V over class representatives, U over all
    normal subgroups of V with (V:U) a prime power > 1."""
    members = family_members([c.is_cyclic for c in lattice.classes], family)
    memo: dict[int, tuple[int, list]] = {}
    for v_idx, vm, pairs in _congruence_walk(lattice):
        for u_mask, index, _ in pairs:
            count = sum(n for cls, n in _coset_tally(lattice, memo, u_mask, vm) if cls in members)
            constraint = index // gcd(index, count)
            yield CongruencePair(v_idx, lattice.class_of[u_mask], u_mask, index, count, constraint)


class CongruenceAnalysis(NamedTuple):
    exponent: int
    binding_pairs: tuple[CongruencePair, ...]


def congruence_analysis(lattice: SubgroupLattice,
                        families: Sequence[Family]) -> list[CongruenceAnalysis]:
    """Run method 1 for each family in one walk over the pairs, tracking for
    each prime one pair that forces the highest power of that prime (a
    certificate for the lcm).  A family whose exponent the index of a pair
    already divides skips that pair: its constraint divides its index, so
    it can neither raise the exponent nor become a binding pair.  So a pair
    whose index divides the exponents' gcd is not tallied at all; any other
    is tallied once, and each family that does not skip it sums its classes."""
    cyclic = [c.is_cyclic for c in lattice.classes]
    members = [family_members(cyclic, family) for family in families]
    exponents = [1] * len(families)
    common = 1  # the exponents' gcd
    # per family: prime -> first pair forcing its highest power
    best: list[dict[int, CongruencePair]] = [{} for _ in families]
    memo: dict[int, tuple[int, list]] = {}
    for v_idx, vm, pairs in _congruence_walk(lattice):
        for u_mask, index, p in pairs:
            if common % index == 0:
                continue
            tally = _coset_tally(lattice, memo, u_mask, vm)
            for i, e in enumerate(exponents):
                if e % index == 0:
                    continue
                count = 0
                for cls, n in tally:
                    if cls in members[i]:
                        count += n
                # a power of p: one that divides the exponent forces nothing
                constraint = index // gcd(index, count)
                if e % constraint:
                    exponents[i] = lcm(e, constraint)
                    best[i][p] = CongruencePair(
                        v_idx, lattice.class_of[u_mask], u_mask, index, count, constraint)
                    common = gcd(*exponents)
    return [
        CongruenceAnalysis(exponent, tuple(pairs[p] for p in sorted(pairs)))
        for exponent, pairs in zip(exponents, best)
    ]


def artin_exponent_congruence(lattice: SubgroupLattice, family: Family = ALL_CYCLIC) -> int:
    return congruence_analysis(lattice, [family])[0].exponent


def local_exponent(lattice: SubgroupLattice, h: int, family: Family = ALL_CYCLIC) -> int:
    """The exponent of H, the representative of class h, for the family
    restricted to H, read off G's lattice by Dress's congruences (Dress
    1969; tom Dieck, LNM 766): n * e_F comes from B(H) exactly when, for
    every U <= H, with V = N_H(U) and w = |V : U|, w divides n * c_U, where
    c_U counts the cosets vU of V/U whose <v, U> lies in F.  So the exponent
    is the lcm of w / gcd(w, c_U).  The U are the lattice's below[h],
    N_H(U) is N_G(U) & H, c_U sums the family's classes (of G) from the one
    coset tally, and a U whose w divides the running exponent is skipped."""
    h_mask = lattice.classes[h].mask
    members = family_members([c.is_cyclic for c in lattice.classes], family)
    exponent = 1
    for u_mask in lattice.below[h]:
        v_mask = lattice.normalizers[u_mask] & h_mask
        w = v_mask.bit_count() // u_mask.bit_count()
        if exponent % w == 0:
            continue
        # each U comes once, so its tally starts from a fresh memo
        count = sum(n for cls, n in _coset_tally(lattice, {}, u_mask, v_mask) if cls in members)
        exponent = lcm(exponent, w // gcd(w, count))
    return exponent


# ---------------------------------------------------------------------------
# method 2: marks
# ---------------------------------------------------------------------------


def artin_exponent_marks(table: MarkTable, family: Family = ALL_CYCLIC) -> int:
    """Least n >= 1 with n * e_F integral in the transitive basis, from one
    solve of |G| * e_F."""
    return ghost_denominator(table, family_members(table.class_cyclic, family))


# ---------------------------------------------------------------------------
# commutator brackets
# ---------------------------------------------------------------------------


def bracket_rows(group: GroupTable, elements: Sequence[int],
                 generators: Sequence[int]) -> dict[int, int]:
    """Map each row, the bit set of the commutators [h, s] = h s h^-1 s^-1
    of an h in elements with the s in generators, to the bit set of the h
    with that row: a single entry when the h commute with the s."""
    mult, inv = group.mult, group.inv
    rows: dict[int, int] = {}
    for h in elements:
        row_h = mult[h]
        bits = 0
        for s in generators:
            bits |= 1 << mult[row_h[s]][inv[mult[s][h]]]
        rows[bits] = rows.get(bits, 0) | 1 << h
    return rows


def bracket_preimage(rows: dict[int, int], u_mask: int) -> int:
    """Bit set of the h whose row lies in U, one step per distinct row: for
    rows over generators S of a group H and U normal in H, this is
    H'(U) = {h : [h, H] <= U}, and U = 1 gives the center of H.  Testing S
    is enough because, with U normal, the x in H with [h, x] in U form a
    subgroup, the preimage of the centralizer of hU in H/U."""
    out = 0
    for row, hs in rows.items():
        if not row & ~u_mask:
            out |= hs
    return out


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
    # the largest element order is the largest cyclic subgroup's size, and
    # each involution generates a cyclic subgroup of order 2 of its own
    sizes = [c.bit_count() for c in group.cyclic_subgroups]
    if half < 4 or max(sizes) != half:
        return "other"
    involutions = sizes.count(2)
    if involutions == half + 1:
        return "dihedral"
    if involutions == 1:
        return "quaternion"
    if order >= 16 and involutions == half // 2 + 1:
        return "semidihedral"
    return "other"


class Prediction(NamedTuple):
    """Closed-form exponent prediction; value is None outside the covered
    branches.  details carries the alternative formulas that were considered
    (a dict of its own per prediction, so it has no default); shape is
    recognize_2group's answer, set exactly on the noncyclic 2-group branches."""

    value: Optional[int]
    branch: str
    details: dict[str, int]
    shape: Optional[str] = None


def _order2_center_rules(group: GroupTable) -> Optional[dict[str, int]]:
    """For a noncyclic 2-group with center U of order 2, the "4 if cyclic
    else 2" rule on both candidate readings of the distinguished subgroup,
    reported side by side: {g : [g, G] <= U} (bracket with the whole group)
    and {g : [g, U] <= U} (bracket with U only).  U is central, so the second
    reading is all of G, which is noncyclic: its rule is the constant 2.
    Both the center and the first reading are bracket preimages of one set
    of rows over G's generators."""
    rows = bracket_rows(group, range(group.order), group.generators)
    z_mask = bracket_preimage(rows, 1)
    if z_mask.bit_count() != 2:
        return None
    sub = bracket_preimage(rows, z_mask)
    check_subgroup(group, sub)
    return {"bracket-whole-group": 4 if sub in group.cyclic_subgroups else 2,
            "bracket-center-only": 2}


def closed_form_predictor(group: GroupTable) -> Prediction:
    """Predicted exponent for the cyclic family, where a formula is known."""
    if group.is_cyclic:
        return Prediction(1, "cyclic", {})
    pp = as_prime_power(group.order)
    if pp is None:
        return Prediction(None, "not a p-group", {})
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


class CSetReport(NamedTuple):
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


def count_C_sets(lattice: SubgroupLattice, h: int) -> list[tuple[int, CSetReport]]:
    """(U, report) for every cyclic U normal in H, the representative of
    class h, a nontrivial p-group, ascending by mask.  Every cyclic V with
    U <= V and (V:U) = p is one of H's cyclic subgroups, of order p|U|.
    Normality is read off the lattice's normalizers, and H'(U) off bracket
    rows over the class's recorded generators, taken once.  Each H'(U) is
    proved a subgroup by finding it in the lattice; a miss means the lattice
    lacks a subgroup, and raises.  A list, not a generator, so that a call
    does all of its work before it returns."""
    group, cls = lattice.group, lattice.classes[h]
    h_mask = cls.mask
    pp = as_prime_power(cls.order)
    if pp is None:
        raise ValueError("H must be a nontrivial p-group")
    elements = mask_elements(h_mask)
    by_order: dict[int, list[int]] = {}  # H's cyclic subgroups by order
    for m in set(map(group.cyclic_mask, elements)):
        by_order.setdefault(m.bit_count(), []).append(m)
    normal = frozenset(m for ms in by_order.values() for m in ms
                       if not h_mask & ~lattice.normalizers[m])
    rows = bracket_rows(group, elements, cls.generators)
    out = []
    for u_mask in sorted(normal):
        h_prime = bracket_preimage(rows, u_mask)
        if h_prime not in lattice.class_of:
            raise IncompleteLattice(f"H'(U) = {h_prime:#x} is missing from the lattice; "
                                    "the lattice is incomplete")
        c_masks = frozenset(m for m in by_order.get(pp[0] * u_mask.bit_count(), ())
                            if not u_mask & ~m)
        out.append((u_mask, CSetReport(c_masks, c_masks & normal, h_prime,
                                       frozenset(m for m in c_masks if not m & ~h_prime))))
    return out


# ---------------------------------------------------------------------------
# Sylow comparison
# ---------------------------------------------------------------------------


class SylowComparison(NamedTuple):
    p: int
    exponent_part: int
    sylow_order: int
    sylow_exponent: int

    @property
    def match(self) -> bool:
        return self.exponent_part == self.sylow_exponent


def sylow_reduction_report(lattice: SubgroupLattice, family: Family,
                           exponent: int) -> tuple[SylowComparison, ...]:
    """For each prime p dividing |G|, G the lattice's group, compare the
    p-part of the exponent with the exponent of a Sylow p-subgroup P for the
    restricted family.  The two need not agree in general; this is reported,
    not asserted.

    Each exponent of P is local_exponent's on the first class of order
    |G|_p, read off G's lattice, with no table, lattice or solve of P's
    own."""
    out = []
    group = lattice.group
    for p in prime_factors(group.order):
        sylow_order = p_part(group.order, p)
        part = p_part(exponent, p)
        if sylow_order == group.order:
            out.append(SylowComparison(p, part, sylow_order, exponent))
            continue
        sylow = next(i for i, c in enumerate(lattice.classes) if c.order == sylow_order)
        out.append(SylowComparison(p, part, sylow_order, local_exponent(lattice, sylow, family)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


class ExponentReport:
    __slots__ = ("group", "order", "family", "exponent", "exponent_congruence",
                 "exponent_marks", "prediction", "prime_parts", "binding_pairs",
                 "pairs", "sylow", "extra_analyses")

    def __init__(
        self,
        group: str,
        order: int,
        family: str,
        exponent: int,
        exponent_congruence: int,
        exponent_marks: int,
        prediction: Prediction,
        prime_parts: dict[int, int],
        binding_pairs: tuple[CongruencePair, ...],
        pairs: Optional[tuple[CongruencePair, ...]] = None,
        sylow: Optional[tuple[SylowComparison, ...]] = None,
        extra_analyses: tuple[tuple[Family, CongruenceAnalysis], ...] = (),
    ) -> None:
        self.group = group
        self.order = order
        self.family = family
        self.exponent = exponent
        self.exponent_congruence = exponent_congruence
        self.exponent_marks = exponent_marks
        self.prediction = prediction
        self.prime_parts = prime_parts
        self.binding_pairs = binding_pairs
        # every pair and the Sylow comparison, set by the callers that want
        # them (compute --audit, the sylow suite); report_to_dict writes them
        # when set
        self.pairs = pairs
        self.sylow = sylow
        # method 1 on further families, from the walk that served the
        # report's family; report_to_dict does not write it
        self.extra_analyses = extra_analyses

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
    lattice: SubgroupLattice,
    table: MarkTable,
    spec_text: str,
    family: Family = ALL_CYCLIC,
    extra_families: Sequence[Family] = (),
) -> ExponentReport:
    """Compute the exponent by both methods, method 1 on the lattice and
    method 2 on its table of marks, and assemble the report, whose exponent
    is the marks value; the group is the lattice's, and spec_text names it.
    A mismatch raises MethodDisagreement with that same report.  Method 1's
    one walk also serves extra_families, whose analyses the report carries
    unchecked."""
    analysis, *extra = congruence_analysis(lattice, [family, *extra_families])
    exponent = artin_exponent_marks(table, family)
    report = ExponentReport(
        group=spec_text,
        order=lattice.group.order,
        family=family_label(family),
        exponent=exponent,
        exponent_congruence=analysis.exponent,
        exponent_marks=exponent,
        prediction=closed_form_predictor(lattice.group),
        prime_parts={p: p_part(exponent, p) for p in prime_factors(exponent)},
        binding_pairs=analysis.binding_pairs,
        extra_analyses=tuple(zip(extra_families, extra)),
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
