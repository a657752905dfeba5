"""Artin exponents: coset counting, congruences, marks scan, predictions."""

import random
from collections import Counter
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artinx import artin as artin_module
from artinx import burnside as burnside_module
from artinx import groups as groups_module
from artinx import lattice as lattice_module
from artinx.artin import (
    ALL_CYCLIC,
    CongruencePair,
    MethodDisagreement,
    artin_exponent_marks,
    bracket_preimage,
    bracket_rows,
    closed_form_predictor,
    compute_exponent_report,
    congruence_analysis,
    congruence_pairs,
    count_C_sets,
    family_label,
    family_members,
    recognize_2group,
    report_to_dict,
    sylow_reduction_report,
)
from artinx.burnside import build_mark_table
from artinx.groups import (
    OrderCapError,
    as_prime_power,
    group_from_spec,
    parse_group_spec,
    spec_order,
)
from artinx.lattice import enumerate_subgroups, mask_elements
from artinx.sweep import default_catalog, random_families

import oracles
from oracles import (
    brute_force_artin_exponent,
    brute_force_cyclic_coset_count,
    central_reduction_pair,
    centralizer,
    count_solves,
    cyclic_count,
    cyclic_extensions,
    element_order,
    is_normal_in,
    perm_specs,
    reference_center_only_rule,
    reference_exponent_marks,
    reference_order2_center_rules,
    reference_recognize_2group,
    reference_second_center,
    relabeled,
    standalone_c_set_report,
    standalone_sylow_report,
    subgroup_as_group,
)

A5 = "perm:(1 2 3 4 5),(1 2 3)"
S5 = "perm:(1 2 3 4 5),(1 2)"


def setup_group(spec):
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    return g, lattice


def cyclic_flags(lattice):
    return [c.is_cyclic for c in lattice.classes]


def full_mask(group):
    return (1 << group.order) - 1


def class_rep_mask(lattice, **want):
    """Mask of the first class representative matching the given properties."""
    for rep in lattice.classes:
        if "order" in want and rep.order != want["order"]:
            continue
        if "cyclic" in want and rep.is_cyclic != want["cyclic"]:
            continue
        return rep.mask
    raise LookupError(f"no class with {want}")


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_family_members_s3():
    _, lattice = setup_group("S3")
    assert family_members(cyclic_flags(lattice), ALL_CYCLIC) == {0, 1, 2}


def test_family_members_q8():
    _, lattice = setup_group("Q8")
    assert family_members(cyclic_flags(lattice), ALL_CYCLIC) == {0, 1, 2, 3, 4}
    assert family_members(cyclic_flags(lattice), frozenset({5})) == {5}
    assert family_members(cyclic_flags(lattice), frozenset()) == frozenset()


def test_family_members_cyclic_group_all_classes():
    _, lattice = setup_group("C12")
    assert family_members(cyclic_flags(lattice), ALL_CYCLIC) == set(range(6))


def test_family_members_explicit():
    _, lattice = setup_group("S3")
    family = frozenset({0, 2})
    assert family_members(cyclic_flags(lattice), family) is family
    assert family_members(cyclic_flags(lattice), frozenset({3})) == {3}


def test_family_label():
    assert family_label(ALL_CYCLIC) == "cyclic"
    assert family_label(frozenset({2, 0})) == "classes:0,2"
    assert family_label(frozenset()) == "classes:"


def test_family_bad_index_rejected():
    for spec, index in [("S3", 4), ("S3", 7), ("S3", -1), ("Q8", 6)]:
        _, lattice = setup_group(spec)
        n = len(lattice.classes)
        with pytest.raises(ValueError, match=rf"^family class index {index} out of range 0\.\.{n - 1}$"):
            family_members(cyclic_flags(lattice), frozenset({0, index}))


# ---------------------------------------------------------------------------
# cyclic_count
# ---------------------------------------------------------------------------


def test_count_trivial_in_c5():
    g, _ = setup_group("C5")
    assert cyclic_count(g, 1, full_mask(g)) == 5


def test_count_c3_in_s3():
    g, lattice = setup_group("S3")
    u = class_rep_mask(lattice, order=3)
    assert cyclic_count(g, u, full_mask(g)) == 1


def test_count_c4_in_q8():
    g, lattice = setup_group("Q8")
    u = class_rep_mask(lattice, order=4)
    assert cyclic_count(g, u, full_mask(g)) == 1


def test_count_center_in_q8():
    g, lattice = setup_group("Q8")
    u = class_rep_mask(lattice, order=2)
    assert cyclic_count(g, u, full_mask(g)) == 4


def test_count_noncyclic_u_is_zero():
    g, lattice = setup_group("D8")
    klein = class_rep_mask(lattice, order=4, cyclic=False)
    assert cyclic_count(g, klein, full_mask(g)) == 0


def test_count_requires_containment():
    g, lattice = setup_group("S3")
    c2 = class_rep_mask(lattice, order=2)
    c3 = class_rep_mask(lattice, order=3)
    with pytest.raises(ValueError):
        cyclic_count(g, c3, c2)


def test_count_requires_normality():
    g, lattice = setup_group("S3")
    c2 = class_rep_mask(lattice, order=2)
    with pytest.raises(ValueError):
        cyclic_count(g, c2, full_mask(g))


def test_count_explicit_family():
    g, lattice = setup_group("S3")
    # classes 0 and 1 are the trivial subgroup and the reflections
    fam = frozenset({0, 1})
    assert cyclic_count(g, 1, full_mask(g), fam, lattice) == 4


def test_count_explicit_family_needs_lattice():
    g, _ = setup_group("S3")
    with pytest.raises(ValueError):
        cyclic_count(g, 1, full_mask(g), frozenset({0}))


def test_count_central_reduction_rejects_explicit_family():
    g, lattice = setup_group("C12")
    with pytest.raises(ValueError):
        cyclic_count(g, 1, full_mask(g), frozenset({0}), lattice,
                     central_reduction=True)


@pytest.mark.parametrize("spec", ["Q8", "D8", "Q16", "SD16", "D16", "C4xC2",
                                  "C2xC2xC2", "H3", "C9xC3", "D12", "A4", "C36"])
def test_count_matches_brute_force(spec):
    g, lattice = setup_group(spec)
    masks = sorted(lattice.class_of)
    for cls in lattice.classes:
        vm = cls.mask
        for um in masks:
            if um == vm or um & vm != um or not is_normal_in(g, um, vm):
                continue
            got = cyclic_count(g, um, vm, lattice=lattice)
            assert got == brute_force_cyclic_coset_count(g, um, vm)


@pytest.mark.parametrize("spec", ["C12", "Q8", "D12", "SD16", "C36", "S4"])
def test_count_central_reduction_consistent(spec):
    """Enabling the reduction cross-check must never change the count."""
    g, lattice = setup_group(spec)
    masks = sorted(lattice.class_of)
    for cls in lattice.classes:
        vm = cls.mask
        for um in masks:
            if um == vm or um & vm != um or not is_normal_in(g, um, vm):
                continue
            plain = cyclic_count(g, um, vm, lattice=lattice)
            checked = cyclic_count(g, um, vm, lattice=lattice, central_reduction=True)
            assert plain == checked


def test_count_without_lattice_matches_with():
    g, lattice = setup_group("D12")
    u = class_rep_mask(lattice, order=3)
    assert cyclic_count(g, u, full_mask(g)) == cyclic_count(g, u, full_mask(g), lattice=lattice)


# ---------------------------------------------------------------------------
# the p-part reduction
# ---------------------------------------------------------------------------


def test_central_reduction_pair_c6():
    g, _ = setup_group("C6")
    u = g.cyclic_masks[2]  # the C3 part: index 2, central, cyclic
    triple = central_reduction_pair(g, u, full_mask(g))
    assert triple is not None
    p, up, vp = triple
    assert p == 2
    assert up == 1  # trivial 2-part of C3
    assert sorted(mask_elements(vp)) == [0, 3]  # the order-2 subgroup


def test_central_reduction_pair_declines_noncentral():
    g, lattice = setup_group("S3")
    u = class_rep_mask(lattice, order=3)
    assert central_reduction_pair(g, u, full_mask(g)) is None


def test_central_reduction_pair_declines_composite_index():
    g, _ = setup_group("C6")
    assert central_reduction_pair(g, 1, full_mask(g)) is None


@pytest.mark.parametrize("spec", ["C12", "D12", "S4", "C36", "C6xC2"])
def test_p_part_reduction_preserves_count(spec):
    """cyclic_count(U, V) = cyclic_count(U_p, V_p) whenever U is cyclic,
    central in V, and (V:U) is a prime power."""
    g, lattice = setup_group(spec)
    masks = sorted(lattice.class_of)
    hit = 0
    for cls in lattice.classes:
        vm = cls.mask
        for um in masks:
            if um == vm or um & vm != um or not is_normal_in(g, um, vm):
                continue
            triple = central_reduction_pair(g, um, vm)
            if triple is None:
                continue
            _, up, vp = triple
            assert cyclic_count(g, um, vm, lattice=lattice) == cyclic_count(g, up, vp)
            hit += 1
    assert hit > 0


# ---------------------------------------------------------------------------
# congruence pairs
# ---------------------------------------------------------------------------


def test_pairs_c5():
    g, lattice = setup_group("C5")
    pairs = list(congruence_pairs(lattice))
    assert pairs == [
        CongruencePair(v_class=1, u_class=0, u_mask=1, index=5, count=5, constraint=1)
    ]


def test_pairs_s3():
    g, lattice = setup_group("S3")
    pairs = list(congruence_pairs(lattice))
    assert len(pairs) == 3
    c3 = class_rep_mask(lattice, order=3)
    binding = [p for p in pairs if p.u_mask == c3]
    assert binding == [
        CongruencePair(v_class=3, u_class=2, u_mask=c3, index=2, count=1, constraint=2)
    ]


def test_pairs_klein():
    g, lattice = setup_group("C2xC2")
    pairs = list(congruence_pairs(lattice))
    assert len(pairs) == 7
    top = [p for p in pairs if p.v_class == 4 and p.u_class != 0]
    assert len(top) == 3  # one per order-2 subgroup, all normal
    assert all(p.index == 2 and p.count == 1 and p.constraint == 2 for p in top)


def test_pairs_emit_count_zero():
    g, lattice = setup_group("D8")
    klein = class_rep_mask(lattice, order=4, cyclic=False)
    pairs = [p for p in congruence_pairs(lattice) if p.u_mask == klein]
    assert pairs and all(p.count == 0 and p.constraint == 1 for p in pairs)


@pytest.mark.parametrize("spec", ["S3", "Q8", "D12", "A4", "SD16"])
def test_pair_invariants(spec):
    g, lattice = setup_group(spec)
    for pair in congruence_pairs(lattice):
        assert pair.index > 1
        p = min(q for q in range(2, pair.index + 1) if pair.index % q == 0)
        k = pair.index
        while k % p == 0:
            k //= p
        assert k == 1, "index must be a prime power"
        assert pair.index % pair.constraint == 0
        assert 0 <= pair.count <= pair.index


# ---------------------------------------------------------------------------
# the exponent, both methods
# ---------------------------------------------------------------------------

KNOWN_EXPONENTS = [
    ("C1", 1), ("C2", 1), ("C4", 1), ("C6", 1), ("C12", 1), ("C36", 1),
    ("S3", 2), ("C2xC2", 2), ("C3xC3", 3), ("Q8", 2), ("D8", 2),
    ("C4xC2", 4), ("D12", 2), ("A4", 2), ("C2xC2xC2", 4), ("S4", 2),
    ("SD16", 4), ("Q16", 2), ("D16", 2), ("C2xC8", 8), ("C9xC3", 9),
    ("H3", 9), ("C5xC5", 5), ("Q32", 2), ("SD32", 4), ("D32", 2),
    ("C3xC3xC3", 9),
]


@pytest.mark.parametrize("spec,expected", KNOWN_EXPONENTS)
def test_exponent_both_methods(spec, expected):
    g, lattice = setup_group(spec)
    assert congruence_analysis(lattice, [ALL_CYCLIC])[0].exponent == expected
    assert artin_exponent_marks(build_mark_table(lattice)) == expected


@pytest.mark.parametrize("spec,expected", KNOWN_EXPONENTS)
def test_exponent_divides_group_order(spec, expected):
    g, _ = setup_group(spec)
    assert g.order % expected == 0


@pytest.mark.parametrize(
    "spec", ["C1", "C6", "C12", "S3", "C2xC2", "Q8", "D8", "C4xC2", "D12",
             "A4", "C2xC2xC2", "S4", "SD16", "C2xC8"]
)
def test_exponent_matches_brute_force(spec):
    g, lattice = setup_group(spec)
    assert artin_exponent_marks(build_mark_table(lattice)) == \
        brute_force_artin_exponent(g)


EXPLICIT_FAMILY_EXPONENTS = [
    ("S3", frozenset({0}), 6),
    ("S3", frozenset({0, 1}), 3),
    ("S3", frozenset(), 1),
    ("Q8", frozenset(range(6)), 1),
    ("D12", frozenset({0, 3}), 6),
    ("S4", frozenset({0, 1, 2}), 12),
]


@pytest.mark.parametrize("spec,classes,expected", EXPLICIT_FAMILY_EXPONENTS)
def test_explicit_family_exponents(spec, classes, expected):
    g, lattice = setup_group(spec)
    assert congruence_analysis(lattice, [classes])[0].exponent == expected
    assert artin_exponent_marks(build_mark_table(lattice), classes) == expected


def test_binding_pairs_s3():
    g, lattice = setup_group("S3")
    (analysis,) = congruence_analysis(lattice, [ALL_CYCLIC])
    assert analysis.exponent == 2
    assert [p.constraint for p in analysis.binding_pairs] == [2]


def test_binding_pairs_empty_for_cyclic():
    g, lattice = setup_group("C12")
    (analysis,) = congruence_analysis(lattice, [ALL_CYCLIC])
    assert analysis.exponent == 1
    assert analysis.binding_pairs == ()
    assert len(tuple(congruence_pairs(lattice))) == 9


def test_binding_pairs_achieve_lcm():
    from math import lcm

    g, lattice = setup_group("H3")
    (analysis,) = congruence_analysis(lattice, [ALL_CYCLIC])
    got = 1
    for pair in analysis.binding_pairs:
        got = lcm(got, pair.constraint)
    assert got == analysis.exponent == 9


@pytest.mark.parametrize("spec", ["S3", "Q8", "D12", "SD16", "S4", "A4"])
def test_centralizer_index_divides_exponent(spec):
    """Pairs with a nonzero cyclic count force (V : C_V(U)) | A(G)."""
    g, lattice = setup_group(spec)
    exponent = congruence_analysis(lattice, [ALL_CYCLIC])[0].exponent
    for pair in congruence_pairs(lattice):
        if pair.count == 0:
            continue
        vm = lattice.classes[pair.v_class].mask
        cv = centralizer(g, pair.u_mask) & vm
        index = bin(vm).count("1") // bin(cv).count("1")
        assert exponent % index == 0


@pytest.mark.parametrize("spec", ["S3", "Q8", "C4xC2", "SD16"])
def test_exponent_is_isomorphism_invariant(spec):
    g, lattice = setup_group(spec)
    expected = artin_exponent_marks(build_mark_table(lattice))
    rng = random.Random(f"relabel:{spec}")
    for _ in range(3):
        perm = [0] + rng.sample(range(1, g.order), g.order - 1)
        h = relabeled(g, perm)
        h_lat = enumerate_subgroups(h)
        assert artin_exponent_marks(build_mark_table(h_lat)) == expected
        assert congruence_analysis(h_lat, [ALL_CYCLIC])[0].exponent == expected


def assert_marks_method_matches_divisor_scan(spec, g):
    lattice = enumerate_subgroups(g)
    table = build_mark_table(lattice)
    for family in [ALL_CYCLIC, *random_families(spec, len(lattice.classes))]:
        assert artin_exponent_marks(table, family) == \
            reference_exponent_marks(g, table, family), (spec, family)


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5])
def test_marks_method_matches_divisor_scan(spec):
    assert_marks_method_matches_divisor_scan(spec, group_from_spec(spec))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_marks_method_matches_divisor_scan_relabeled(spec):
    g = group_from_spec(spec)
    rng = random.Random(f"scan:{spec}")
    for _ in range(3):
        h = relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1))
        assert_marks_method_matches_divisor_scan(spec, h)


@pytest.mark.parametrize("spec", ["C1", "S3", "S4", "SD16", "C2xC2xC2", A5])
def test_marks_method_solves_once_per_call(spec, monkeypatch):
    g, lattice = setup_group(spec)
    table = build_mark_table(lattice)
    calls = count_solves(monkeypatch)
    families = [ALL_CYCLIC, *islice(random_families(spec, len(table.rows)), 5)]
    for done, family in enumerate(families, start=1):
        artin_exponent_marks(table, family)
        assert len(calls) == done


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,value,branch",
    [
        ("C12", 1, "cyclic"),
        ("C16", 1, "cyclic"),
        ("S3", None, "not a p-group"),
        ("A4", None, "not a p-group"),
        ("C9xC3", 9, "odd p-group"),
        ("C3xC3", 3, "odd p-group"),
        ("H3", 9, "odd p-group"),
        ("C5xC5", 5, "odd p-group"),
        ("D16", 2, "Q or D"),
        ("Q8", 2, "Q or D"),
        ("Q32", 2, "Q or D"),
        ("SD16", 4, "SD"),
        ("SD32", 4, "SD"),
        ("C4xC2", 4, "2-group other"),
        ("C2xC8", 8, "2-group other"),
        ("C2xC2", 2, "2-group other"),
    ],
)
def test_predictor_branches(spec, value, branch):
    pred = closed_form_predictor(group_from_spec(spec))
    assert (pred.value, pred.branch) == (value, branch)


def test_predictor_reports_both_bracket_rules():
    pred = closed_form_predictor(group_from_spec("SD16"))
    assert pred.details["bracket-whole-group"] == 4
    assert pred.details["bracket-center-only"] == 2
    assert pred.details["generic"] == 8
    # Q16's rules disagree with its computed exponent 2 on the whole-group
    # reading as well; the predictor still answers 2 via the Q branch
    pred = closed_form_predictor(group_from_spec("Q16"))
    assert pred.value == 2
    assert pred.details["bracket-whole-group"] == 4


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("C2", "other"), ("C4", "other"), ("C8", "other"), ("C16", "other"),
        ("C2xC2", "other"), ("C4xC4", "other"), ("C2xC8", "other"),
        ("Q8", "quaternion"), ("Q16", "quaternion"), ("Q32", "quaternion"),
        ("D8", "dihedral"), ("D16", "dihedral"), ("D32", "dihedral"),
        ("SD16", "semidihedral"), ("SD32", "semidihedral"),
        # the modular group M16: a cyclic maximal subgroup, but none of the three shapes
        ("perm:(1 2 3 4 5 6 7 8),(2 6)(4 8)", "other"),
        ("perm:(1 2 3 4 5 6 7 8),(2 4)(3 7)(6 8)", "semidihedral"),
        ("perm:(1 2 3 4 5 6 7 8),(2 8)(3 7)(4 6)", "dihedral"),
    ],
)
def test_recognize_2group(spec, expected):
    """The involution count and the relation-search oracle agree, on the
    group and on a relabelled copy of its table."""
    group = group_from_spec(spec)
    rng = random.Random(7)
    shuffled = relabeled(group, [0] + rng.sample(range(1, group.order), group.order - 1))
    for g in (group, shuffled):
        assert recognize_2group(g) == reference_recognize_2group(g) == expected


def test_recognize_2group_rejects_others():
    with pytest.raises(ValueError):
        recognize_2group(group_from_spec("S3"))
    with pytest.raises(ValueError):
        recognize_2group(group_from_spec("C9"))


@lru_cache(maxsize=None)
def catalog_2groups():
    """Every 2-group of the catalog to order 256, built once."""
    out = {}
    for spec in default_catalog(256):
        pp = as_prime_power(spec_order(parse_group_spec(spec)))
        if pp is not None and pp[0] == 2:
            out[spec] = group_from_spec(spec)
    return out


def test_recognize_2group_matches_relation_search_on_catalog():
    groups = catalog_2groups()
    assert len(groups) == 57
    for spec, group in groups.items():
        assert recognize_2group(group) == reference_recognize_2group(group), spec


def test_prediction_shape_is_set_exactly_on_2group_branches():
    groups = dict(catalog_2groups())
    groups.update((spec, group_from_spec(spec)) for spec in default_catalog(64) + [A5])
    branches = {"Q or D": {"dihedral", "quaternion"}, "SD": {"semidihedral"},
                "2-group other": {"other"}}
    for spec, group in groups.items():
        pred = closed_form_predictor(group)
        if pred.branch in branches:
            assert pred.shape == recognize_2group(group), spec
            assert pred.shape in branches[pred.branch], spec
        else:
            assert pred.shape is None, spec


def test_center_only_rule_is_two_on_every_catalog_2group():
    """U = Z(G) is central, so {g : [g, U] <= U} is all of G, noncyclic here;
    the closure-checked scan agrees with the predictor's constant."""
    checked = 0
    for spec, group in catalog_2groups().items():
        rule = reference_center_only_rule(group)
        if rule is None or group.is_cyclic:
            continue
        checked += 1
        assert rule == 2, spec
        assert closed_form_predictor(group).details["bracket-center-only"] == 2, spec
    assert checked == 17


def test_order2_center_rules_match_pair_scans_on_catalog_2groups():
    """The predictor reads the center and the whole-group bracket reading off
    one set of bracket rows over the generators; the pair scans give the
    same rules on every 2-group of the catalog to order 128."""
    checked = 0
    for spec, group in catalog_2groups().items():
        if group.order > 128:
            continue
        rules = artin_module._order2_center_rules(group)
        assert rules == reference_order2_center_rules(group), spec
        checked += rules is not None
    assert checked == 15


def assert_bracket_centers_match_pair_scans(group):
    """The center and the second center, as bracket preimages of 1 and of
    the center over rows taken with the group's generators only, are those
    of the pair scans."""
    rows = bracket_rows(group, range(group.order), group.generators)
    center = bracket_preimage(rows, 1)
    assert center == centralizer(group, full_mask(group))
    assert bracket_preimage(rows, center) == reference_second_center(group)


@pytest.mark.parametrize("spec", default_catalog(64) + [S5, "A5xC2"])
def test_bracket_centers_match_pair_scans(spec):
    assert_bracket_centers_match_pair_scans(group_from_spec(spec))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(default_catalog(128) + ["S4xC2xC2", "A5xC2"]),
       st.randoms(use_true_random=False))
def test_bracket_centers_match_pair_scans_relabeled(spec, rng):
    g = group_from_spec(spec)
    assert_bracket_centers_match_pair_scans(
        relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1)))


@settings(max_examples=40, deadline=None)
@given(perm_specs)
def test_bracket_centers_match_pair_scans_on_random_perm_specs(spec):
    try:
        g = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    assert_bracket_centers_match_pair_scans(g)


def test_sylow_subgroup_of_s4_is_dihedral():
    g, lattice = setup_group("S4")
    mask = class_rep_mask(lattice, order=8)
    sub, elems = subgroup_as_group(g, mask)
    assert recognize_2group(sub) == "dihedral"
    for i in range(8):
        for j in range(8):
            assert elems[sub.mult[i][j]] == g.mult[elems[i]][elems[j]]


def test_subgroup_as_group_rejects_non_closed():
    g, _ = setup_group("S3")
    reflections = [x for x in range(6) if element_order(g, x) == 2]
    mask = 1 | 1 << reflections[0] | 1 << reflections[1]
    with pytest.raises(ValueError):
        subgroup_as_group(g, mask)


# ---------------------------------------------------------------------------
# counting sets
# ---------------------------------------------------------------------------


def top_reports(lattice):
    """count_C_sets's reports for the whole group, the last class, by U."""
    return dict(count_C_sets(lattice, len(lattice.classes) - 1))


def test_c_sets_c9():
    g, lattice = setup_group("C9")
    r = top_reports(lattice)[g.cyclic_masks[3]]
    assert (len(r.c_masks), len(r.c_prime_masks)) == (1, 1)
    assert r.c_masks == {full_mask(g)}


def test_c_sets_elementary_abelian():
    g, lattice = setup_group("C3xC3")
    u = class_rep_mask(lattice, order=3)
    r = top_reports(lattice)[u]
    assert (len(r.c_masks), len(r.c_prime_masks)) == (0, 0)


def test_c_sets_q8_center():
    g, lattice = setup_group("Q8")
    z = class_rep_mask(lattice, order=2)
    r = top_reports(lattice)[z]
    assert (len(r.c_masks), len(r.c_prime_masks)) == (3, 3)
    assert r.h_prime_mask == full_mask(g)
    assert r.c_of_h_prime_masks == r.c_masks


def test_c_sets_d16_center():
    g, lattice = setup_group("D16")
    z = centralizer(g, full_mask(g))
    r = top_reports(lattice)[z]
    assert (len(r.c_masks), len(r.c_prime_masks)) == (1, 1)
    assert bin(r.h_prime_mask).count("1") == 4
    assert r.c_prime_masks == r.c_of_h_prime_masks


def test_c_sets_validation():
    """count_C_sets takes a class index, and a class that is not a
    nontrivial p-group has no reports: C6 itself, and the trivial class."""
    lattice = enumerate_subgroups(group_from_spec("C6"))
    for h in (len(lattice.classes) - 1, 0):
        with pytest.raises(ValueError, match="nontrivial p-group"):
            count_C_sets(lattice, h)


def test_standalone_c_set_report_validation():
    """The lattice-free reference takes one (H, U) pair and checks it: H a
    nontrivial p-group, and U cyclic and normal in H."""
    g, lattice = setup_group("D8")
    klein = class_rep_mask(lattice, order=4, cyclic=False)
    with pytest.raises(ValueError, match="^U must be cyclic$"):
        standalone_c_set_report(g, full_mask(g), klein)
    reflection = next(cls.mask for cls in lattice.classes
                      if cls.order == 2 and cls.size > 1)
    with pytest.raises(ValueError, match="^U must be normal in H$"):
        standalone_c_set_report(g, full_mask(g), reflection)
    g6 = group_from_spec("C6")
    with pytest.raises(ValueError, match="nontrivial p-group"):
        standalone_c_set_report(g6, full_mask(g6), 1)


def test_standalone_c_set_report_rejects_an_h_that_is_not_a_subgroup():
    """H is proved a subgroup before anything else: elements 0-3 of S4 are
    four elements, a 2-power count, but not closed under the product."""
    g = group_from_spec("S4")
    with pytest.raises(ValueError, match="^mask is not closed"):
        standalone_c_set_report(g, 0b1111, 1)


def test_standalone_c_set_report_checks_arguments_before_building_bracket_rows(monkeypatch):
    """A U that is not cyclic, or not inside H, fails with its own message
    before the |H|^2 bracket rows are built: here H = C2^6, 4,096 pairs."""
    g = group_from_spec("C2xC2xC2xC2xC2xC2")

    def refuse(*args):
        raise AssertionError("bracket rows built for a bad argument")

    monkeypatch.setattr(oracles, "bracket_rows", refuse)
    klein = g.cyclic_masks[1] | g.cyclic_masks[2] | g.cyclic_masks[g.mult[1][2]]
    with pytest.raises(ValueError, match="^U must be cyclic$"):
        standalone_c_set_report(g, full_mask(g), klein)
    with pytest.raises(ValueError, match="^inner subgroup is not contained in the outer one$"):
        standalone_c_set_report(g, g.cyclic_masks[1], g.cyclic_masks[2])


def test_cyclic_extensions_c8():
    g, _ = setup_group("C8")
    u = g.cyclic_masks[4]  # order 2
    exts = cyclic_extensions(g, full_mask(g), u, 2)
    assert exts == {g.cyclic_masks[2]}


@pytest.mark.parametrize("spec,cyclic", [("C4xC2", False), ("C2xC2xC2", False),
                                          ("C8", True), ("C16", True),
                                          ("C4xC4", False), ("C9xC3", False),
                                          ("C27", True)])
def test_c_set_parity_detects_cyclicity(spec, cyclic):
    """For an abelian p-group H and nontrivial proper cyclic U, the number of
    cyclic index-p extensions of U is prime to p exactly when H is cyclic."""
    g, lattice = setup_group(spec)
    fm = full_mask(g)
    p = min(q for q in range(2, g.order + 1) if g.order % q == 0)
    reports = top_reports(lattice)
    checked = 0
    for u in lattice.classes:
        if not u.is_cyclic or u.mask == fm or u.order == 1:
            continue
        r = reports[u.mask]
        assert len(r.c_masks) == len(r.c_prime_masks)  # abelian: everything is normal
        assert (len(r.c_masks) % p != 0) == cyclic
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def cyclic_sylow_report(spec):
    """The Sylow comparison for the cyclic family against its exponent."""
    g, lattice = setup_group(spec)
    exponent = compute_exponent_report(lattice, build_mark_table(lattice), spec).exponent
    return sylow_reduction_report(lattice, ALL_CYCLIC, exponent)


def test_sylow_report_q8():
    assert [(s.p, s.exponent_part, s.sylow_order, s.sylow_exponent, s.match)
            for s in cyclic_sylow_report("Q8")] == [(2, 2, 8, 2, True)]


def test_sylow_report_c6():
    rows = cyclic_sylow_report("C6")
    assert all(s.exponent_part == 1 and s.sylow_exponent == 1 and s.match for s in rows)
    assert [s.p for s in rows] == [2, 3]


def test_sylow_report_s3_mismatch():
    by_p = {s.p: s for s in cyclic_sylow_report("S3")}
    assert by_p[2].exponent_part == 2 and by_p[2].sylow_exponent == 1
    assert not by_p[2].match
    assert by_p[3].match


def test_sylow_report_s4():
    assert [(s.p, s.exponent_part, s.sylow_order, s.sylow_exponent, s.match)
            for s in cyclic_sylow_report("S4")] == [(2, 2, 8, 2, True), (3, 1, 3, 1, True)]


SYLOW_SPECS = default_catalog(128) + [S5, "A5xC2", "S3xS3", "A4xC3", "S4xC2xC2", "D30"]


@pytest.mark.parametrize("spec", SYLOW_SPECS + ["relabeled:S4"])
def test_sylow_report_matches_standalone_subgroup(spec):
    """sylow_reduction_report, which reads each Sylow subgroup's lattice from
    G's, against the standalone path: a table, an enumeration and an element
    map per prime; for the cyclic family and four random ones."""
    if spec.startswith("relabeled:"):
        g = group_from_spec(spec.removeprefix("relabeled:"))
        rng = random.Random(f"sylow:{spec}")
        g = relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1))
    else:
        g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    table = build_mark_table(lattice)
    for family in [ALL_CYCLIC, *islice(random_families(spec, len(lattice.classes)), 4)]:
        exponent = artin_exponent_marks(table, family)
        assert sylow_reduction_report(lattice, family, exponent) == \
            standalone_sylow_report(g, lattice, family, exponent), (spec, family)


def test_sylow_report_builds_no_table_or_lattice(monkeypatch):
    """Every prime's comparison reads G's lattice: no group table is
    validated, no lattice is enumerated, no table of marks is built and no
    solve runs."""
    g, lattice = setup_group("S4xC2xC2")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(groups_module, "_validate_table",
                        counted("validate", groups_module._validate_table))
    monkeypatch.setattr(lattice_module, "enumerate_subgroups",
                        counted("enumerate", lattice_module.enumerate_subgroups))
    monkeypatch.setattr(burnside_module, "build_mark_table",
                        counted("marks", burnside_module.build_mark_table))
    monkeypatch.setattr(burnside_module, "solve_membership",
                        counted("solve", burnside_module.solve_membership))
    rows = sylow_reduction_report(lattice, ALL_CYCLIC, 2)
    assert [(s.p, s.sylow_order) for s in rows] == [(2, 32), (3, 3)]
    assert calls == {}


def test_report_both_methods():
    g, lattice = setup_group("SD16")
    rep = compute_exponent_report(lattice, build_mark_table(lattice), "SD16")
    assert rep.exponent == rep.exponent_congruence == rep.exponent_marks == 4
    assert rep.methods_agree is True and rep.sylow is None
    d = report_to_dict(rep)
    assert d["prediction_matches"] is True
    assert d["prime_parts"] == {"2": 4}
    assert "pairs" not in d and "sylow" not in d
    pairs = tuple(congruence_pairs(lattice))
    assert pairs and all(p.index % p.constraint == 0 for p in pairs)


def test_report_to_dict_shape():
    g, lattice = setup_group("S3")
    report = compute_exponent_report(lattice, build_mark_table(lattice), "S3")
    assert "sylow" not in report_to_dict(report)
    report.sylow = sylow_reduction_report(lattice, ALL_CYCLIC, report.exponent)
    d = report_to_dict(report)
    assert d["group"] == "S3" and d["order"] == 6
    assert d["exponent"] == 2 and d["methods_agree"] is True
    assert d["prediction"]["branch"] == "not a p-group"
    assert d["prediction_matches"] is None
    assert d["prime_parts"] == {"2": 2}
    assert len(d["binding_pairs"]) == 1
    assert d["binding_pairs"][0]["constraint"] == 2
    assert d["sylow"][0]["match"] is False  # p = 2 first


def test_method_disagreement_attributes():
    g, lattice = setup_group("S3")
    report = compute_exponent_report(lattice, build_mark_table(lattice), "S3")
    report.exponent_congruence = 4
    err = MethodDisagreement(report)
    assert err.report is report
    assert str(err) == "methods disagree for S3 (family cyclic): congruence=4 marks=2"
