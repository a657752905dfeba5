"""Two results from the literature, checked over the catalog and a few groups
outside it: Dress's congruences (Dress 1969) give the exponent of every
family, in agreement with both methods, and the p-part of the Artin exponent
A(G) of the cyclic family is the largest p-part of A(H) over the
p-hyperelementary subgroups H of G (Lam, J. Algebra 9, 1968).  The exponent
A(H) of each subgroup class, read off G's lattice by local_exponent, is
pinned to H's own table of marks.  The cyclic family's exponent is also
solved from the cyclic x cyclic block of the table of marks, built from the
group table alone and pinned to the table's block entry by entry, so a
lattice that both methods read cannot make them agree on a wrong number
unseen."""

import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings

from artinx.artin import (
    ALL_CYCLIC,
    artin_exponent_marks,
    compute_exponent_report,
    congruence_analysis,
    local_exponent,
)
from artinx.burnside import build_mark_table
from artinx.groups import OrderCapError, group_from_spec, p_part, prime_factors
from artinx.lattice import enumerate_subgroups
from artinx.sweep import default_catalog, random_families

from oracles import (
    cyclic_block_exponent,
    cyclic_block_marks,
    dress_exponent,
    is_p_hyperelementary,
    perm_specs,
    relabeled,
    standalone_local_exponent,
)

OUTSIDE_CATALOG = [
    "A5", "S5", "D10", "D12", "D18", "D20", "S3xS3", "A4xC3",
    "perm:(1 2 3 4 5 6 7),(2 3 5)(4 7 6)",  # C7 ⋊ C3, order 21
    "perm:(1 2 3 4 5),(2 3 5 4)",  # the Frobenius group F20
]
GROUPS = default_catalog(64) + OUTSIDE_CATALOG


def relabeled_group(spec):
    g = group_from_spec(spec)
    rng = random.Random(f"theorems:{spec}")
    return relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1))


def assert_dress_matches_both_methods(spec, group):
    lattice = enumerate_subgroups(group)
    table = build_mark_table(lattice)
    families = [ALL_CYCLIC, *islice(random_families(spec, len(lattice.classes)), 5)]
    congruence = [a.exponent for a in congruence_analysis(lattice, families)]
    for family, exponent in zip(families, congruence):
        assert dress_exponent(lattice, family) == exponent == artin_exponent_marks(
            table, family), f"{spec}, family {family}"


@pytest.mark.parametrize("spec", GROUPS)
def test_dress_congruences_give_both_methods_exponent(spec):
    assert_dress_matches_both_methods(spec, group_from_spec(spec))


@pytest.mark.parametrize("spec", GROUPS)
def test_dress_congruences_give_both_methods_exponent_relabeled(spec):
    assert_dress_matches_both_methods(spec, relabeled_group(spec))


def assert_cyclic_block_gives_the_reports_exponent(spec, group):
    lattice = enumerate_subgroups(group)
    report = compute_exponent_report(lattice, build_mark_table(lattice), spec)
    assert cyclic_block_exponent(group) == report.exponent, spec


@pytest.mark.parametrize("spec", GROUPS)
def test_cyclic_block_gives_the_reports_exponent(spec):
    assert_cyclic_block_gives_the_reports_exponent(spec, group_from_spec(spec))


@pytest.mark.parametrize("spec", GROUPS)
def test_cyclic_block_gives_the_reports_exponent_relabeled(spec):
    assert_cyclic_block_gives_the_reports_exponent(spec, relabeled_group(spec))


@settings(max_examples=30, deadline=None)
@given(perm_specs)
def test_cyclic_block_gives_the_reports_exponent_on_random_perm_specs(spec):
    try:
        group = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    assert_cyclic_block_gives_the_reports_exponent(spec, group)


@pytest.mark.parametrize("spec", GROUPS)
def test_cyclic_block_is_the_mark_tables_cyclic_block(spec):
    """The witness's cyclic classes are the lattice's, one to one, and its
    block of marks is the table's cyclic x cyclic block, entry by entry."""
    group = group_from_spec(spec)
    lattice = enumerate_subgroups(group)
    table = build_mark_table(lattice)
    class_of, marks = cyclic_block_marks(group)
    cyclic = [i for i, cls in enumerate(lattice.classes) if cls.is_cyclic]
    # (lattice class, witness class) for every cyclic subgroup: a bijection
    # when there are as many pairs as classes on each side
    matched = {(lattice.class_of.get(m), c) for m, c in class_of.items()}
    assert {i for i, _ in matched} == set(cyclic), spec
    assert len(matched) == len(cyclic) == len(set(class_of.values())), spec
    name = dict(matched)
    for i in cyclic:
        row = dict(zip(*table.rows[i]))
        for j in cyclic:
            assert row.get(j, 0) == marks.get((name[i], name[j]), 0), f"{spec}: M[{i}][{j}]"


def assert_local_exponent_matches_standalone(spec, group):
    """For every class representative H, A(H) read off G's lattice equals the
    exponent from H's own table, lattice and table of marks, for the cyclic
    family and five random ones."""
    lattice = enumerate_subgroups(group)
    families = [ALL_CYCLIC, *islice(random_families(spec, len(lattice.classes)), 5)]
    for h, cls in enumerate(lattice.classes):
        h_mask = cls.mask
        for family in families:
            assert local_exponent(lattice, h, family) == standalone_local_exponent(
                group, lattice, h_mask, family), f"{spec}, H = {h_mask:#x}, family {family}"


@pytest.mark.parametrize("spec", GROUPS)
def test_local_exponent_matches_subgroup_as_group(spec):
    assert_local_exponent_matches_standalone(spec, group_from_spec(spec))


@pytest.mark.parametrize("spec", GROUPS)
def test_local_exponent_matches_subgroup_as_group_relabeled(spec):
    assert_local_exponent_matches_standalone(spec, relabeled_group(spec))


@pytest.mark.parametrize("spec", GROUPS)
def test_exponent_is_read_off_p_hyperelementary_subgroups(spec):
    """For each prime p dividing |G|, the p-part of A(G) is the largest
    p-part of A(H) over the p-hyperelementary classes H != 1, each A(H) read
    off G's lattice by local_exponent."""
    group = group_from_spec(spec)
    lattice = enumerate_subgroups(group)
    exponent = artin_exponent_marks(build_mark_table(lattice))
    local: dict[int, int] = {}  # A(H) by class, each computed once
    for p in prime_factors(group.order):
        largest = 0
        for i, cls in enumerate(lattice.classes[1:], 1):
            if is_p_hyperelementary(lattice, cls.mask, p):
                if i not in local:
                    local[i] = local_exponent(lattice, i)
                largest = max(largest, p_part(local[i], p))
        assert p_part(exponent, p) == largest, f"{spec}, p = {p}"
