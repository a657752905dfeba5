"""Subgroup lattices: enumeration, conjugacy classes, and serialization."""

import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import artinx.lattice as lattice_module
from artinx.artin import artin_exponent_congruence, artin_exponent_marks
from artinx.burnside import build_mark_table
from artinx.groups import OrderCapError, group_from_spec, prime_factors
from artinx.lattice import (
    ResourceCapError,
    _element_order_key,
    _expand_class,
    _powers,
    check_subgroup,
    closure_mask,
    conjugate_mask,
    cosets,
    enumerate_subgroups,
    lattice_from_dict,
    lattice_to_dict,
    mask_elements,
)

from oracles import (
    brute_force_classes,
    brute_force_subgroup_masks,
    centralizer,
    class_conjugates,
    commutator_closure,
    element_order,
    is_normal_in,
    join_closure_lattice,
    normalizer,
    normalizer_index,
    perm_specs,
    power,
    quotient_group,
    reference_expand_class,
    reference_mark_table,
    relabeled,
)
from artinx.sweep import default_catalog

A5 = "perm:(1 2 3 4 5),(1 2 3)"
S5 = "perm:(1 2 3 4 5),(1 2)"


def popcount(mask):
    return bin(mask).count("1")


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def test_closure_of_nothing_is_trivial():
    g = group_from_spec("S3")
    assert closure_mask(g, []) == 1


def test_closure_from_single_generator_matches_cyclic_mask():
    g = group_from_spec("C12")
    for x in range(12):
        assert closure_mask(g, [x]) == g.cyclic_mask(x)


def test_generated_subgroup_flags():
    g = group_from_spec("Q8")
    h = closure_mask(g, [x for x in range(8) if element_order(g, x) == 4][:1])
    assert h.bit_count() == 4
    assert h in g.cyclic_subgroups
    assert closure_mask(g, range(8)).bit_count() == 8


def test_subgroup_records_have_no_instance_dict():
    """SubgroupLattice and SubgroupClass are named tuples, so the lattice
    and its class records hold their five fields and nothing else."""
    lattice = enumerate_subgroups(group_from_spec("S4"))
    assert not hasattr(lattice, "__dict__")
    assert lattice._fields == ("group", "classes", "class_of", "normalizers", "below")
    for cls in lattice.classes:
        assert not hasattr(cls, "__dict__")
        assert cls._fields == ("mask", "order", "is_cyclic", "size", "generators")


def test_check_subgroup_rejects_nonclosed():
    g = group_from_spec("C4")
    with pytest.raises(ValueError, match=r"mask is not closed: 1\*1 escapes"):
        check_subgroup(g, 0b0011 | 0b1000)  # {0, 1, 3} not closed
    with pytest.raises(ValueError, match="subgroup mask must contain the identity"):
        check_subgroup(g, 0b0110)  # missing identity
    assert check_subgroup(g, 0b0101) is None


def test_centralizer_and_normalizer_in_s3():
    g = group_from_spec("S3")
    flip = next(x for x in range(6) if element_order(g, x) == 2)
    c2 = closure_mask(g, [flip])
    assert centralizer(g, c2) == c2
    assert normalizer(g, c2) == c2
    rot = next(x for x in range(6) if element_order(g, x) == 3)
    c3 = closure_mask(g, [rot])
    assert normalizer(g, c3) == (1 << 6) - 1


def test_centralizer_of_whole_group_is_center():
    g = group_from_spec("Q8")
    z = centralizer(g, (1 << 8) - 1)
    assert popcount(z) == 2


def test_commutator_closure():
    s3 = group_from_spec("S3")
    derived = commutator_closure(s3, (1 << 6) - 1)
    assert popcount(derived) == 3
    c6 = group_from_spec("C6")
    assert commutator_closure(c6, (1 << 6) - 1) == 1


def test_is_normal_in():
    g = group_from_spec("S3")
    full = (1 << 6) - 1
    rot = next(x for x in range(6) if element_order(g, x) == 3)
    flip = next(x for x in range(6) if element_order(g, x) == 2)
    assert is_normal_in(g, closure_mask(g, [rot]), full)
    assert not is_normal_in(g, closure_mask(g, [flip]), full)
    with pytest.raises(ValueError):
        is_normal_in(g, closure_mask(g, [flip]), closure_mask(g, [rot]))


@pytest.mark.parametrize("spec", ["S4", "D16", "Q16", "A4"])
def test_is_normal_in_matches_conjugation_by_all_of_outer(spec):
    g = group_from_spec(spec)
    masks = sorted(enumerate_subgroups(g).class_of)
    for outer in masks:
        for inner in masks:
            if inner & outer != inner:
                continue
            expected = all(
                conjugate_mask(g, x, inner) == inner for x in mask_elements(outer)
            )
            assert is_normal_in(g, inner, outer) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**256))
def test_mask_elements_matches_naive_bit_walk(mask):
    assert mask_elements(mask) == [x for x in range(mask.bit_length()) if mask >> x & 1]


def test_cosets_partition_and_reps_are_least():
    g = group_from_spec("C12")
    inner = g.cyclic_mask(4)  # order 3
    reps = cosets(g, (1 << 12) - 1, inner)
    assert reps == [0, 1, 2, 3]
    covered = set()
    for r in reps:
        coset = {g.mul(r, u) for u in mask_elements(inner)}
        assert min(coset) == r
        assert not coset & covered
        covered |= coset
    assert covered == set(range(12))


def test_cosets_in_proper_subgroup():
    g = group_from_spec("D8")
    r = next(x for x in range(8) if element_order(g, x) == 4)
    outer = closure_mask(g, [r])
    inner = closure_mask(g, [g.mul(r, r)])
    reps = cosets(g, outer, inner)
    assert len(reps) == 2
    assert reps[0] == 0


def test_quotient_c12_by_c3_is_c4():
    g = group_from_spec("C12")
    q, reps = quotient_group(g, (1 << 12) - 1, g.cyclic_mask(4))
    assert q.order == 4
    assert sorted(element_order(q, x) for x in range(4)) == [1, 2, 4, 4]
    assert len(reps) == 4 and reps[0] == 0


def test_quotient_d8_by_center_is_klein():
    g = group_from_spec("D8")
    z = centralizer(g, (1 << 8) - 1)
    q, _ = quotient_group(g, (1 << 8) - 1, z)
    assert q.order == 4
    assert all(element_order(q, x) <= 2 for x in range(4))


def test_quotient_requires_normal_subgroup():
    g = group_from_spec("S3")
    s = next(x for x in range(1, 6) if element_order(g, x) == 2)
    with pytest.raises(ValueError):
        quotient_group(g, (1 << 6) - 1, closure_mask(g, [s]))


# ---------------------------------------------------------------------------
# coset-wise kernels against element-wise references
# ---------------------------------------------------------------------------


def relabeled_group(spec, salt):
    g = group_from_spec(spec)
    rng = random.Random(f"{salt}:{spec}")
    return relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1))


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5])
def test_closure_from_a_subgroup_matches_closure_from_identity(spec):
    """Joining each class representative H with each cyclic subgroup, as
    enumeration does for a non-solvable group: growing by cosets of H gives
    the breadth-first closure."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    # one generator of each nontrivial cyclic subgroup
    cyclic_gens = sorted((x,) for m, x in g.cyclic_subgroups.items() if m != 1)
    for cls in lattice.classes:
        h, h_gens = cls.mask, cls.generators
        for x_gens in cyclic_gens:
            gens = h_gens + x_gens
            assert closure_mask(g, gens, h) == closure_mask(g, gens), (spec, h, gens)


CLOSURE_SPECS = ["S4", "SD16", "Q16", "D12", "C4xC4", "C2xC2xC6", "A4", "H3", "C2xQ8"]
_closure_groups = {}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CLOSURE_SPECS),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_closure_from_prefix_subgroup_matches_closure_from_identity(spec, picks, prefix, k):
    """Random generators of a relabelled table; H is generated by the k-th
    powers of a prefix of them, so it lies in the subgroup the whole list
    generates, but its own generators need not be on the list."""
    if spec not in _closure_groups:
        _closure_groups[spec] = relabeled_group(spec, "closure")
    g = _closure_groups[spec]
    gens = [p % g.order for p in picks]
    base = closure_mask(g, [power(g, x, k) for x in gens[:prefix]])
    assert closure_mask(g, gens, base) == closure_mask(g, gens)


def test_closure_from_a_subgroup_fills_whole_cosets():
    """C8 from one generator x, grown from H = <x^2>: x^2 is not among the
    generators, so only adding whole cosets H y reaches x^3, x^5 and x^7."""
    g = group_from_spec("C8")
    x = next(y for y in range(8) if element_order(g, y) == 8)
    assert closure_mask(g, [x], g.cyclic_mask(power(g, x, 2))) == (1 << 8) - 1


def assert_expand_class_matches_reference(g):
    for m in sorted(enumerate_subgroups(g).class_of):
        conj_to_g, n_mask = _expand_class(g, m)
        # the same conjugates, conjugating elements and insertion order
        assert list(conj_to_g.items()) == list(reference_expand_class(g, m).items())
        assert n_mask == normalizer(g, m)


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5])
def test_expand_class_matches_conjugation_by_every_element(spec):
    assert_expand_class_matches_reference(group_from_spec(spec))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_expand_class_matches_conjugation_by_every_element_relabeled(spec):
    assert_expand_class_matches_reference(relabeled_group(spec, "expand"))


# ---------------------------------------------------------------------------
# enumeration vs. brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    ["C1", "C6", "C12", "S3", "Q8", "D8", "D12", "A4", "S4", "C2xC2xC2", "C2xC2xC4"]
    + ["relabeled:S4", "relabeled:D12", "relabeled:SD16", "perm:(1 2 3)(4 5),(1 2)"],
)
def test_enumeration_matches_brute_force(spec):
    if spec.startswith("relabeled:"):
        g = relabeled_group(spec.removeprefix("relabeled:"), "brute")
    else:
        g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    assert set(lattice.class_of) == brute_force_subgroup_masks(g)
    expected_classes = brute_force_classes(g)
    assert {frozenset(c) for c in class_conjugates(lattice)} == expected_classes


class _Counted:
    """A function wrapper that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


SOLVABLE = ["D256", "S4xC2xC2", "C2xC2xC2xC2xC2xC2"]


@pytest.mark.parametrize("spec", SOLVABLE + [S5, "S5xC2"])
def test_enumeration_expands_each_class_once(spec, monkeypatch):
    """Each class is expanded when it is first reached; a solvable group is
    enumerated by cyclic extension alone, and a non-solvable one joins one
    base per class with the cyclic subgroups."""
    g = group_from_spec(spec)
    expand = _Counted(lattice_module._expand_class)
    closure = _Counted(lattice_module.closure_mask)
    monkeypatch.setattr(lattice_module, "_expand_class", expand)
    monkeypatch.setattr(lattice_module, "closure_mask", closure)
    lattice = enumerate_subgroups(g)
    assert expand.calls == len(lattice.classes)
    if spec in SOLVABLE:
        assert closure.calls == 0
    else:
        cyclic_count = len({g.cyclic_mask(x) for x in range(g.order)})
        assert 0 < closure.calls <= len(lattice.classes) * cyclic_count


def assert_matches_join_closure(g):
    """Cyclic extension and the join-closure oracle give the same classes,
    representatives, conjugates and class_of, and every class's
    recorded generators generate its representative."""
    lattice = enumerate_subgroups(g)
    reference = join_closure_lattice(g)
    assert [c.mask for c in lattice.classes] == [c.mask for c in reference.classes]
    assert class_conjugates(lattice) == class_conjugates(reference)
    assert lattice.class_of == reference.class_of
    for c in lattice.classes:
        assert closure_mask(g, c.generators) == c.mask
    return lattice, reference


NON_SOLVABLE = ["A5", "S5", "A5xC2", "A5xC3", "A5xC4", "S5xC2"]


@pytest.mark.parametrize(
    "spec", default_catalog(128) + NON_SOLVABLE + ["S3xS3", "A4xC3", "S4xC2xC2"]
)
def test_enumeration_matches_join_closure(spec):
    assert_matches_join_closure(group_from_spec(spec))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_enumeration_matches_join_closure_relabeled(spec):
    assert_matches_join_closure(relabeled_group(spec, "join"))


@settings(max_examples=40, deadline=None)
@given(perm_specs)
def test_enumeration_matches_join_closure_on_random_perm_specs(spec):
    """Random permutation groups on up to six points, solvable or not: both
    enumerators agree, and both exponent methods agree on each lattice."""
    try:
        g = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    for lattice in assert_matches_join_closure(g):
        exponent = artin_exponent_congruence(lattice)
        assert artin_exponent_marks(build_mark_table(lattice)) == exponent, spec


# ---------------------------------------------------------------------------
# normalizers recorded at class expansion
# ---------------------------------------------------------------------------


def assert_normalizers_match_reference(g):
    """Every subgroup's recorded normalizer is the one found by conjugating
    with every element, in the lattice and in its cache round trip; and each
    class has (G : N(rep)) members."""
    lattice = enumerate_subgroups(g)
    reference = {m: normalizer(g, m) for m in lattice.class_of}
    assert lattice.normalizers == reference
    loaded = lattice_from_dict(g, lattice_to_dict(lattice, "spec"))
    assert loaded.normalizers == reference
    for c in lattice.classes:
        assert c.size * popcount(lattice.normalizers[c.mask]) == g.order


@pytest.mark.parametrize("spec", default_catalog(64) + [S5, "A5xC2"])
def test_normalizers_match_conjugation_by_every_element(spec):
    assert_normalizers_match_reference(group_from_spec(spec))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_normalizers_match_conjugation_by_every_element_relabeled(spec):
    assert_normalizers_match_reference(relabeled_group(spec, "normalizer"))


@settings(max_examples=30, deadline=None)
@given(perm_specs)
def test_normalizers_match_conjugation_by_every_element_on_random_perm_specs(spec):
    try:
        g = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    assert_normalizers_match_reference(g)


# ---------------------------------------------------------------------------
# the containment index, and the table of marks that reads it
# ---------------------------------------------------------------------------


def assert_below_and_marks_match_reference(lattice):
    """below lists, for each class, the masks of class_of inside its
    representative, ascending; the table of marks built from it is the
    per-conjugate reference table."""
    masks = sorted(lattice.class_of)
    assert lattice.below == [[m for m in masks if m & c.mask == m] for c in lattice.classes]
    table, reference = build_mark_table(lattice), reference_mark_table(lattice)
    assert table.rows == reference.rows
    assert (table.class_orders, table.class_sizes, table.class_cyclic) == (
        reference.class_orders, reference.class_sizes, reference.class_cyclic)


@pytest.mark.parametrize("spec", default_catalog(128) + NON_SOLVABLE + ["S3xS3", "A4xC3", "D30"])
def test_below_and_mark_table_match_reference(spec):
    assert_below_and_marks_match_reference(enumerate_subgroups(group_from_spec(spec)))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_below_and_mark_table_match_reference_relabeled(spec):
    assert_below_and_marks_match_reference(enumerate_subgroups(relabeled_group(spec, "below")))


@settings(max_examples=30, deadline=None)
@given(perm_specs)
def test_below_and_mark_table_match_reference_on_random_perm_specs(spec):
    try:
        g = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    assert_below_and_marks_match_reference(enumerate_subgroups(g))


@pytest.mark.parametrize(
    "spec,subgroups,classes",
    [
        ("C1", 1, 1),
        ("S3", 6, 4),
        ("Q8", 6, 6),
        ("C12", 6, 6),
        ("A4", 10, 5),
        ("S4", 30, 11),
    ],
)
def test_known_subgroup_counts(spec, subgroups, classes):
    lattice = enumerate_subgroups(group_from_spec(spec))
    assert lattice.subgroup_count() == subgroups
    assert len(lattice.classes) == classes


def test_class_ordering_and_endpoints():
    lattice = enumerate_subgroups(group_from_spec("S4"))
    orders = [c.order for c in lattice.classes]
    assert orders == sorted(orders)
    assert orders[0] == 1
    assert orders[-1] == 24
    # ties broken by the representative's element tuple
    for a, b in zip(lattice.classes, lattice.classes[1:]):
        ka = (a.order, mask_elements(a.mask))
        kb = (b.order, mask_elements(b.mask))
        assert ka < kb


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_element_order_key_sorts_masks_of_one_size_as_element_tuples(data):
    """The key _assemble sorts by, on masks of one size over up to 256
    elements: some drawn at random, some one swap of an element apart."""
    n = data.draw(st.integers(1, 256))
    size = data.draw(st.integers(0, n))
    masks = [sum(1 << x for x in perm[:size])
             for perm in data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))]
    if 0 < size < n:
        for _ in range(data.draw(st.integers(0, 6))):
            base = data.draw(st.sampled_from(masks))
            inside = data.draw(st.sampled_from(mask_elements(base)))
            outside = data.draw(st.sampled_from(mask_elements(base ^ ((1 << n) - 1))))
            masks.append(base ^ 1 << inside ^ 1 << outside)
    assert sorted(masks, key=lambda m: _element_order_key(n, m)) == sorted(masks, key=mask_elements)


@pytest.mark.parametrize(
    "spec", default_catalog(128) + ["S4xC2xC2", A5, S5, "perm:(1 2 3 4 5 6 7),(1 2)(3 6)"]
)
def test_class_order_is_element_tuple_order(spec):
    """Classes ascend by (order, element tuple of the representative), and
    each representative is its class's least conjugate in element order,
    both read with element lists and not with _assemble's key."""
    lattice = enumerate_subgroups(group_from_spec(spec))
    keys = [(c.order, mask_elements(c.mask)) for c in lattice.classes]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [conj[0] for conj in class_conjugates(lattice)] == [c.mask for c in lattice.classes]


@pytest.mark.parametrize("spec", default_catalog(64) + ["S4xC2xC2", A5])
def test_whole_list_powers_match_one_element_at_a_time(spec):
    g = group_from_spec(spec)
    for k in prime_factors(g.order) + [1, 6]:
        assert _powers(g, k) == [power(g, x, k) for x in range(g.order)], k


def test_canonical_representative_is_least_conjugate():
    """Over the catalog to order 64, A5 and S5: each class's representative
    is its conjugate least in element order, with the conjugates read off
    class_of, so no conjugate has a lesser element tuple."""
    for spec in default_catalog(64) + [A5, S5]:
        lattice = enumerate_subgroups(group_from_spec(spec))
        for c, conjugates in zip(lattice.classes, class_conjugates(lattice)):
            tuples = [tuple(mask_elements(m)) for m in conjugates]
            assert len(set(tuples)) == len(tuples), spec
            assert conjugates[0] == c.mask, spec


def test_class_of_covers_every_subgroup():
    g = group_from_spec("D12")
    lattice = enumerate_subgroups(g)
    assert set(lattice.class_of) == brute_force_subgroup_masks(g)
    assert len(lattice.class_of) == lattice.subgroup_count()


def test_class_size_equals_normalizer_index():
    g = group_from_spec("S4")
    lattice = enumerate_subgroups(g)
    for c in lattice.classes:
        n_mask = normalizer(g, c.mask)
        assert c.size == g.order // popcount(n_mask)
        assert normalizer_index(lattice, lattice.class_of[c.mask]) == c.size


def test_generators_regenerate_their_subgroup():
    g = group_from_spec("S4")
    lattice = enumerate_subgroups(g)
    for c in lattice.classes:
        assert type(c.generators) is tuple
        assert closure_mask(g, c.generators) == c.mask
        assert len(c.generators) <= 9


def test_conjugates_of_normal_subgroup_form_singleton_class():
    g = group_from_spec("Q8")
    lattice = enumerate_subgroups(g)
    assert all(c.size == 1 for c in lattice.classes)


def assert_flat_records(g, spec):
    """Each class record describes its representative, the conjugate least
    in element order among the masks class_of maps to the class, and counts
    those masks; a cache round trip rebuilds equal records."""
    lattice = enumerate_subgroups(g)
    for c, conjugates in zip(lattice.classes, class_conjugates(lattice)):
        assert c.order == c.mask.bit_count()
        cyclic = any(element_order(g, x) == c.order for x in mask_elements(c.mask))
        assert c.is_cyclic == (c.mask in g.cyclic_subgroups) == cyclic
        assert c.size == len(conjugates)
        assert c.mask == conjugates[0]
    rebuilt = lattice_from_dict(g, json.loads(json.dumps(lattice_to_dict(lattice, spec))))
    assert rebuilt.classes == lattice.classes


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5, "perm:(1 2 3 4 5 6 7),(1 2)(3 6)"])
def test_class_records_describe_the_least_conjugate(spec):
    assert_flat_records(group_from_spec(spec), spec)


@pytest.mark.parametrize("spec", ["S4", "SD16", "C2xQ8", A5])
def test_class_records_describe_the_least_conjugate_relabeled(spec):
    assert_flat_records(relabeled_group(spec, "flat"), spec)


def test_c2_6_lattice_retains_little_memory():
    """One flat record per class and no per-class conjugate tuple: the 2,825
    classes of C2^6, with class_of and the normalizers, stay under 1.15 MB
    traced (about 1.0 MB; with a Subgroup record and a conjugate tuple per
    class they took 1.3 MB).  The below index is left out of the count."""
    g = group_from_spec("C2xC2xC2xC2xC2xC2")
    gc.collect()
    tracemalloc.start()
    try:
        lattice = enumerate_subgroups(g)._replace(below=[])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(lattice.classes) == 2825
    assert retained < 1_150_000, retained


def test_resource_cap(monkeypatch):
    monkeypatch.setattr(lattice_module, "MAX_SUBGROUPS", 5)
    g = group_from_spec("S3")
    with pytest.raises(ResourceCapError, match="more than 5 subgroups"):
        enumerate_subgroups(g)


def test_conjugate_mask_is_group_action():
    g = group_from_spec("S4")
    lattice = enumerate_subgroups(g)
    m = lattice.classes[3].mask
    for a in range(0, 24, 5):
        for b in range(0, 24, 7):
            lhs = conjugate_mask(g, a, conjugate_mask(g, b, m))
            rhs = conjugate_mask(g, g.mul(a, b), m)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["S4", "D256", "C2xC2xC2xC2xC2xC2"])
def test_lattice_round_trip(spec):
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    rebuilt = lattice_from_dict(g, json.loads(json.dumps(lattice_to_dict(lattice, spec))))
    assert rebuilt is not None
    assert rebuilt == lattice  # all five fields, normalizers and below too
    for c in rebuilt.classes:
        assert closure_mask(g, c.generators) == c.mask


def test_lattice_from_dict_rejects_wrong_group():
    s4 = group_from_spec("S4")
    a4 = group_from_spec("A4")
    data = lattice_to_dict(enumerate_subgroups(s4), "S4")
    assert lattice_from_dict(a4, data) is None


def test_lattice_from_dict_rejects_tampering():
    g = group_from_spec("S3")
    data = lattice_to_dict(enumerate_subgroups(g), "S3")
    bad = {**data, "classes": data["classes"][:-1]}
    assert lattice_from_dict(g, bad) is None
    bad = {**data, "classes": [dict(c) for c in data["classes"]]}
    bad["classes"][1]["rep_bits_hex"] = "7"  # {0,1,2} is not a subgroup of S3
    assert lattice_from_dict(g, bad) is None
    for schema in (1, 3):
        assert lattice_from_dict(g, {**data, "schema": schema}) is None
    assert lattice_from_dict(g, {"schema": 2}) is None


def _with_rep_generators(data, index, gens):
    bad = {**data, "classes": [dict(c) for c in data["classes"]]}
    bad["classes"][index]["rep_generators"] = gens
    return bad


def test_lattice_from_dict_rejects_bad_generators():
    g = group_from_spec("S4")
    data = lattice_to_dict(enumerate_subgroups(g), "S4")
    assert lattice_from_dict(g, data) is not None
    top = len(data["classes"]) - 1
    top_gens = data["classes"][top]["rep_generators"]
    # each bad value is added to generators of the whole group, so only the
    # value check can reject it: -1 and True would index rows 23 and 1
    for bad_value in (24, -1, True, 1.0, "1", None):
        assert lattice_from_dict(g, _with_rep_generators(data, top, top_gens + [bad_value])) is None
    assert lattice_from_dict(g, _with_rep_generators(data, top, "0")) is None
    # generators of another subgroup
    assert lattice_from_dict(g, _with_rep_generators(data, 1, data["classes"][2]["rep_generators"])) is None
    assert lattice_from_dict(g, _with_rep_generators(data, top, data["classes"][top - 1]["rep_generators"])) is None


@pytest.mark.parametrize("spec", ["S4", "D8", "C2xC6"])
def test_lattice_from_dict_rejects_a_missing_cyclic_class(spec):
    g = group_from_spec(spec)
    data = lattice_to_dict(enumerate_subgroups(g), spec)
    assert data["classes"][1]["order"] == 2  # a cyclic class
    assert lattice_from_dict(g, {**data, "classes": data["classes"][:1] + data["classes"][2:]}) is None


def test_lattice_from_dict_rejects_a_repeated_class():
    g = group_from_spec("S4")
    data = lattice_to_dict(enumerate_subgroups(g), "S4")
    classes = data["classes"]
    assert lattice_from_dict(g, {**data, "classes": classes[:2] + classes[1:]}) is None


@pytest.mark.parametrize("spec", ["C2xC2", "C12", "C2xC4xC4"])
def test_lattice_from_dict_rejects_wrong_abelian_class_size(spec):
    g = group_from_spec(spec)
    data = lattice_to_dict(enumerate_subgroups(g), spec)
    assert lattice_from_dict(g, data) is not None
    for i in range(len(data["classes"])):
        bad = {**data, "classes": [dict(c) for c in data["classes"]]}
        bad["classes"][i]["conjugate_count"] = 2
        assert lattice_from_dict(g, bad) is None


def test_expand_class_abelian_is_the_mask_alone():
    g = group_from_spec("C2xC4")
    for m in enumerate_subgroups(g).class_of:
        assert _expand_class(g, m) == ({m: 0}, (1 << g.order) - 1)
