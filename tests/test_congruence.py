"""Method 1's shared per-lattice work against plain references: the
congruence-pair skeleton, the pair skip, the coset profile that every family
reads, and the per-H C-set path of the lemma suite."""

import random
from collections import Counter

import pytest

from artinx import artin
from artinx import lattice as lattice_module
from artinx.artin import (
    ALL_CYCLIC,
    _coset_count,
    _pair_profile,
    artin_exponent_congruence,
    _congruence_skeleton,
    c_set_reports,
    compute_exponent_report,
    congruence_analysis,
    congruence_pairs,
    count_C_sets,
    family_vector,
)
from artinx.groups import as_prime_power, group_from_spec
from artinx.lattice import cached_lattice, closure_mask, enumerate_subgroups, mask_elements
from artinx.sweep import default_catalog, random_families

from oracles import (
    cyclic_coset_count_p_group,
    cyclic_extensions,
    is_normal_in,
    reference_congruence_pairs,
    reference_pair_profile,
    relabeled,
    subgroup_as_group,
)

A5 = "perm:(1 2 3 4 5),(1 2 3)"
S5 = "perm:(1 2 3 4 5),(1 2)"
# groups outside the default catalog with non-abelian p-subgroups: H5 itself,
# Q8xC2xC2 and SD16xC2, and the Sylow 2-subgroups of S5 and S4xC2xC2
NONABELIAN_P_SUBGROUPS = ["H5", "Q8xC2xC2", "SD16xC2", "S5", "S4xC2xC2"]


def relabeled_group(spec):
    g = group_from_spec(spec)
    rng = random.Random(f"skeleton:{spec}")
    return relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1))


def assert_pairs_match_reference(spec, g, lattice):
    families = [ALL_CYCLIC, *random_families(spec, len(lattice.classes), 3)]
    for family in families:
        assert list(congruence_pairs(g, lattice, family)) == reference_congruence_pairs(
            g, lattice, family
        ), f"{spec}, family {family}"


@pytest.mark.parametrize("spec", default_catalog(32) + [A5, S5])
def test_skeleton_pairs_match_reference_scan(spec):
    g = group_from_spec(spec)
    assert_pairs_match_reference(spec, g, enumerate_subgroups(g))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_skeleton_pairs_match_reference_scan_relabeled(spec):
    g = relabeled_group(spec)
    assert_pairs_match_reference(spec, g, enumerate_subgroups(g))


@pytest.mark.parametrize("spec", ["S4", "D16", "Q16", "S4xC2xC2", A5])
def test_skeleton_pairs_match_reference_scan_cache_loaded(spec, tmp_path, monkeypatch):
    g = group_from_spec(spec)
    fresh = cached_lattice(g, spec, str(tmp_path))  # miss: enumerates, writes the file

    def no_enumeration(group):
        raise AssertionError("the cache entry was not used")

    monkeypatch.setattr(lattice_module, "enumerate_subgroups", no_enumeration)
    loaded = cached_lattice(g, spec, str(tmp_path))
    assert_pairs_match_reference(spec, g, loaded)
    assert list(congruence_pairs(g, loaded)) == list(congruence_pairs(g, fresh))


@pytest.mark.parametrize("spec", default_catalog(64))
def test_roots_mask_count_matches_element_scan(spec):
    """The cyclic-family count read from the shared coset profile, for V a
    p-group, on every U <= V normal in V with U cyclic and V a class
    representative, against the element scan of cyclic_coset_count_p_group."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    members = family_vector([c.representative.is_cyclic for c in lattice.classes], ALL_CYCLIC)
    checked = 0
    for cls in lattice.classes:
        vm = cls.representative.mask
        if as_prime_power(cls.representative.order) is None:
            continue
        for um in lattice.class_of:
            if um == vm or um & vm != um or not members[lattice.class_of[um]]:
                continue
            if not (g.is_abelian or is_normal_in(g, um, vm)):
                continue
            expected = cyclic_coset_count_p_group(g, um, vm)
            assert _coset_count(g, lattice, um, vm, members) == expected
            checked += 1
    assert checked or g.order == 1


def assert_profiles_match_reference(g, lattice):
    for _, vm, um, _, index in _congruence_skeleton(g, lattice):
        profile = _pair_profile(g, lattice, um, vm)
        assert profile == reference_pair_profile(g, lattice, um, vm), (um, vm)
        assert sum(profile.values()) == index


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5])
def test_pair_profile_matches_per_coset_reference(spec):
    g = group_from_spec(spec)
    assert_profiles_match_reference(g, enumerate_subgroups(g))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_pair_profile_matches_per_coset_reference_relabeled(spec):
    g = relabeled_group(spec)
    assert_profiles_match_reference(g, enumerate_subgroups(g))


class _CountedLookups(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("spec", ["C8", "C9", "C2xC4", "C2xC2xC2", "D8", "Q16", "S4", "C3xC6"])
def test_pair_profile_extends_each_cyclic_subgroup_once(spec):
    """The profile looks up one class for U and one per nontrivial cyclic
    subgroup <U, v> / U of V/U, however many cosets generate it."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    lattice.class_of = _CountedLookups(lattice.class_of)
    for _, vm, um, _, _ in _congruence_skeleton(g, lattice):
        extensions = {
            closure_mask(g, mask_elements(um) + [v]) for v in mask_elements(vm & ~um)
        }
        before = lattice.class_of.lookups
        _pair_profile(g, lattice, um, vm)
        assert lattice.class_of.lookups - before == 1 + len(extensions), (um, vm)


@pytest.mark.parametrize("spec", default_catalog(32) + NONABELIAN_P_SUBGROUPS)
def test_count_c_sets_alone_matches_per_h_path(spec):
    """count_C_sets on one U gives the report of the per-H path, which reads
    H's commutators over the lattice's generators of H only; the per-H path
    covers exactly the cyclic U that count_C_sets accepts, and its
    extensions are the element scan's."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    for cls in lattice.classes:
        h = cls.representative
        pp = as_prime_power(h.order)
        if pp is None:
            continue
        reports = dict(c_set_reports(lattice, h.mask))
        for um in sorted({g.cyclic_mask(x) for x in h.elements}):
            if um in reports:
                assert count_C_sets(g, h.mask, um) == reports[um]
                assert reports[um].c_masks == cyclic_extensions(g, h.mask, um, pp[0])
            else:
                with pytest.raises(ValueError, match="U must be normal in H"):
                    count_C_sets(g, h.mask, um)


def test_c_set_reports_raise_when_the_lattice_lacks_h_prime():
    """H'(U) is proved a subgroup by its lookup in the lattice, so a lattice
    that lacks it raises instead of yielding a report: for U = 1 in D8,
    H'(U) is the center."""
    g = group_from_spec("D8")
    lattice = enumerate_subgroups(g)
    full = (1 << g.order) - 1
    center = next(r.h_prime_mask for um, r in c_set_reports(lattice, full) if um == 1)
    assert center.bit_count() == 2
    del lattice.class_of[center]
    with pytest.raises(RuntimeError, match="missing from the lattice"):
        list(c_set_reports(lattice, full))


def test_pairs_are_found_once_per_lattice(monkeypatch):
    """A second and a third family reuse the first one's pairs: no more
    normality tests, under the skeleton's test or by conjugating masks."""
    spec = "S4xC2xC2"
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    calls = {"normalizes": 0, "conjugate_mask": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(artin, "_normalizes", counted("normalizes", artin._normalizes))
    monkeypatch.setattr(
        lattice_module, "conjugate_mask", counted("conjugate_mask", lattice_module.conjugate_mask)
    )
    first, second, third = random_families(spec, len(lattice.classes), 3)
    artin_exponent_congruence(g, lattice, first)
    assert calls["normalizes"] > 0
    after_first = dict(calls)
    artin_exponent_congruence(g, lattice, second)
    artin_exponent_congruence(g, lattice, third)
    assert calls == after_first


@pytest.mark.parametrize("spec", default_catalog(64) + NONABELIAN_P_SUBGROUPS)
def test_c_set_reports_in_ambient_group_match_standalone_subgroup(spec):
    """The lemma suite reads the per-H reports in the ambient group, from the
    lattice's generators of H; they are count_C_sets's reports of H as a
    standalone table, with every element as a generator, for each cyclic U
    normal in H, mapped back through its elements, and their extensions
    inside H' are the element scan's."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    for cls in lattice.classes:
        h = cls.representative
        pp = as_prime_power(h.order)
        if pp is None:
            continue
        sub, elems = subgroup_as_group(g, h.mask)

        def ambient(mask):
            return sum(1 << elems[x] for x in mask_elements(mask))

        def ambient_set(masks):
            return frozenset(ambient(m) for m in masks)

        expected = []
        for um in sorted({sub.cyclic_mask(x) for x in range(sub.order)}):
            if not is_normal_in(sub, um, (1 << sub.order) - 1):
                continue
            r = count_C_sets(sub, (1 << sub.order) - 1, um)
            expected.append((ambient(um), ambient_set(r.c_masks), ambient_set(r.c_prime_masks),
                             ambient(r.h_prime_mask), ambient_set(r.c_of_h_prime_masks)))
        reports = list(c_set_reports(lattice, h.mask))
        got = [
            (um, r.c_masks, r.c_prime_masks, r.h_prime_mask, r.c_of_h_prime_masks)
            for um, r in reports
        ]
        assert got == expected, (spec, h.mask)
        for um, r in reports:
            assert r.c_of_h_prime_masks == cyclic_extensions(g, r.h_prime_mask, um, pp[0])


@pytest.mark.parametrize("spec", default_catalog(64))
def test_pair_skip_keeps_exponent_and_binding_pairs(spec):
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    for family in [ALL_CYCLIC, *random_families(spec, len(lattice.classes), 3)]:
        skipping = congruence_analysis(g, lattice, family)
        counting = congruence_analysis(g, lattice, family, keep_pairs=True)
        assert skipping.exponent == counting.exponent, family
        assert skipping.binding_pairs == counting.binding_pairs, family


def count_coset_counts(monkeypatch):
    """Count calls of artin._coset_count, by (U, V)."""
    calls = Counter()
    original = artin._coset_count

    def counted(group, lattice, u_mask, v_mask, members):
        calls[u_mask, v_mask] += 1
        return original(group, lattice, u_mask, v_mask, members)

    monkeypatch.setattr(artin, "_coset_count", counted)
    return calls


@pytest.mark.parametrize("spec", ["C4xC4xC4", "S4xC2xC2", "SD32"])
def test_kept_pairs_count_every_skeleton_pair_once(spec, monkeypatch):
    """congruence_pairs and the audit path (keep_pairs) count, and so assert
    on, every pair of the skeleton exactly once."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    skeleton = _congruence_skeleton(g, lattice)
    every_pair = Counter((u_mask, vm) for _, vm, u_mask, _, _ in skeleton)
    assert max(every_pair.values()) == 1
    calls = count_coset_counts(monkeypatch)
    analysis = congruence_analysis(g, lattice, keep_pairs=True)
    assert calls == every_pair
    assert len(analysis.pairs) == len(skeleton)
    calls.clear()
    report = compute_exponent_report(g, spec, lattice=lattice, include_pairs=True)
    assert calls == every_pair
    assert report.pairs == analysis.pairs
    calls.clear()
    assert len(list(congruence_pairs(g, lattice))) == len(skeleton)
    assert calls == every_pair


def test_skipping_counts_fewer_pairs_than_the_skeleton_holds(monkeypatch):
    g = group_from_spec("C4xC4xC4")
    lattice = enumerate_subgroups(g)
    skeleton = _congruence_skeleton(g, lattice)
    calls = count_coset_counts(monkeypatch)
    congruence_analysis(g, lattice)
    assert 0 < sum(calls.values()) < len(skeleton)
    assert max(calls.values()) == 1
