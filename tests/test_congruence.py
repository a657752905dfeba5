"""Method 1 against plain references: the congruence pairs, the pair skip
of the one walk that serves every family of a call, the per-pair coset tally
and the per-call memo it walks into, and the per-H C-set path of the lemma
suite with the grouped bracket rows it reads H'(U) from."""

import pickle
import random
from collections import Counter
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artinx import artin
from artinx import lattice as lattice_module
from artinx.artin import (
    ALL_CYCLIC,
    _coset_tally,
    bracket_preimage,
    bracket_rows,
    compute_exponent_report,
    congruence_analysis,
    congruence_pairs,
    count_C_sets,
    family_members,
)
from artinx.burnside import build_mark_table
from artinx.groups import OrderCapError, as_prime_power, group_from_spec
from artinx.lattice import (
    IncompleteLattice,
    cached_lattice,
    closure_mask,
    enumerate_subgroups,
    mask_elements,
)
from artinx.sweep import default_catalog, random_families

from oracles import (
    cyclic_coset_count_p_group,
    cyclic_extensions,
    is_normal_in,
    perm_specs,
    reference_bracket_preimage,
    reference_c_set_reports,
    reference_congruence_analysis,
    reference_congruence_pairs,
    reference_coset_count,
    reference_pair_profile,
    relabeled,
    standalone_c_set_report,
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
    families = [ALL_CYCLIC, *islice(random_families(spec, len(lattice.classes)), 3)]
    for family in families:
        assert list(congruence_pairs(lattice, family)) == reference_congruence_pairs(
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
    assert list(congruence_pairs(loaded)) == list(congruence_pairs(fresh))


@pytest.mark.parametrize("spec", default_catalog(64))
def test_roots_mask_count_matches_element_scan(spec):
    """The cyclic-family count read from the shared coset profile, for V a
    p-group, on every U <= V normal in V with U cyclic and V a class
    representative, against the element scan of cyclic_coset_count_p_group."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    members = family_members([c.is_cyclic for c in lattice.classes], ALL_CYCLIC)
    checked = 0
    for cls in lattice.classes:
        vm = cls.mask
        if as_prime_power(cls.order) is None:
            continue
        for um in lattice.class_of:
            if um == vm or um & vm != um or lattice.class_of[um] not in members:
                continue
            if not (g.is_abelian or is_normal_in(g, um, vm)):
                continue
            expected = cyclic_coset_count_p_group(g, um, vm)
            tally = _coset_tally(lattice, {}, um, vm)
            assert sum(n for cls, n in tally if cls in members) == expected
            checked += 1
    assert checked or g.order == 1


def v_mask(lattice, pair):
    return lattice.classes[pair.v_class].mask


def pair_profile(lattice, memo, um, vm):
    """How many cosets of V/U extend U into each lattice class, read off a
    memo that has counted the pair (U, V): U itself, and the recorded
    extensions of U that lie inside V."""
    profile = Counter({lattice.class_of[um]: 1})
    for extension, cls, generating in memo[um][1]:
        if extension & vm == extension:
            profile[cls] += generating
    return dict(profile)


def assert_profiles_match_reference(spec, g, lattice):
    """Every pair tallied once in one call's order, through one memo: the
    pair's profile is the per-coset reference's and its tally's, and its
    count, for the cyclic family and three random ones, summed from that one
    tally, is the reference count."""
    cyclic = [c.is_cyclic for c in lattice.classes]
    families = [ALL_CYCLIC, *islice(random_families(spec, len(lattice.classes)), 3)]
    members = [family_members(cyclic, family) for family in families]
    memo = {}
    for pair in congruence_pairs(lattice):
        um, vm = pair.u_mask, v_mask(lattice, pair)
        tally = _coset_tally(lattice, memo, um, vm)
        for m in members:
            expected = reference_coset_count(g, lattice, um, vm, m)
            assert sum(n for cls, n in tally if cls in m) == expected, (um, vm)
        profile = pair_profile(lattice, memo, um, vm)
        assert profile == reference_pair_profile(g, lattice, um, vm), (um, vm)
        tallied = Counter()
        for cls, n in tally:
            tallied[cls] += n
        assert dict(tallied) == profile, (um, vm)
        assert sum(profile.values()) == pair.index


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5])
def test_pair_profile_matches_per_coset_reference(spec):
    g = group_from_spec(spec)
    assert_profiles_match_reference(spec, g, enumerate_subgroups(g))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_pair_profile_matches_per_coset_reference_relabeled(spec):
    g = relabeled_group(spec)
    assert_profiles_match_reference(spec, g, enumerate_subgroups(g))


@settings(max_examples=30, deadline=None)
@given(perm_specs)
def test_pair_profile_matches_per_coset_reference_on_random_perm_specs(spec):
    try:
        g = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    assert_profiles_match_reference(spec, g, enumerate_subgroups(g))


class _CountedLookups(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def phi(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def record_memos(monkeypatch):
    """Wrap artin._coset_tally to keep each memo it is given, by id, with
    the pairs tallied through it and the class lookups each tally made."""
    memos = {}
    original = artin._coset_tally

    def recorded(lattice, memo, u_mask, v_mask):
        _, pairs, lookups = memos.setdefault(id(memo), (memo, [], []))
        pairs.append((u_mask, v_mask))
        before = lattice.class_of.lookups
        tally = original(lattice, memo, u_mask, v_mask)
        lookups.append(lattice.class_of.lookups - before)
        return tally

    monkeypatch.setattr(artin, "_coset_tally", recorded)
    return memos


def assert_walked_once(g, lattice, memo, pairs):
    """For each U of the pairs counted through the memo: the cosets walked
    are those of the V paired with U and lie in N(U); each cyclic <U, v>
    with v walked is recorded once, with its class and the phi(|<U, v> : U|)
    cosets that generate it; so every walked coset is counted exactly once."""
    assert set(memo) == {um for um, _ in pairs}
    for um, (walked, extensions) in memo.items():
        inside = um
        for u, vm in pairs:
            if u == um:
                inside |= vm
        assert walked == inside and not walked & ~lattice.normalizers[um]
        masks = [extension for extension, _, _ in extensions]
        assert len(set(masks)) == len(masks), um
        assert set(masks) == {
            closure_mask(g, mask_elements(um) + [v]) for v in mask_elements(walked & ~um)
        }
        for extension, cls, generating in extensions:
            assert cls == lattice.class_of[extension]
            assert generating == phi(extension.bit_count() // um.bit_count())
        assert 1 + sum(generating for *_, generating in extensions) == (
            walked.bit_count() // um.bit_count())


@pytest.mark.parametrize("spec", ["C8", "C9", "C2xC4", "C2xC2xC2", "D8", "Q16", "S4", "C3xC6"])
def test_pair_profile_extends_each_cyclic_subgroup_once(spec, monkeypatch):
    """Each call of method 1 counts through one memo of its own, in which
    every coset of N(U)/U is walked at most once and each cyclic C/U is
    recorded once, however many pairs with that U read it: besides U's
    class for each pair, one class is looked up per recorded extension."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    lattice = lattice._replace(class_of=_CountedLookups(lattice.class_of))
    memos = record_memos(monkeypatch)
    families = [ALL_CYCLIC, *islice(random_families(spec, len(lattice.classes)), 3)]
    for call in (lambda: list(congruence_pairs(lattice)),
                 lambda: congruence_analysis(lattice, families)):
        memos.clear()
        call()
        (memo, pairs, lookups), = memos.values()
        recorded = sum(len(extensions) for _, extensions in memo.values())
        assert sum(lookups) == len(pairs) + recorded
        assert_walked_once(g, lattice, memo, pairs)


@pytest.mark.parametrize(
    "spec", default_catalog(32) + NONABELIAN_P_SUBGROUPS + [S5, "A5xC2", "relabeled:S4xC2"])
def test_count_c_sets_alone_matches_per_h_path(spec):
    """The lattice-free reference on one U gives the report of count_C_sets,
    which reads H's commutators over the lattice's generators of H only and
    normality off the lattice's normalizers, where the reference reads both
    from commutators with every element of H; count_C_sets covers exactly
    the cyclic U that the reference accepts, and its extensions are the
    element scan's."""
    if spec.startswith("relabeled:"):
        g = relabeled_group(spec.removeprefix("relabeled:"))
    else:
        g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    for i, h in enumerate(lattice.classes):
        pp = as_prime_power(h.order)
        if pp is None:
            continue
        reports = dict(count_C_sets(lattice, i))
        for um in sorted({g.cyclic_masks[x] for x in mask_elements(h.mask)}):
            if um in reports:
                assert standalone_c_set_report(g, h.mask, um) == reports[um]
                assert reports[um].c_masks == cyclic_extensions(g, h.mask, um, pp[0])
            else:
                with pytest.raises(ValueError, match="U must be normal in H"):
                    standalone_c_set_report(g, h.mask, um)


def test_count_c_sets_raises_when_the_lattice_lacks_h_prime():
    """H'(U) is proved a subgroup by its lookup in the lattice, so a lattice
    that lacks it raises instead of returning reports: for U = 1 in D8,
    H'(U) is the center."""
    g = group_from_spec("D8")
    lattice = enumerate_subgroups(g)
    top = len(lattice.classes) - 1
    center = dict(count_C_sets(lattice, top))[1].h_prime_mask
    assert center.bit_count() == 2
    del lattice.class_of[center]
    with pytest.raises(IncompleteLattice, match="missing from the lattice"):
        count_C_sets(lattice, top)


def test_coset_tally_raises_when_the_lattice_lacks_an_extension():
    """Every <U, v> a tally reaches is looked up in the lattice, so one it
    lacks raises the named error, not a KeyError: for U = 1 in S3 and v a
    3-cycle, <U, v> is the normal C3."""
    g = group_from_spec("S3")
    lattice = enumerate_subgroups(g)
    c3 = next(c.mask for c in lattice.classes if c.order == 3)
    del lattice.class_of[c3]
    with pytest.raises(IncompleteLattice, match=f"<U, v> = {c3:#x} is missing"):
        artin._coset_tally(lattice, {}, 1, c3)


@pytest.mark.parametrize("spec", ["S4xC2xC2", "C2xC2xC2xC2", S5])
def test_calls_keep_nothing_on_the_lattice(spec):
    """Method 1 is a function of the lattice: a call leaves every field of
    the lattice as it found it, and a second call gives equal analyses and
    pairs."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    families = [ALL_CYCLIC, *islice(random_families(spec, len(lattice.classes)), 3)]
    before = pickle.dumps(tuple(lattice))
    first = congruence_analysis(lattice, families)
    pairs = list(congruence_pairs(lattice))
    assert pickle.dumps(tuple(lattice)) == before
    assert congruence_analysis(lattice, families) == first
    assert list(congruence_pairs(lattice)) == pairs
    assert pickle.dumps(tuple(lattice)) == before


@pytest.mark.parametrize("spec", default_catalog(64) + NONABELIAN_P_SUBGROUPS)
def test_c_set_reports_in_ambient_group_match_standalone_subgroup(spec):
    """The lemma suite reads count_C_sets's per-H reports in the ambient
    group, from the lattice's generators of H; they are the lattice-free
    reference's reports of H as a standalone table, with every element as a
    generator, for each cyclic U normal in H, mapped back through its
    elements, and their extensions inside H' are the element scan's."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    for i, h in enumerate(lattice.classes):
        pp = as_prime_power(h.order)
        if pp is None:
            continue
        sub, elems = subgroup_as_group(g, h.mask)

        def ambient(mask):
            return sum(1 << elems[x] for x in mask_elements(mask))

        def ambient_set(masks):
            return frozenset(ambient(m) for m in masks)

        expected = []
        for um in sorted({sub.cyclic_masks[x] for x in range(sub.order)}):
            if not is_normal_in(sub, um, (1 << sub.order) - 1):
                continue
            r = standalone_c_set_report(sub, (1 << sub.order) - 1, um)
            expected.append((ambient(um), ambient_set(r.c_masks), ambient_set(r.c_prime_masks),
                             ambient(r.h_prime_mask), ambient_set(r.c_of_h_prime_masks)))
        reports = count_C_sets(lattice, i)
        got = [
            (um, r.c_masks, r.c_prime_masks, r.h_prime_mask, r.c_of_h_prime_masks)
            for um, r in reports
        ]
        assert got == expected, (spec, h.mask)
        for um, r in reports:
            assert r.c_of_h_prime_masks == cyclic_extensions(g, r.h_prime_mask, um, pp[0])


def every_pair_analysis(g, lattice, family):
    """The exponent and binding pairs of congruence_analysis, from a walk
    over every pair of congruence_pairs with none skipped."""
    exponent, best = 1, {}
    for pair in congruence_pairs(lattice, family):
        if exponent % pair.constraint:
            exponent = lcm(exponent, pair.constraint)
            best[as_prime_power(pair.constraint)[0]] = pair
    return exponent, tuple(best[p] for p in sorted(best))


def assert_one_walk_matches_each_family(spec, g):
    """One call for the cyclic family and the sweep's 20 random families
    gives each family what a call of its own gives, and what a walk over
    every pair with none skipped gives."""
    lattice = enumerate_subgroups(g)
    families = [ALL_CYCLIC, *random_families(spec, len(lattice.classes))]
    batched = congruence_analysis(lattice, families)
    assert len(batched) == len(families)
    for family, analysis in zip(families, batched):
        assert congruence_analysis(lattice, [family]) == [analysis], (spec, family)
        exponent, binding = every_pair_analysis(g, lattice, family)
        assert (analysis.exponent, analysis.binding_pairs) == (exponent, binding), (spec, family)


@pytest.mark.parametrize("spec", default_catalog(64) + [S5, "A5xC2"])
def test_pair_skip_keeps_exponent_and_binding_pairs(spec):
    assert_one_walk_matches_each_family(spec, group_from_spec(spec))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_pair_skip_keeps_exponent_and_binding_pairs_relabeled(spec):
    assert_one_walk_matches_each_family(spec, relabeled_group(spec))


@settings(max_examples=30, deadline=None)
@given(perm_specs)
def test_pair_skip_keeps_exponent_and_binding_pairs_on_random_perm_specs(spec):
    try:
        g = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    assert_one_walk_matches_each_family(spec, g)


def count_tallies(monkeypatch):
    """Count calls of artin._coset_tally, by (U, V)."""
    calls = Counter()
    original = artin._coset_tally

    def counted(lattice, memo, u_mask, v_mask):
        calls[u_mask, v_mask] += 1
        return original(lattice, memo, u_mask, v_mask)

    monkeypatch.setattr(artin, "_coset_tally", counted)
    return calls


@pytest.mark.parametrize("spec", ["C4xC4xC4", "S4xC2xC2", "SD32"])
def test_kept_pairs_count_every_skeleton_pair_once(spec, monkeypatch):
    """congruence_pairs, which the audit path lists, yields the reference
    scan's pairs and counts each of them exactly once; the report counts
    only the skipping walk's, and leaves the pairs to the audit."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    reference = tuple(reference_congruence_pairs(g, lattice))
    calls = count_tallies(monkeypatch)
    pairs = tuple(congruence_pairs(lattice))
    assert pairs == reference
    every_pair = Counter((pair.u_mask, v_mask(lattice, pair)) for pair in pairs)
    assert max(every_pair.values()) == 1
    assert calls == every_pair
    calls.clear()
    congruence_analysis(lattice, [ALL_CYCLIC])
    skipping = Counter(calls)
    calls.clear()
    report = compute_exponent_report(lattice, build_mark_table(lattice), spec)
    assert calls == skipping
    assert "pairs" not in artin.report_to_dict(report)


def test_skipping_counts_fewer_pairs_than_the_walk_yields(monkeypatch):
    g = group_from_spec("C4xC4xC4")
    lattice = enumerate_subgroups(g)
    every_pair = len(tuple(congruence_pairs(lattice)))
    calls = count_tallies(monkeypatch)
    congruence_analysis(lattice, [ALL_CYCLIC])
    assert 0 < sum(calls.values()) < every_pair
    assert max(calls.values()) == 1


@pytest.mark.parametrize("spec", ["C4xC8xC8", "S4xC2xC2", "SD32", S5])
def test_one_call_tallies_each_pair_at_most_once(spec, monkeypatch):
    """A call for the cyclic family and the sweep's 20 random families
    tallies each (U, V) pair at most once, however many of the 21 families
    need it, and only pairs that some family needs."""
    g = group_from_spec(spec)
    lattice = enumerate_subgroups(g)
    families = [ALL_CYCLIC, *random_families(spec, len(lattice.classes))]
    assert len(families) == 21
    every_pair = {(pair.u_mask, v_mask(lattice, pair)) for pair in congruence_pairs(lattice)}
    calls = count_tallies(monkeypatch)
    congruence_analysis(lattice, families)
    assert calls and max(calls.values()) == 1
    assert set(calls) <= every_pair


@pytest.mark.parametrize("max_order, tallies", [(64, 6143), (128, 17896)])
def test_catalog_tallies_a_pinned_number_of_pairs(max_order, tallies, monkeypatch):
    """Over the catalog, one call per group for the cyclic family and the
    sweep's 20 random families tallies a pinned number of pairs, each at
    most once: a weaker skip fails here by count."""
    calls, total = count_tallies(monkeypatch), 0
    for spec in default_catalog(max_order):
        lattice = enumerate_subgroups(group_from_spec(spec))
        calls.clear()
        congruence_analysis(lattice, [ALL_CYCLIC, *random_families(spec, len(lattice.classes))])
        assert max(calls.values(), default=1) == 1, spec
        total += sum(calls.values())
    assert total == tallies


def assert_tallies_match_reference(spec, g):
    """A call for the cyclic family alone, with the sweep's 20 random
    families, or with 39 of them skips a pair when its index divides the
    gcd of the running exponents, and skips a family for the pair when its
    index divides that family's exponent.  It tallies exactly the (U, V)
    pairs that the walk listing the needy families afresh at every pair
    tallies, and gives the same analyses: a weaker skip would show as extra
    tallies, a stronger one as a wrong exponent or binding pair."""
    lattice = enumerate_subgroups(g)
    # the sweep's 20 families, then 19 drawn for a second seed text
    drawn = [*random_families(spec, len(lattice.classes)),
             *islice(random_families(f"{spec}, again", len(lattice.classes)), 19)]
    for count in (0, 20, 39):
        families = [ALL_CYCLIC, *drawn[:count]]
        with pytest.MonkeyPatch.context() as mp:
            calls = count_tallies(mp)
            analyses = congruence_analysis(lattice, families)
            tallied = Counter(calls)
            calls.clear()
            assert reference_congruence_analysis(lattice, families) == analyses
        assert calls == tallied and max(tallied.values(), default=1) == 1, (spec, count)


@pytest.mark.parametrize("spec", ["C4xC8xC8", "S4xC2xC2", "SD32", S5])
def test_gcd_skip_tallies_the_per_pair_walks_pairs(spec):
    assert_tallies_match_reference(spec, group_from_spec(spec))


@pytest.mark.parametrize("spec", ["S4", "SD16"])
def test_gcd_skip_tallies_the_per_pair_walks_pairs_relabeled(spec):
    assert_tallies_match_reference(spec, relabeled_group(spec))


@settings(max_examples=30, deadline=None)
@given(perm_specs)
def test_gcd_skip_tallies_the_per_pair_walks_pairs_on_random_perm_specs(spec):
    try:
        g = group_from_spec(spec)
    except OrderCapError:
        assume(False)
    assert_tallies_match_reference(spec, g)


def assert_grouped_rows_match_per_h_scan(g):
    """bracket_rows groups the h by their commutator row, one entry for an
    abelian group, and bracket_preimage, one step per distinct row, gives
    the per-h scan's preimage: of every subgroup U of G, over G's rows with
    its generators, and of every subgroup U of H, over the rows of each
    class representative H with the lattice's generators of H.  The lemma
    suite's reports are those of the scan over all of H's cyclic subgroups
    for each U."""
    lattice = enumerate_subgroups(g)
    everything = range(g.order)
    rows = bracket_rows(g, everything, g.generators)
    assert sum(hs.bit_count() for hs in rows.values()) == g.order
    assert (len(rows) == 1) == g.is_abelian
    for u_mask in lattice.class_of:
        assert bracket_preimage(rows, u_mask) == reference_bracket_preimage(
            g, everything, g.generators, u_mask)
    for i, (h, inside) in enumerate(zip(lattice.classes, lattice.below)):
        elements, generators = mask_elements(h.mask), h.generators
        rows = bracket_rows(g, elements, generators)
        for u_mask in inside:
            assert bracket_preimage(rows, u_mask) == reference_bracket_preimage(
                g, elements, generators, u_mask), (h.mask, u_mask)
        if as_prime_power(h.order) is not None:
            assert count_C_sets(lattice, i) == reference_c_set_reports(lattice, i), h.mask


@pytest.mark.parametrize("spec", default_catalog(64) + [A5, S5])
def test_grouped_bracket_rows_match_per_h_scan(spec):
    assert_grouped_rows_match_per_h_scan(group_from_spec(spec))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(default_catalog(64) + ["S4xC2xC2", A5]), st.randoms(use_true_random=False))
def test_grouped_bracket_rows_match_per_h_scan_relabeled(spec, rng):
    g = group_from_spec(spec)
    assert_grouped_rows_match_per_h_scan(
        relabeled(g, [0] + rng.sample(range(1, g.order), g.order - 1)))
