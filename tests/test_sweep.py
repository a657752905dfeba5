"""Catalog generation, check suites, sweep driver, summary serialization."""

import importlib
import inspect
import json
import pkgutil
import typing
from collections import Counter

import pytest

import artinx
from artinx import artin, sweep
from artinx.burnside import build_mark_table
from artinx.groups import group_from_spec, parse_group_spec, spec_order
from artinx.lattice import SubgroupClass, enumerate_subgroups
from artinx.sweep import (
    CHECK_NAMES,
    CONDUCTOR_ORDER_CAP,
    RANDOM_FAMILIES,
    SweepConfig,
    default_catalog,
    evaluate_group,
    random_families,
    run_sweep,
    summary_to_dict,
)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_small_order_exact():
    assert default_catalog(6) == ["C1", "C2", "C3", "C2xC2", "C4", "C5", "C6", "S3"]


def test_catalog_contains_every_family():
    catalog = default_catalog(64)
    for expected in (
        "C1", "C64", "C2xC32", "C8xC8", "C2xC2xC16", "C4xC4xC4",
        "D8", "D16", "D32", "D64", "Q8", "Q16", "Q32", "Q64",
        "SD16", "SD32", "SD64", "S3", "S4", "A4", "H3",
    ):
        assert expected in catalog


def test_catalog_excludes_out_of_range():
    catalog = default_catalog(64)
    for absent in ("SD8", "D128", "C65", "C2xC64"):
        assert absent not in catalog


def test_catalog_size_is_stable():
    assert len(default_catalog(64)) == 124


def test_catalog_sorted_by_order_then_name():
    catalog = default_catalog(64)
    keys = [(spec_order(parse_group_spec(s)), s) for s in catalog]
    assert keys == sorted(keys)
    assert len(set(catalog)) == len(catalog)


def test_catalog_abelian_entries_use_invariant_factors():
    # every multi-factor entry reads d1 x d2 (x d3) with d1 | d2 | d3
    for text in default_catalog(64):
        if "x" not in text or not text.startswith("C"):
            continue
        factors = [int(part[1:]) for part in text.split("x")]
        assert all(b % a == 0 for a, b in zip(factors, factors[1:])), text


def test_catalog_respects_order_bound():
    for text in default_catalog(32):
        assert spec_order(parse_group_spec(text)) <= 32


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_rejects_bad_max_order():
    with pytest.raises(ValueError):
        SweepConfig(max_order=0)
    with pytest.raises(ValueError):
        SweepConfig(max_order=300)


def test_config_rejects_bad_jobs():
    with pytest.raises(ValueError):
        SweepConfig(jobs=0)


# ---------------------------------------------------------------------------
# random families
# ---------------------------------------------------------------------------


def test_random_families_deterministic():
    first = list(random_families("S4", 11))
    second = list(random_families("S4", 11))
    assert first == second
    assert len(first) == RANDOM_FAMILIES


def test_random_families_depend_on_spec():
    a = list(random_families("S4", 11))
    b = list(random_families("D8", 11))
    assert a != b


def test_random_families_stay_in_range():
    for family in random_families("Q16", 7):
        assert all(0 <= i < 7 for i in family)


@pytest.mark.parametrize("spec, class_count, first_three", [
    ("S4", 11, [{0, 1, 2, 3, 4, 5, 6, 9}, {0, 1, 2, 3, 4, 6, 7, 8, 9, 10}, {10}]),
    ("D8", 8, [{3, 7}, {6, 7}, set(range(8))]),
])
def test_random_families_are_pinned_frozensets(spec, class_count, first_three):
    """The draws are frozensets of class indices, and the same draws as
    before families took that form: changing them changes the crossmethod
    suite's families and the traced family counts."""
    families = list(random_families(spec, class_count))
    assert all(type(f) is frozenset for f in families)
    assert families[:3] == first_three


# ---------------------------------------------------------------------------
# per-group evaluation
# ---------------------------------------------------------------------------


def test_evaluate_group_s3():
    row = evaluate_group("S3")
    assert row["spec"] == "S3"
    assert row["report"]["exponent"] == 2
    statuses = row["statuses"]
    assert statuses["crossmethod"] == statuses["cyclic"] == "ok"
    assert statuses["sylow"] == "report"
    assert row["failures"] == []
    assert any("mismatch (report-only)" in n["message"] for n in row["notes"])


def test_evaluate_group_statuses_follow_check_names():
    row = evaluate_group("S3")
    assert list(row["statuses"]) == list(CHECK_NAMES)


def test_every_computation_reads_its_group_from_the_lattice():
    """One handle: artin builds no lattice or table of marks, a report
    reads the group's order and prediction from the lattice it is given,
    and every suite takes (lattice, table, report), with no group or spec."""
    assert not hasattr(artin, "enumerate_subgroups")
    assert not hasattr(artin, "build_mark_table")
    q8 = group_from_spec("Q8")
    lattice = enumerate_subgroups(q8)
    report = artin.compute_exponent_report(lattice, build_mark_table(lattice), "Q8")
    assert (report.group, report.order, report.exponent) == ("Q8", 8, 2)
    assert report.prediction == artin.closed_form_predictor(q8)
    assert report.prediction[:2] == (2, "Q or D") and report.prediction.shape == "quaternion"
    assert list(inspect.signature(artin.compute_exponent_report).parameters) == \
        ["lattice", "table", "spec_text", "family", "extra_families"]
    assert list(inspect.signature(artin.sylow_reduction_report).parameters) == \
        ["lattice", "family", "exponent"]
    for name in CHECK_NAMES:
        suite = getattr(sweep, f"_check_{name}")
        assert list(inspect.signature(suite).parameters) == ["lattice", "table", "report"], name


def test_a_lattice_class_is_named_by_its_index():
    """One C-set routine, and one handle on a lattice class: count_C_sets
    and local_exponent take the class index h, artin keeps no second C-set
    routine, and no artinx function takes a SubgroupClass record, which a
    caller could take from another lattice or alter."""
    assert list(inspect.signature(artin.count_C_sets).parameters) == ["lattice", "h"]
    assert list(inspect.signature(artin.local_exponent).parameters) == \
        ["lattice", "h", "family"]
    assert not hasattr(artin, "c_set_reports")
    checked = 0
    for info in pkgutil.iter_modules(artinx.__path__):
        module = importlib.import_module(f"artinx.{info.name}")
        owned = [v for v in vars(module).values()
                 if getattr(v, "__module__", None) == module.__name__]
        functions = [v for v in owned if inspect.isfunction(v)]
        functions += [f for c in owned if inspect.isclass(c)
                      for f in vars(c).values() if inspect.isfunction(f)]
        for fn in functions:
            for name, hint in typing.get_type_hints(fn).items():
                assert hint is not SubgroupClass, (fn.__qualname__, name)
            checked += 1
    assert checked > 100


def test_lemma_failures_name_the_check_and_the_pair(monkeypatch):
    """Each lemma check that fails adds one failure, in check order, naming
    the check, the values it saw, and H and U: here one report for H = U =
    C2xC2 and U of order 2 breaks all four checks."""
    group = group_from_spec("C2xC2")
    full = (1 << group.order) - 1
    u_mask = group.cyclic_mask(1)
    report = artin.CSetReport(frozenset({full}), frozenset(), full, frozenset({full}))

    def fake_count(lattice, h):
        return [(u_mask, report)] if lattice.classes[h].mask == full else []

    monkeypatch.setattr(sweep, "count_C_sets", fake_count)
    row = evaluate_group("C2xC2")
    context = "H order 4 in C2xC2, U order 2"
    assert row["statuses"]["lemmas"] == "fail"
    assert row["failures"] == [
        {"group": "C2xC2", "check": "lemmas", "expected": expected, "got": got,
         "context": context}
        for expected, got in [
            ("counts congruent mod p", "1 vs 0"),
            ("normal members = extensions in H'", "set mismatch"),
            ("count prime to p iff H cyclic", "count 1, cyclic False"),
            ("odd count forces cyclic or nonabelian order 8", "count 1"),
        ]
    ]


def test_evaluate_group_method_disagreement(monkeypatch):
    real = artin.congruence_analysis

    def skewed(lattice, families):
        analyses = real(lattice, families)
        return [a._replace(exponent=a.exponent * 2) if family == artin.ALL_CYCLIC else a
                for family, a in zip(families, analyses)]

    monkeypatch.setattr(artin, "congruence_analysis", skewed)
    row = evaluate_group("S3")
    report = row["report"]
    assert report["method"] == "both"
    assert report["exponent"] == report["exponent_marks"] == 2
    assert report["exponent_congruence"] == 4
    assert report["methods_agree"] is False
    assert [p["constraint"] for p in report["binding_pairs"]] == [2]
    assert row["failures"] == [{
        "group": "S3", "check": "crossmethod", "expected": "4", "got": "2",
        "context": "family cyclic",
    }]
    assert list(row["statuses"]) == list(CHECK_NAMES)
    assert row["statuses"]["crossmethod"] == "fail"


def test_one_method1_walk_serves_the_report_and_the_random_families(monkeypatch):
    """Each row makes one method 1 call: the report's cyclic family, plus
    the crossmethod suite's 20 random families, drawn once per row."""
    calls, drawn = [], []
    real = artin.congruence_analysis
    real_families = sweep.random_families

    def counted(lattice, families):
        calls.append(len(families))
        return real(lattice, families)

    def families(*args):
        drawn.append(args)
        return real_families(*args)

    for module in (artin, sweep):
        monkeypatch.setattr(module, "congruence_analysis", counted, raising=False)
    monkeypatch.setattr(sweep, "random_families", families)
    row = evaluate_group("S4")
    assert row["statuses"]["crossmethod"] == "ok"
    assert calls == [1 + RANDOM_FAMILIES]
    assert drawn == [("S4", 11)]


@pytest.mark.parametrize("spec", ["S4", "C4xC8", "SD32"])
def test_random_family_analyses_equal_a_call_of_their_own(spec):
    """Riding on the report's walk changes no random family's analysis:
    the report carries each family with what a call for the random families
    alone gives."""
    lattice = enumerate_subgroups(group_from_spec(spec))
    families = list(random_families(spec, len(lattice.classes)))
    report = artin.compute_exponent_report(lattice, build_mark_table(lattice), spec,
                                           extra_families=families)
    assert report.extra_analyses == tuple(zip(families, artin.congruence_analysis(lattice, families)))
    assert "extra_analyses" not in json.dumps(artin.report_to_dict(report))


def test_disagreement_carries_the_random_family_analyses(monkeypatch):
    """The report a MethodDisagreement carries holds the random families'
    analyses, so the crossmethod suite still checks them on a failing row."""
    real = artin.congruence_analysis

    def skewed(lattice, families):
        analyses = real(lattice, families)
        # the report's own, cyclic family
        analyses[0] = analyses[0]._replace(exponent=analyses[0].exponent * 2)
        return analyses

    lattice = enumerate_subgroups(group_from_spec("S4"))
    families = list(random_families("S4", len(lattice.classes)))
    expected = tuple(zip(families, real(lattice, families)))
    monkeypatch.setattr(artin, "congruence_analysis", skewed)
    with pytest.raises(artin.MethodDisagreement) as err:
        artin.compute_exponent_report(lattice, build_mark_table(lattice), "S4",
                                      extra_families=families)
    assert err.value.report.extra_analyses == expected
    row = evaluate_group("S4")
    assert row["statuses"]["crossmethod"] == "fail"
    assert [f["context"] for f in row["failures"]] == ["family cyclic"]


def test_evaluate_group_disagreement_runs_the_report_once(monkeypatch):
    """The row holds the report the disagreement carries: the cyclic-family
    marks solve, the predictor and the Sylow report each run once, and both
    exponents and method 1's binding pairs stay in it."""
    calls = Counter()
    real_analysis = artin.congruence_analysis
    real_marks = artin.artin_exponent_marks
    real_predictor = artin.closed_form_predictor
    real_sylow = artin.sylow_reduction_report

    def skewed(lattice, families):
        analyses = real_analysis(lattice, families)
        return [a._replace(exponent=a.exponent * 2) if family == artin.ALL_CYCLIC else a
                for family, a in zip(families, analyses)]

    def marks(table, family=artin.ALL_CYCLIC):
        # S3 itself; the Sylow report also solves on its Sylow subgroups
        calls["marks"] += family == artin.ALL_CYCLIC and table.class_orders[-1] == 6
        return real_marks(table, family)

    def predictor(group):
        calls["predictor"] += 1
        return real_predictor(group)

    def sylow(*args):
        calls["sylow"] += 1
        return real_sylow(*args)

    monkeypatch.setattr(artin, "congruence_analysis", skewed)
    monkeypatch.setattr(artin, "artin_exponent_marks", marks)
    monkeypatch.setattr(artin, "closed_form_predictor", predictor)
    for module in (artin, sweep):
        monkeypatch.setattr(module, "sylow_reduction_report", sylow)
    row = evaluate_group("S3")
    assert calls == {"marks": 1, "predictor": 1, "sylow": 1}

    lattice = enumerate_subgroups(group_from_spec("S3"))
    with pytest.raises(artin.MethodDisagreement) as err:
        artin.compute_exponent_report(lattice, build_mark_table(lattice), "S3")
    carried = err.value.report
    assert (carried.exponent_congruence, carried.exponent_marks) == (4, 2)
    assert [p.constraint for p in carried.binding_pairs] == [2]
    assert carried.sylow is None
    carried.sylow = real_sylow(lattice, artin.ALL_CYCLIC, carried.exponent)
    assert row["report"] == artin.report_to_dict(carried)


@pytest.mark.parametrize("spec", ["D16", "Q16", "SD16", "C4xC4"])
def test_evaluate_group_runs_the_predictor_once(spec, monkeypatch):
    """The twogroup suite reads the report's prediction, shape included,
    instead of running the predictor or the 2-group classifier again, under
    either module's binding of them."""
    calls = Counter()
    real_predictor = artin.closed_form_predictor
    real_recognize = artin.recognize_2group

    def predictor(group):
        calls["predictor"] += 1
        return real_predictor(group)

    def recognize(group):
        calls["recognize"] += 1
        return real_recognize(group)

    for module in (artin, sweep):
        monkeypatch.setattr(module, "closed_form_predictor", predictor, raising=False)
        monkeypatch.setattr(module, "recognize_2group", recognize, raising=False)
    row = evaluate_group(spec)
    assert row["statuses"]["twogroup"] == "report"
    assert calls == {"predictor": 1, "recognize": 1}


def test_evaluate_group_skips_inapplicable_checks():
    row = evaluate_group("C6")
    assert (row["statuses"]["oddp"], row["statuses"]["twogroup"]) == ("skip", "skip")


def test_evaluate_group_conductor_cap():
    row = evaluate_group("C32")
    assert row["statuses"]["conductor"] == "skip"
    assert 32 > CONDUCTOR_ORDER_CAP


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def test_sweep_tiny_catalog_all_checks(monkeypatch):
    monkeypatch.setattr(sweep, "default_catalog", lambda max_order: ["C1", "C2", "S3", "Q8"])
    result = run_sweep(SweepConfig())
    assert result.ok
    assert [row["spec"] for row in result.rows] == ["C1", "C2", "S3", "Q8"]
    assert [row["report"]["exponent"] for row in result.rows] == [1, 1, 2, 2]


def test_sweep_oddp_examples():
    result = run_sweep(SweepConfig(max_order=27))
    assert result.ok
    by_spec = {row["spec"]: row for row in result.rows}
    for spec, exponent in (("C3xC3", 3), ("C3xC9", 9), ("C3xC3xC3", 9), ("H3", 9)):
        assert by_spec[spec]["statuses"]["oddp"] == "ok"
        assert by_spec[spec]["report"]["exponent"] == exponent


def test_sweep_parallel_rows_match_serial():
    serial = run_sweep(SweepConfig(max_order=16, jobs=1))
    parallel = run_sweep(SweepConfig(max_order=16, jobs=2))
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    assert strip(serial.rows) == strip(parallel.rows)


def test_sweep_pool_is_no_larger_than_the_catalog(monkeypatch):
    """--jobs 64 on the five groups to order 4 starts five workers, and
    --jobs 2 two; the fake pool records its size and maps in-process, so no
    process is started."""
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    assert len(run_sweep(SweepConfig(max_order=4, jobs=64)).rows) == 5
    run_sweep(SweepConfig(max_order=4, jobs=2))
    assert sizes == [5, 2]


def test_sweep_failure_surfaces(monkeypatch):
    def broken(lattice, table, report):
        return "fail", [{"group": report.group, "check": "cyclic", "expected": "1", "got": "9"}], []

    monkeypatch.setattr("artinx.sweep._check_cyclic", broken)
    result = run_sweep(SweepConfig(max_order=4))
    assert not result.ok
    assert result.failures[0]["got"] == "9"
    assert summary_to_dict(result)["ok"] is False


# ---------------------------------------------------------------------------
# summary serialization
# ---------------------------------------------------------------------------


def test_summary_shape_and_determinism():
    config = SweepConfig(max_order=12)
    first = summary_to_dict(run_sweep(config))
    second = summary_to_dict(run_sweep(config))
    assert json.dumps(first) == json.dumps(second)
    assert first["schema"] == 1
    assert first["checks"] == list(CHECK_NAMES)
    assert first["group_count"] == len(first["groups"]) == len(first["reports"])
    assert first["ok"] is True
    assert "timings" not in first


def test_summary_timings_opt_in():
    result = run_sweep(SweepConfig(max_order=6))
    summary = summary_to_dict(result, include_timings=True)
    assert list(summary["timings"]) == [row["spec"] for row in result.rows] == default_catalog(6)
    assert summary["group_count"] == len(result.rows)
    assert "S3" in summary["timings"] and summary["timings"]["S3"] >= 0
