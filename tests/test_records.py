"""The records: named tuples that print, check and pickle as the classes
they replaced did, and the one record whose fields callers set."""

import pickle

import pytest

from artinx.artin import (
    CongruenceAnalysis,
    Prediction,
    closed_form_predictor,
    compute_exponent_report,
)
from artinx.burnside import MarkTable, NotIntegral, build_mark_table
from artinx.groups import (
    DirectProduct,
    GroupSpecError,
    Named,
    PermGenerators,
    group_from_spec,
    parse_group_spec,
    spec_to_text,
)
from artinx.lattice import SubgroupClass, enumerate_subgroups
from artinx.sweep import SweepConfig


@pytest.mark.parametrize("record, text", [
    (Named("SD", 16), "Named(family='SD', n=16)"),
    (parse_group_spec("C2xQ8"),
     "DirectProduct(factors=(Named(family='C', n=2), Named(family='Q', n=8)))"),
    (parse_group_spec("perm:(1 2 3),(1 2)"),
     "PermGenerators(generators=(((1, 2, 3),), ((1, 2),)))"),
    (NotIntegral(class_index=2, denominator=3), "NotIntegral(class_index=2, denominator=3)"),
    (enumerate_subgroups(group_from_spec("C4")).classes[1],
     "SubgroupClass(mask=5, order=2, is_cyclic=True, size=1, generators=(2,))"),
    (SweepConfig(max_order=16, jobs=2), "SweepConfig(max_order=16, jobs=2)"),
    (CongruenceAnalysis(2, ()), "CongruenceAnalysis(exponent=2, binding_pairs=())"),
    (build_mark_table(enumerate_subgroups(group_from_spec("C2"))),
     "MarkTable(rows=[((0,), (2,)), ((0, 1), (1, 1))], class_orders=[1, 2], "
     "class_sizes=[1, 1], class_cyclic=[True, True])"),
], ids=["Named", "DirectProduct", "PermGenerators", "NotIntegral", "SubgroupClass",
        "SweepConfig", "CongruenceAnalysis", "MarkTable"])
def test_repr_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("build, error, message", [
    (lambda: Named("X", 3), GroupSpecError, "unknown group family 'X'"),
    (lambda: Named("SD", 12), GroupSpecError, "semidihedral order must be a power of two >= 16, got 12"),
    (lambda: Named("C", 0), GroupSpecError, "cyclic order must be >= 1, got 0"),
    (lambda: Named("SD", 16)._replace(n=12), GroupSpecError,
     "semidihedral order must be a power of two >= 16, got 12"),
    (lambda: DirectProduct((Named("C", 2),)), GroupSpecError,
     "direct product needs at least two factors"),
    (lambda: parse_group_spec("C2xC2")._replace(factors=()), GroupSpecError,
     "direct product needs at least two factors"),
    (lambda: PermGenerators(()), GroupSpecError, "permutation spec needs at least one generator"),
    (lambda: SweepConfig(max_order=0), ValueError, "max_order must be between 1 and 256"),
    (lambda: SweepConfig(max_order=257), ValueError, "max_order must be between 1 and 256"),
    (lambda: SweepConfig(jobs=0), ValueError, "jobs must be at least 1"),
    (lambda: SweepConfig()._replace(jobs=0), ValueError, "jobs must be at least 1"),
    (lambda: Named("C", 4.0), TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: Named("C", 4)._replace(n=4.0), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: SweepConfig(max_order=4.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: SweepConfig()._replace(max_order=4.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: SweepConfig(jobs=2.0), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: SweepConfig()._replace(jobs=2.0), TypeError,
     "'float' object cannot be interpreted as an integer"),
], ids=["Named-family", "Named-rule", "Named-zero", "Named-replace", "DirectProduct",
        "DirectProduct-replace", "PermGenerators", "SweepConfig-order-low",
        "SweepConfig-order-high", "SweepConfig-jobs", "SweepConfig-replace",
        "Named-float", "Named-replace-float", "SweepConfig-order-float",
        "SweepConfig-replace-order-float", "SweepConfig-jobs-float",
        "SweepConfig-replace-jobs-float"])
def test_invalid_values_raise_the_same_errors(build, error, message):
    """Construction and _replace run the same checks, with the messages
    the records have always given."""
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_integer_fields_are_stored_as_ints():
    """An integer field holds an int, so a bool parameter is its value:
    Named("C", True) is C1, and its spec text parses back to it."""
    spec = Named("C", True)
    assert type(spec.n) is int and spec_to_text(spec) == "C1"
    assert parse_group_spec(spec_to_text(spec)) == spec
    assert type(Named("C", 4)._replace(n=True).n) is int
    config = SweepConfig(max_order=True, jobs=True)
    assert type(config.max_order) is type(config.jobs) is int


def test_replace_builds_a_checked_record_of_the_same_class():
    config = SweepConfig()._replace(max_order=16)
    assert type(config) is SweepConfig
    assert config == SweepConfig(max_order=16, jobs=1)
    assert Named("SD", 16)._replace(n=32) == Named("SD", 32)


@pytest.mark.parametrize("record", [
    Named("SD", 16),
    parse_group_spec("C2xS3"),
    SweepConfig(max_order=16, jobs=2),
], ids=lambda value: type(value).__name__)
def test_pickle_round_trip(record):
    """The spec and config records pickle and come back equal and of the
    same class.  run_sweep's pool sends spec strings, not these records, so
    this guards the records themselves, for a caller that pickles them."""
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_equal_masks_give_equal_subgroups():
    """Two enumerations of one group give equal, equally hashed class
    records, and classes with different masks differ."""
    group = group_from_spec("S3")
    a, b = enumerate_subgroups(group).classes, enumerate_subgroups(group).classes
    assert a == b and list(map(hash, a)) == list(map(hash, b))
    assert type(a[1]) is SubgroupClass and a[1] != a[0]


def test_predictions_never_share_a_details_dict():
    """details has no default to share: each prediction is built with a
    dict of its own, on every branch."""
    with pytest.raises(TypeError):
        Prediction(1, "cyclic")
    predictions = [closed_form_predictor(group_from_spec(spec))
                   for spec in ("C4", "C6", "S3", "A4", "C3xC3", "Q8", "D8", "SD16", "C2xC4")]
    assert {p.branch for p in predictions} == {
        "cyclic", "not a p-group", "odd p-group", "Q or D", "SD", "2-group other"}
    assert len({id(p.details) for p in predictions}) == len(predictions)
    predictions[0].details["added"] = 1
    assert all("added" not in p.details for p in predictions[1:])


def test_mutable_records_take_new_values_but_no_new_fields():
    """ExponentReport, whose sylow field the sylow suite sets, is the one
    mutable record, and slotted; method 1's analysis and the mark table are
    named tuples, changed only by _replace."""
    lattice = enumerate_subgroups(group_from_spec("S3"))
    report = compute_exponent_report(lattice, build_mark_table(lattice), "S3")
    report.sylow = ()
    report.exponent_congruence *= 2
    assert (report.sylow, report.exponent_congruence) == ((), 4)
    assert not report.methods_agree
    assert not hasattr(report, "__dict__")
    with pytest.raises(AttributeError):
        report.unknown_field = 1
    analysis = CongruenceAnalysis(2, ())
    table = build_mark_table(enumerate_subgroups(group_from_spec("S3")))
    for record, field in ((analysis, "exponent"), (table, "rows")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    doubled = analysis._replace(exponent=analysis.exponent * 2)
    assert type(doubled) is CongruenceAnalysis
    assert doubled == CongruenceAnalysis(4, ()) != analysis == CongruenceAnalysis(2, ())
    shrunk = table._replace(rows=table.rows[:1])
    assert type(shrunk) is MarkTable and (len(shrunk.rows), len(table.rows)) == (1, 4)
