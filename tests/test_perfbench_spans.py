"""perfbench's span tracer binds artinx functions by module and name, so
moving or renaming a traced function must fail here, not in a benchmark."""

import importlib.util
import os
import sys

from artinx import cli  # imports every module the tracer wraps

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    spans = load_spans()
    traced = list(spans.SPANS) + list(spans.YIELD_COUNTERS)
    originals = {key: getattr(sys.modules[f"artinx.{key[0]}"], key[1]) for key in traced}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(sys.modules[f"artinx.{module}"], name) is not original, name
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(sys.modules[f"artinx.{module}"], name) is original, name


def test_tracer_counts_an_enumeration_and_the_cache_outcomes(tmp_path, capsys):
    """The tracer's hooks read the lattice records: the first cached compute
    of S4 enumerates 30 subgroups in 11 classes and counts as a cache miss,
    and the second one loads the entry and counts as a hit."""
    tracer = load_spans().Tracer()
    argv = ["compute", "--group", "S4", "--json", "--cache", str(tmp_path)]
    tracer.install()
    try:
        assert cli.main(argv) == 0
        first = tracer.counts.copy()
        assert cli.main(argv) == 0
        second = tracer.counts.copy()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    keys = ("lattice.enumerations", "lattice.subgroups", "lattice.classes",
            "lattice.cache_misses", "lattice.cache_hits", "lattice.cache_rejects")
    assert [first[key] for key in keys] == [1, 30, 11, 1, 0, 0]
    assert [second[key] for key in keys] == [1, 30, 11, 1, 1, 0]
