"""perfbench's span tracer binds artinx functions by module and name, so
moving or renaming a traced function must fail here, not in a benchmark."""

import importlib.util
import os
import sys

import artinx.cli  # noqa: F401  (imports every module the tracer wraps)

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
