"""In-process span tracing of artinx, from outside the package.

``Tracer.install`` replaces selected module-level functions of the artinx
modules with timing wrappers; ``Tracer.uninstall`` puts the originals back.
A function imported by name into another module (``from .groups import
build_group``) is replaced there too, so every call site is covered.  Each
call records one span (name, parent, start, end); spans are kept in memory
and written out at the end.  A layer's self time is the duration of its spans
minus the time their direct children cover.

Counters are kept at the same boundaries: builds, enumerations, solves,
congruence pairs, random families, and cache outcomes.  A cache outcome is
inferred from outside the program: ``cached_lattice`` returning without
calling ``enumerate_subgroups`` is a hit; enumerating with no cache file
present is a miss; enumerating although a cache file existed is a reject.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

# (module, function) -> the per-layer metric its self time is charged to
SPANS = {
    ("cli", "main"): "cli.self_s",
    ("groups", "build_group"): "groups.build_s",
    ("groups", "_validate_table"): "groups.validate_s",
    ("lattice", "enumerate_subgroups"): "lattice.enumerate_s",
    ("lattice", "cached_lattice"): "lattice.cache_load_s",
    ("lattice", "lattice_from_dict"): "lattice.cache_load_s",
    ("burnside", "build_mark_table"): "burnside.mark_table_s",
    ("burnside", "solve_membership"): "burnside.solve_s",
    ("artin", "congruence_analysis"): "artin.congruence_s",
    ("artin", "artin_exponent_marks"): "artin.marks_scan_s",
    ("artin", "compute_exponent_report"): "artin.report_s",
    ("artin", "count_C_sets"): "artin.count_c_sets_s",
    ("sweep", "_check_crossmethod"): "sweep.crossmethod_s",
    ("sweep", "_check_lemmas"): "sweep.lemmas_s",
    ("sweep", "_check_conductor"): "sweep.conductor_s",
    ("sweep", "_check_sylow"): "sweep.sylow_s",
    ("sweep", "_check_cyclic"): "sweep.other_checks_s",
    ("sweep", "_check_oddp"): "sweep.other_checks_s",
    ("sweep", "_check_twogroup"): "sweep.other_checks_s",
    ("sweep", "evaluate_group"): "sweep.dispatch_s",
    ("sweep", "run_sweep"): "sweep.dispatch_s",
}
# generators whose yields are counted (their bodies run in the caller's span)
YIELD_COUNTERS = {
    ("artin", "congruence_pairs"): "artin.pairs",
    ("sweep", "random_families"): "sweep.families_checked",
}
# calls counted per wrapped function, beside its span
CALL_COUNTERS = {
    "groups.build_group": "groups.builds",
    "lattice.enumerate_subgroups": "lattice.enumerations",
    "burnside.solve_membership": "burnside.solves",
    "artin.congruence_analysis": "artin.congruence_calls",
    # the cyclic family is checked once per crossmethod call, besides the random ones
    "sweep._check_crossmethod": "sweep.families_checked",
}
ROOT_SPAN = "trace.root"


class Tracer:
    """Span recorder and wrapper installer for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1], time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The span that encloses a whole traced run."""
        index = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(index)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        counter = CALL_COUNTERS.get(name)
        hook = self._count_lattice if name == "lattice.enumerate_subgroups" else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if counter:
                self.counts[counter] += 1
            if hook:
                hook(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[key] += 1
                yield item

        return wrapper

    def _count_lattice(self, lattice) -> None:
        self.counts["lattice.subgroups"] += lattice.subgroup_count()
        self.counts["lattice.classes"] += len(lattice.classes)

    def _cached_lattice(self, fn):
        from artinx.lattice import lattice_cache_path

        timed = self._timed("lattice.cached_lattice", fn)

        @wraps(fn)
        def wrapper(group, spec_text, cache_dir):
            if cache_dir is None:
                return timed(group, spec_text, cache_dir)
            existed = os.path.exists(lattice_cache_path(cache_dir, spec_text))
            before = self.counts["lattice.enumerations"]
            result = timed(group, spec_text, cache_dir)
            if self.counts["lattice.enumerations"] == before:
                self.counts["lattice.cache_hits"] += 1
            elif existed:
                self.counts["lattice.cache_rejects"] += 1
            else:
                self.counts["lattice.cache_misses"] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever an artinx module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "artinx" or n.startswith("artinx.")]
        replacements = {}  # id(original) -> (original, wrapper)
        for (module, name) in SPANS:
            fn = getattr(sys.modules[f"artinx.{module}"], name)
            if name == "cached_lattice":
                replacements[id(fn)] = fn, self._cached_lattice(fn)
            else:
                replacements[id(fn)] = fn, self._timed(f"{module}.{name}", fn)
        for (module, name), key in YIELD_COUNTERS.items():
            fn = getattr(sys.modules[f"artinx.{module}"], name)
            replacements[id(fn)] = fn, self._counted(key, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                original, wrapper = replacements.get(id(value), (None, None))
                if original is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def layer_times(self) -> dict:
        """Self time per layer metric; the root span's self time is the
        traced wall that no wrapped function covers."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        metric_of = {f"{m}.{f}": metric for (m, f), metric in SPANS.items()}
        metric_of[ROOT_SPAN] = "trace.unaccounted_s"
        times = Counter({metric: 0.0 for metric in metric_of.values()})
        for (name, parent, start, end), inner in zip(self.spans, covered):
            times[metric_of[name]] += end - start - inner
        return dict(times)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        payload = {
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [name, parent, round(start - origin, 7), round(end - origin, 7)]
                for name, parent, start, end in self.spans
            ],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
