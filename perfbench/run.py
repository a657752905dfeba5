"""Benchmark for artinx: two catalog sweeps and a cold/warm compute panel.

Run from the repository root:

    python3 perfbench/run.py --workload sweep64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads, each a closed loop with one client (the next CLI call starts when
the previous one has ended):

- ``sweep64``: ``artinx sweep --max-order 64``, serial, 124 groups.
- ``sweep128-jobs2``: ``artinx sweep --max-order 128 --jobs 2``, 245 groups.
- ``compute-cold``: ``artinx compute --group G --json`` for each group of the
  panel, no lattice cache.
- ``compute-warm``: the same calls with ``--cache DIR``; DIR is filled during
  set-up, so every timed call is a cache hit.

``BENCHMARK.json`` gates all but ``compute-cold``.  A cold pass takes about
18 s, so a run holds one or two, and the median call of the 9-group panel is
then one call of one group: too few samples for a steady ``group_p50_s``.  The
cold path still shows in ``compute-warm``'s ``setup_s``, which includes one
cold pass that fills the cache.

A run repeats its unit (one sweep, or one pass over the panel in an order
shuffled by ``--seed``) until ``--seconds`` have passed, at least once.

``--trace 0`` runs every call as ``python -m artinx.cli ...`` in a child
process and reports the end-to-end metrics.  ``--trace 1`` runs one unit
in-process through ``artinx.cli.main`` twice, untraced and then with span
wrappers around each layer's functions (see ``spans.py``), and reports the
per-layer metrics: self time per layer, counts, and the tracing overhead.
Metric names and units are in ``BENCHMARK.json``; what each one measures, and
the layer-to-workload map, in ``metrics.json``.

Every output is compared with the golden outputs (see ``golden.py``).  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, stamped with
versions, ``nproc``, commit and load averages, and for traced runs the span
file, are written under ``.perfbench_out/``.  The exit code is 2 when an
output differs from the golden one, and 1 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import golden
from spans import ROOT_SPAN, Tracer

ROOT = golden.ROOT
WORK = ROOT / ".perfbench_work"  # lattice cache and sweep JSON, wiped every run
OUT = ROOT / ".perfbench_out"  # run records and span files
BENCHMARK = ROOT / "BENCHMARK.json"  # metric names, units, directions and bounds
SETUP_IMPORTS = 5  # fresh interpreters importing artinx.cli per run
CLI = [sys.executable, "-m", "artinx.cli"]


@dataclass(frozen=True)
class Workload:
    name: str
    max_order: int = 0  # 0 for the compute panel
    jobs: int = 1
    cache: bool = False

    def sweep_argv(self, jobs: int, summary: Path) -> list[str]:
        return ["sweep", "--max-order", str(self.max_order), "--jobs", str(jobs),
                "--timings", "--json", str(summary)]

    def compute_argv(self, group: str) -> list[str]:
        argv = ["compute", "--group", group, "--json"]
        return argv + ["--cache", str(WORK / "cache")] if self.cache else argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep64", max_order=64),
        Workload("sweep128-jobs2", max_order=128, jobs=2),
        Workload("compute-cold"),
        Workload("compute-warm", cache=True),
    )
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, no golden files)."""


@dataclass
class Tally:
    """Outputs checked against the golden ones, counted per group or call."""

    attempted: int = 0
    failed: int = 0

    def record(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


@dataclass
class Call:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: bytes


def run_child(argv: list[str]) -> Call:
    """Run one child to completion; its rusage covers its own children too."""
    started = time.perf_counter()
    with open(WORK / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=golden.cli_env(),
                                stdout=subprocess.PIPE, stderr=err)
        try:
            stdout = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    return Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode, stdout)


# ---------------------------------------------------------------------------
# untraced units, each CLI call in a child process
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    unit_walls: list = field(default_factory=list)
    unit_cpus: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # per-group seconds
    groups: int = 0
    peak_rss_mb: float = 0.0


def sweep_child(wl: Workload, reference: dict, tally: Tally, out: Measured) -> None:
    summary_path = WORK / "sweep.json"
    summary_path.unlink(missing_ok=True)
    call = run_child(CLI + wl.sweep_argv(wl.jobs, summary_path))
    text = summary_path.read_text() if summary_path.exists() else ""
    bad = golden.sweep_mismatches(reference, call.returncode, call.stdout, text)
    tally.record(reference["group_count"], len(bad))
    if not bad:
        out.samples += json.loads(text)["timings"].values()
    out.unit_walls.append(call.wall)
    out.unit_cpus.append(call.cpu)
    out.groups += reference["group_count"]
    out.peak_rss_mb = max(out.peak_rss_mb, call.rss_mb)


def compute_pass(wl: Workload, order: list, reference: dict, tally: Tally,
                 out: Measured) -> None:
    wall = cpu = 0.0
    for group in order:
        call = run_child(CLI + wl.compute_argv(group))
        ok = call.returncode == 0 and call.stdout == reference[group]
        tally.record(1, 0 if ok else 1)
        out.samples.append(call.wall)
        out.peak_rss_mb = max(out.peak_rss_mb, call.rss_mb)
        wall += call.wall
        cpu += call.cpu
    out.unit_walls.append(wall)
    out.unit_cpus.append(cpu)
    out.groups += len(order)


def measure(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Set up, then repeat the workload's unit for the given seconds."""
    imports = []
    for _ in range(SETUP_IMPORTS):
        call = run_child([sys.executable, "-c", "import artinx.cli"])
        if call.returncode:
            raise BenchError("a fresh interpreter cannot import artinx.cli")
        imports.append(call.wall)
    setup_s = statistics.median(imports)
    rng = random.Random(seed)
    if wl.max_order:
        reference = golden.load_sweep(wl.max_order)
    else:
        reference = golden.load_compute()
    if wl.cache:
        # a miss and a cache write per group; checked, but not a timed unit
        started = time.perf_counter()
        compute_pass(wl, list(golden.PANEL), reference, tally, Measured())
        setup_s += time.perf_counter() - started

    out = Measured()
    started = time.perf_counter()
    while not out.unit_walls or time.perf_counter() - started < seconds:
        if wl.max_order:
            sweep_child(wl, reference, tally, out)
        else:
            compute_pass(wl, rng.sample(golden.PANEL, len(golden.PANEL)),
                         reference, tally, out)

    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(out.unit_walls),
        "groups_per_s": out.groups / sum(out.unit_walls),
        "cpu_s": statistics.median(out.unit_cpus),
        "group_p50_s": statistics.median(out.samples) if out.samples else float("nan"),
        "peak_rss_mb": out.peak_rss_mb,
    }
    extras = {"units": len(out.unit_walls), "group_samples": len(out.samples),
              "setup_import_s": imports, "unit_wall_s": out.unit_walls,
              "group_s": out.samples}
    # a percentile is reported only with at least 10 samples beyond it
    if len(out.samples) >= 100:
        extras["group_p90_s"] = statistics.quantiles(out.samples, n=10)[-1]
    return {"metrics": metrics, "extras": extras}


# ---------------------------------------------------------------------------
# the traced run, in-process
# ---------------------------------------------------------------------------


def call_main(cli, argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue().encode()


@functools.cache
def import_cli():
    """Import artinx.cli from the checkout; the module and its first import time."""
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    try:
        import artinx.cli as cli
    except ImportError as err:
        raise BenchError(f"cannot import artinx.cli: {err}") from None
    return cli, time.perf_counter() - started


def traced(wl: Workload, seed: int, tally: Tally, spans_path: Path) -> dict:
    """One untraced and one traced unit in this process; per-layer metrics."""
    os.environ.pop("ARTINX_CACHE_DIR", None)
    cli, import_s = import_cli()
    tracer = Tracer()
    stdout_bytes = 0
    extra = {}

    if wl.max_order:
        reference = golden.load_sweep(wl.max_order)
        summary_path = WORK / "sweep.json"

        def unit(jobs: int) -> tuple[float, list]:
            nonlocal stdout_bytes
            started = time.perf_counter()
            code, stdout = call_main(cli, wl.sweep_argv(jobs, summary_path))
            wall = time.perf_counter() - started
            text = summary_path.read_text()
            bad = golden.sweep_mismatches(reference, code, stdout, text)
            tally.record(reference["group_count"], len(bad))
            stdout_bytes = len(stdout)
            return wall, list(json.loads(text)["timings"].values())

        untraced_wall, rows = unit(wl.jobs)
        busy = sum(rows)
        extra["sweep.worker_busy_s"] = busy
        extra["sweep.worker_idle_s"] = wl.jobs * untraced_wall - busy if wl.jobs > 1 else 0.0
        # the traced sweep is serial; compare it with the untraced busy time
        untraced_s = untraced_wall if wl.jobs == 1 else busy
        tracer.install()
        try:
            with tracer.root():
                unit(1)
        finally:
            tracer.uninstall()
    else:
        reference = golden.load_compute()
        rng = random.Random(seed)

        def unit(order) -> float:
            nonlocal stdout_bytes
            stdout_bytes = 0
            started = time.perf_counter()
            for group in order:
                code, stdout = call_main(cli, wl.compute_argv(group))
                tally.record(1, 0 if code == 0 and stdout == reference[group] else 1)
                stdout_bytes += len(stdout)
            return time.perf_counter() - started

        if wl.cache:
            unit(golden.PANEL)  # fill the cache
        untraced_s = unit(rng.sample(golden.PANEL, len(golden.PANEL)))
        tracer.install()
        try:
            with tracer.root():
                unit(rng.sample(golden.PANEL, len(golden.PANEL)))
        finally:
            tracer.uninstall()

    tracer.write(spans_path)
    times = tracer.layer_times()
    root = next(s for s in tracer.spans if s[0] == ROOT_SPAN)
    trace_wall = root[3] - root[2]
    values = dict(times)
    values.update(tracer.counts)
    values.update(extra)
    values.update({
        "cli.stdout_bytes": stdout_bytes,
        "startup.import_s": import_s,
        "trace.wall_s": trace_wall,
        "trace.layer_self_s": trace_wall - times["trace.unaccounted_s"],
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": trace_wall - untraced_s,
        "trace.spans": len(tracer.spans),
    })
    metrics = {name: values.get(name, 0) for name in units_of(trace=True)}
    return {"metrics": metrics, "extras": {"spans_file": str(spans_path.relative_to(ROOT))}}


# ---------------------------------------------------------------------------
# stamps, reporting, entry point
# ---------------------------------------------------------------------------


def steal_s() -> float | None:
    """Seconds the host gave this machine's CPUs to others, as far as now."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def stamp() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "sources_sha256": sources.hexdigest(),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "artinx" / "cli.py").is_file():
        raise BenchError(f"no artinx sources under {ROOT / 'src'}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "stamp": stamp(), "loadavg_before": os.getloadavg()}
    steal_before = steal_s()
    try:
        if trace:
            spans_path = OUT / f"{wl.name}-seed{seed}.spans.json.gz"
            record.update(traced(wl, seed, tally, spans_path))
        else:
            record.update(measure(wl, seed, seconds, tally))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    steal_after = steal_s()
    record["steal_s"] = None if steal_before is None else steal_after - steal_before
    record.update(attempted=tally.attempted, failed=tally.failed,
                  correct=tally.failed == 0)
    path = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def units_of(trace: bool) -> dict:
    metrics = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def print_record(record: dict) -> None:
    s = record["stamp"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"# python {s['python']}  numpy {s['numpy']}  nproc {s['nproc']}  "
          f"commit {s['commit']}  sources {s['sources_sha256'][:16]}")
    print("# loadavg before " + " ".join(f"{x:.2f}" for x in record["loadavg_before"])
          + "  after " + " ".join(f"{x:.2f}" for x in record["loadavg_after"])
          + (f"  cpu steal {record['steal_s']:.2f} s" if record["steal_s"] is not None else ""))
    for name, unit in units_of(bool(record["trace"])).items():
        print(f"{name:24s} {record['metrics'][name]:>14.6g} {unit}")
    extras = record["extras"]
    if not record["trace"]:
        n = extras["group_samples"]
        if "group_p90_s" in extras:
            print(f"{'group_p90_s':24s} {extras['group_p90_s']:>14.6g} s  ({n} samples)")
        else:
            print(f"{'group_p90_s':24s} {'n/a':>14s}    ({n} samples; needs at least 100)")
    rate = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"{'error_rate':24s} {rate:>14.6g}    "
          f"({record['failed']} failed of {record['attempted']} attempted)")


def result_line(records: list) -> str:
    """The result object; with several workloads, metric names get a prefix."""
    units = units_of(bool(records[0]["trace"]))
    prefix = len(records) > 1
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}." if prefix else "") + n: {"value": r["metrics"][n], "unit": u}
            for r in records for n, u in units.items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print_record(record)
            records.append(record)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(result_line(records))
    return 0 if all(r["correct"] for r in records) else 2


if __name__ == "__main__":
    sys.exit(main())
