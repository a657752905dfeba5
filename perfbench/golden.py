"""Golden outputs for the artinx benchmark, and the checks against them.

The golden files under ``perfbench/golden/`` were generated once, from a
known-good commit, by running this file as a script from the repository root:

    python3 perfbench/golden.py

It runs the real CLI serially with timings off and stores

- ``sweep<N>.json`` for N in 64 and 128: the SHA-256 of the default sweep
  stdout, of the summary written by ``--json``, and of each catalog row
  (its ``groups`` entry together with its ``reports`` entry);
- ``compute/<group>.json``: the exact stdout of ``compute --group <group>
  --json`` for every group of the compute panel.

Every benchmark run compares its outputs against these files.  A sweep run
with ``--timings`` (needed for per-row times) is compared after the timing
column and the ``timings`` key are stripped, so a ``--jobs 2`` sweep must
reproduce the serial golden bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SWEEP_ORDERS = (64, 128)
PANEL = (
    "S4",
    "D64",
    "C4xC4xC4",
    "S4xC2xC2",
    "D128",
    "C4xC8xC8",
    "D256",
    "C6xC6xC6",
    "C2xC2xC2xC2xC2xC2",
)
# a ``--timings`` sweep appends "  " plus an 8-wide field to the header and rows
_TIMING_HEADER = "   seconds"
_TIMING_CELL = re.compile(r"  [ 0-9.]{7}[0-9]\Z")


def cli_env() -> dict:
    """Environment for CLI children: the checkout's sources, no cache."""
    env = dict(os.environ)
    env.pop("ARTINX_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def row_digests(summary: dict) -> dict:
    """Digest of each catalog row of a sweep summary, keyed by group spec."""
    return {
        entry["group"]: sha256(
            json.dumps([entry, report], sort_keys=True, separators=(",", ":")).encode()
        )
        for entry, report in zip(summary["groups"], summary["reports"])
    }


def strip_sweep_timings(stdout: bytes, summary_text: str, rows: int):
    """Undo ``--timings`` on a sweep's stdout and JSON summary.

    Returns (stdout, json_text) as the same sweep would have written them
    without timings, or None when the timing column is not where expected.
    """
    lines = stdout.decode().split("\n")
    if len(lines) < rows + 2 or not lines[1].endswith(_TIMING_HEADER):
        return None
    lines[1] = lines[1][: -len(_TIMING_HEADER)]
    for i in range(2, rows + 2):
        if not _TIMING_CELL.search(lines[i]):
            return None
        lines[i] = lines[i][:-10]
    summary = json.loads(summary_text)
    if summary.pop("timings", None) is None:
        return None
    return "\n".join(lines).encode(), json.dumps(summary, indent=2) + "\n"


def load_sweep(max_order: int) -> dict:
    with open(GOLDEN_DIR / f"sweep{max_order}.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_compute() -> dict:
    return {g: (GOLDEN_DIR / "compute" / f"{g}.json").read_bytes() for g in PANEL}


def sweep_mismatches(golden: dict, returncode: int, stdout: bytes, summary_text: str) -> set:
    """Groups whose row differs from the golden sweep, or that report a failure.

    When the exit code is not 0 or a whole-output digest differs, but no
    single row does, every group counts as mismatched.
    """
    everything = set(golden["rows"])
    try:
        summary = json.loads(summary_text)
    except json.JSONDecodeError:
        return everything
    stripped = strip_sweep_timings(stdout, summary_text, golden["group_count"])
    if stripped is None:
        return everything
    rows = row_digests(summary)
    bad = {g for g in everything if rows.get(g) != golden["rows"][g]}
    bad |= {f["group"] for f in summary.get("failures", ())}
    if not bad and (
        returncode
        or sha256(stripped[0]) != golden["stdout_sha256"]
        or sha256(stripped[1].encode()) != golden["json_sha256"]
    ):
        return everything
    return bad


def _generate() -> None:
    """Write the golden files from the checkout's current sources."""
    env = cli_env()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    (GOLDEN_DIR / "compute").mkdir(parents=True, exist_ok=True)
    cli = [sys.executable, "-m", "artinx.cli"]
    for max_order in SWEEP_ORDERS:
        summary_path = work / f"golden-sweep{max_order}.json"
        stdout = subprocess.run(
            cli + ["sweep", "--max-order", str(max_order), "--json", str(summary_path)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True,
        ).stdout
        summary_bytes = summary_path.read_bytes()
        summary = json.loads(summary_bytes)
        record = {
            "command": f"artinx sweep --max-order {max_order} --json FILE",
            "group_count": summary["group_count"],
            "stdout_sha256": sha256(stdout),
            "json_sha256": sha256(summary_bytes),
            "rows": row_digests(summary),
        }
        path = GOLDEN_DIR / f"sweep{max_order}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        summary_path.unlink()
    for group in PANEL:
        stdout = subprocess.run(
            cli + ["compute", "--group", group, "--json"],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True,
        ).stdout
        (GOLDEN_DIR / "compute" / f"{group}.json").write_bytes(stdout)


if __name__ == "__main__":
    _generate()
