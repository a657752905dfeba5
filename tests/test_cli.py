"""Exit codes, human output, JSON schemas, cache behavior of the CLI."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from artinx import cli
from artinx.artin import MethodDisagreement
from artinx.groups import group_from_spec
from artinx.lattice import enumerate_subgroups, lattice_cache_path, lattice_to_dict


def run_cli(argv, capsys):
    """Invoke main() in process; fold argparse SystemExit into the code."""
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_q8(capsys):
    code, out, _ = run_cli(["compute", "--group", "Q8"], capsys)
    assert code == 0
    assert "exponent: 2" in out
    assert "methods agree: yes" in out


def test_compute_cyclic_group_is_one(capsys):
    code, out, _ = run_cli(["compute", "--group", "C12"], capsys)
    assert code == 0
    assert "exponent: 1" in out


def test_compute_audit_lists_pairs(capsys):
    code, out, _ = run_cli(["compute", "--group", "S3", "--audit"], capsys)
    assert code == 0
    assert "congruence audit (3 pairs, * = binding):" in out
    assert " * U=C3*1 normal in V=N6*1: index 2, count 1, constraint 2" in out
    starred = [line for line in out.splitlines() if line.startswith(" * ")]
    assert len(starred) == 1  # exactly one binding pair
    assert "sylow comparison (report-only):" in out
    assert "MISMATCH" in out  # the S3 Sylow-2 comparison


def test_compute_single_method(capsys):
    code, out, _ = run_cli(["compute", "--group", "S4", "--method", "congruence"], capsys)
    assert code == 0
    assert "method: congruence" in out
    assert "marks" not in out
    code, out, _ = run_cli(["compute", "--group", "S4", "--method", "marks"], capsys)
    assert code == 0
    assert "method: marks" in out
    assert "binding" not in out


def test_compute_json_schema(capsys):
    code, out, _ = run_cli(["compute", "--group", "Q8", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["exponent"] == 2
    assert report["methods_agree"] is True
    assert report["prediction"]["branch"] == "Q or D"
    assert "pairs" not in report  # audit-only section


def test_compute_json_audit_includes_pairs(capsys):
    code, out, _ = run_cli(["compute", "--group", "S3", "--json", "--audit"], capsys)
    report = json.loads(out)
    assert code == 0
    assert len(report["pairs"]) == 3
    assert len(report["sylow"]) == 2


def test_compute_explicit_family(capsys):
    code, out, _ = run_cli(
        ["compute", "--group", "S3", "--family-classes", "0,2", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["family"] == "classes:0,2"


def test_compute_output_is_deterministic(capsys):
    first = run_cli(["compute", "--group", "SD32", "--json", "--audit"], capsys)
    second = run_cli(["compute", "--group", "SD32", "--json", "--audit"], capsys)
    assert first == second


def test_compute_congruence_rejects_bad_family_without_pairs(capsys):
    # C1 has no congruence pairs, so the family must be checked up front
    code, _, err = run_cli(
        ["compute", "--group", "C1", "--method", "congruence", "--family-classes", "5"],
        capsys,
    )
    assert code == 1
    assert "family class index 5 out of range 0..0" in err


def _child_env() -> dict:
    """The environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_numpy_out():
    probe = "import sys, artinx.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_compute_disagreement_exits_two(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise MethodDisagreement("S3", "cyclic", 1, 2)

    monkeypatch.setattr(cli, "compute_exponent_report", explode)
    code, _, err = run_cli(["compute", "--group", "S3"], capsys)
    assert code == 2
    assert "congruence=1" in err and "marks=2" in err


# ---------------------------------------------------------------------------
# exit code 1: usage and spec errors
# ---------------------------------------------------------------------------


def test_bad_group_spec_exits_one(capsys):
    code, _, err = run_cli(["compute", "--group", "NOPE"], capsys)
    assert code == 1
    assert "malformed" in err


@pytest.mark.parametrize(
    "bad, message",
    [
        ("C0", "cyclic order must be >= 1, got 0"),
        ("D7", "dihedral order must be even and >= 4, got 7"),
        ("Q12", "quaternion order must be a power of two >= 8, got 12"),
        ("SD8", "semidihedral order must be a power of two >= 16, got 8"),
        ("S0", "symmetric degree must be >= 1, got 0"),
        ("A0", "alternating degree must be >= 1, got 0"),
        ("H4", "Heisenberg parameter must be prime, got 4"),
        ("S6", "S6 has order 720, exceeding the cap of 256"),
        ("C2xH7", "H7 has order 343, exceeding the cap of 256"),
    ],
)
def test_bad_family_token_stderr_pinned(bad, message, capsys):
    code, out, err = run_cli(["compute", "--group", bad], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_oversized_group_exits_one(capsys):
    code, _, err = run_cli(["compute", "--group", "C999"], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "bad, message",
    [
        ("S2000", "S parameter of 4 digits exceeds the order cap of 256"),
        ("A20000", "A parameter of 5 digits exceeds the order cap of 256"),
        ("C" + "7" * 5000, "C parameter of 5000 digits exceeds the order cap of 256"),
        ("x".join(["C2"] * 15000), "x".join(["C2"] * 9) + " has order 512, exceeding the cap of 256"),
        ("S999", "S999 has order of 2565 digits, exceeding the cap of 256"),
    ],
    ids=["S2000", "A20000", "C-5000-digits", "C2-15000-factors", "S999"],
)
def test_oversized_spec_stderr_pinned(bad, message, capsys):
    """A parameter longer than the cap is refused by its length, and a
    product at its first prefix over the cap, before an order too long to
    print is formed."""
    code, out, err = run_cli(["compute", "--group", bad], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_leading_zeros_do_not_count_towards_parameter_length(capsys):
    padded = run_cli(["compute", "--group", "C2xSD" + "0" * 5000 + "16"], capsys)
    assert padded == run_cli(["compute", "--group", "C2xSD16"], capsys)
    assert padded[0] == 0


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run_cli(["compute"], capsys)
    assert code == 1
    assert "--group" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(["bogus"], capsys)
    assert code == 1
    assert "invalid choice" in err


def test_no_subcommand_exits_one(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 1


def test_bad_family_classes_exit_one(capsys):
    code, _, err = run_cli(["compute", "--group", "S3", "--family-classes", "0,9"], capsys)
    assert code == 1
    assert "out of range" in err
    code, _, err = run_cli(["compute", "--group", "S3", "--family-classes", "1,x"], capsys)
    assert code == 1
    assert "comma-separated" in err


def test_family_flags_mutually_exclusive(capsys):
    code, _, err = run_cli(
        ["compute", "--group", "S3", "--family", "cyclic", "--family-classes", "0"], capsys
    )
    assert code == 1
    assert "not allowed with" in err


def test_bad_sweep_checks_exit_one(capsys):
    code, _, err = run_cli(["sweep", "--checks", "bogus"], capsys)
    assert code == 1
    assert "unknown checks" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "compute" in out and "marks" in out and "sweep" in out


# ---------------------------------------------------------------------------
# marks
# ---------------------------------------------------------------------------


def test_marks_c2_table(capsys):
    code, out, _ = run_cli(["marks", "--group", "C2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "table of marks: C2 (order 2, 2 classes)"
    assert lines[1].split() == ["C1*1", "C2*1"]
    assert lines[2].split() == ["C1*1", "2", "0"]
    assert lines[3].split() == ["C2*1", "1", "1"]


def test_marks_trivial_group(capsys):
    code, out, _ = run_cli(["marks", "--group", "C1"], capsys)
    assert code == 0
    assert "order 1, 1 class)" in out
    assert out.splitlines()[-1].split() == ["C1*1", "1"]


def test_marks_s3_json(capsys):
    code, out, _ = run_cli(["marks", "--group", "S3", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["marks"] == [[6, 0, 0, 0], [3, 1, 0, 0], [2, 0, 2, 0], [1, 1, 1, 1]]
    assert data["class_cyclic"] == [True, True, True, False]


def test_marks_labels_flag_noncyclic_classes(capsys):
    _, out, _ = run_cli(["marks", "--group", "D8"], capsys)
    assert "N4*1" in out  # the two Klein subgroups and D8 itself are noncyclic
    assert "N8*1" in out


MARKS_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "marks")


@pytest.mark.parametrize("spec", ["C1", "S4", "Q8", "SD16", "C2xC2xC2", "S5", "A5xC2"])
@pytest.mark.parametrize("json_flag", [False, True])
def test_marks_output_bytes_pinned(spec, json_flag, capsys):
    """The text and JSON tables print exactly the bytes in tests/golden/marks."""
    argv = ["marks", "--group", spec] + (["--json"] if json_flag else [])
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    path = os.path.join(MARKS_GOLDEN, spec + (".json" if json_flag else ".txt"))
    with open(path, "rb") as handle:
        assert out.encode() == handle.read()


AUDIT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "audit")


@pytest.mark.parametrize("spec", ["S4", "S5", "A4xC3", "S3xS3", "D30", "S4xC2xC2"])
@pytest.mark.parametrize("classes", [None, "0,1"])
def test_compute_audit_json_bytes_pinned(spec, classes, capsys):
    """compute --audit --json prints exactly the bytes in tests/golden/audit:
    every congruence pair and the Sylow comparison, for non-nilpotent
    groups, with the cyclic family and with the family of classes 0 and 1."""
    argv = ["compute", "--group", spec, "--audit", "--json"]
    name = spec
    if classes is not None:
        argv += ["--family-classes", classes]
        name += ".classes-" + classes.replace(",", "-")
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    with open(os.path.join(AUDIT_GOLDEN, name + ".json"), "rb") as handle:
        assert out.encode() == handle.read()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_oddp_passes(capsys):
    code, out, _ = run_cli(["sweep", "--max-order", "27", "--checks", "oddp"], capsys)
    assert code == 0
    assert "sweep ok" in out
    assert "0 failures" in out


def test_sweep_sylow_reports_s3_without_failing(capsys):
    code, out, _ = run_cli(["sweep", "--max-order", "16", "--checks", "sylow"], capsys)
    assert code == 0
    assert "S3 [sylow]" in out
    assert "mismatch (report-only)" in out


def test_sweep_conductor_passes(capsys):
    code, out, _ = run_cli(["sweep", "--max-order", "24", "--checks", "conductor"], capsys)
    assert code == 0
    assert "0 failures" in out


def test_sweep_failure_exits_two(capsys, monkeypatch):
    def broken(spec, group, exponent):
        return "fail", [{"group": spec, "check": "cyclic", "expected": "1", "got": "9"}], []

    monkeypatch.setattr("artinx.sweep._check_cyclic", broken)
    code, out, _ = run_cli(["sweep", "--max-order", "4", "--checks", "cyclic"], capsys)
    assert code == 2
    assert "sweep FAILED" in out
    assert "expected 1, got 9" in out


def test_sweep_json_file(tmp_path, capsys):
    target = tmp_path / "summary.json"
    code, _, _ = run_cli(
        ["sweep", "--max-order", "16", "--checks", "cyclic,crossmethod", "--json", str(target)],
        capsys,
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["schema"] == 1
    assert data["ok"] is True
    assert data["group_count"] == 31
    assert "timings" not in data


def test_sweep_json_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sweep", "--max-order", "16", "--checks", "cyclic", "--json"]
    run_cli(args + [str(a)], capsys)
    run_cli(args + [str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_parallel_output_matches_serial(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["sweep", "--max-order", "16", "--json"]
    _, out_serial, _ = run_cli(base + [str(a)], capsys)
    _, out_parallel, _ = run_cli(base + [str(b), "--jobs", "2"], capsys)
    assert a.read_bytes() == b.read_bytes()
    assert out_serial == out_parallel


def test_sweep_timings_opt_in(tmp_path, capsys):
    target = tmp_path / "summary.json"
    code, out, _ = run_cli(
        ["sweep", "--max-order", "8", "--checks", "cyclic", "--timings", "--json", str(target)],
        capsys,
    )
    assert code == 0
    assert "seconds" in out
    assert "timings" in json.loads(target.read_text())


# ---------------------------------------------------------------------------
# lattice cache
# ---------------------------------------------------------------------------


def test_cache_created_and_reused(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    code, first, _ = run_cli(["marks", "--group", "C4xC4", "--cache", str(cache)], capsys)
    assert code == 0
    (entry,) = cache.iterdir()
    assert entry.name.startswith("C4xC4-") and entry.name.endswith(".lattice.json")

    # a second run must be served from the file: rebuilding would explode
    def boom(group):
        raise AssertionError("cache miss")

    monkeypatch.setattr("artinx.lattice.enumerate_subgroups", boom)
    code, second, _ = run_cli(["marks", "--group", "C4xC4", "--cache", str(cache)], capsys)
    assert code == 0
    assert first == second


def test_cache_rejects_stale_entries(tmp_path, capsys):
    cache = tmp_path / "cache"
    run_cli(["marks", "--group", "C6", "--cache", str(cache)], capsys)
    (entry,) = cache.iterdir()
    data = json.loads(entry.read_text())
    data["order"] = 63  # claim a different group
    entry.write_text(json.dumps(data))
    code, out, _ = run_cli(["marks", "--group", "C6", "--cache", str(cache)], capsys)
    assert code == 0  # silently rebuilt
    assert json.loads(entry.read_text())["order"] == 6  # and rewritten
    assert "C6*1" in out


@pytest.mark.parametrize("spec", ["S4", "D8", "C2xC6"])
def test_cache_rebuilds_an_entry_missing_a_cyclic_class(tmp_path, capsys, spec):
    cache = tmp_path / "cache"
    run_cli(["compute", "--group", spec, "--cache", str(cache)], capsys)
    entry = Path(lattice_cache_path(str(cache), spec))
    full = json.loads(entry.read_text(encoding="utf-8"))
    dropped = {**full, "classes": full["classes"][:1] + full["classes"][2:]}  # class 1, order 2
    for method in ("marks", "both"):
        entry.write_text(json.dumps(dropped), encoding="utf-8")
        argv = ["compute", "--group", spec, "--method", method]
        assert run_cli(argv + ["--cache", str(cache)], capsys) == run_cli(argv, capsys)
        assert json.loads(entry.read_text(encoding="utf-8")) == full  # rebuilt and rewritten


def _malformed_payloads() -> dict:
    good = lattice_to_dict(enumerate_subgroups(group_from_spec("C2xC2")), "C2xC2")
    past_order = json.loads(json.dumps(good))
    past_order["classes"][1]["rep_bits_hex"] = format(1 | 1 << 4, "x")  # bit 4 of a group of order 4
    negative = json.loads(json.dumps(good))
    negative["classes"][1]["rep_bits_hex"] = "-1"
    return {
        "list": b"[]",
        "not-utf8": b"\xff\xfe\x00{",
        "mask-past-order": json.dumps(past_order).encode(),
        "negative-mask": json.dumps(negative).encode(),
    }


@pytest.mark.parametrize("name", sorted(_malformed_payloads()))
def test_cache_rebuilds_malformed_files(tmp_path, capsys, name):
    code, uncached, _ = run_cli(["compute", "--group", "C2xC2"], capsys)
    assert code == 0
    cache = tmp_path / "cache"
    cache.mkdir()
    entry = Path(lattice_cache_path(str(cache), "C2xC2"))
    entry.write_bytes(_malformed_payloads()[name])
    # in a child process with a timeout, so that a loader that loops fails the test
    out = subprocess.run(
        [sys.executable, "-m", "artinx.cli", "compute", "--group", "C2xC2", "--cache", str(cache)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == uncached
    rebuilt = lattice_to_dict(enumerate_subgroups(group_from_spec("C2xC2")), "C2xC2")
    assert json.loads(entry.read_text(encoding="utf-8")) == rebuilt


def test_cache_env_var_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ARTINX_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run_cli(["marks", "--group", "D8"], capsys)
    assert code == 0
    assert any((tmp_path / "envcache").iterdir())


def test_no_cache_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ARTINX_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["marks", "--group", "C6"], capsys)
    assert code == 0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) for each README sh block that shows a command's output."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```$", handle.read(), re.M | re.S)
    examples = []
    for block in blocks:
        command, _, output = block.partition("\n")
        if command.startswith("$ artinx ") and output:
            examples.append((command.split()[2:], output))
    return examples


@pytest.mark.parametrize(
    "argv, expected",
    [pytest.param(argv, out, id=" ".join(argv)) for argv, out in _readme_examples()],
)
def test_readme_example_output(argv, expected, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected


def test_readme_shows_compute_and_marks():
    assert [argv[0] for argv, _ in _readme_examples()] == ["compute", "marks"]


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_class_label_format():
    assert cli.class_label(4, 3, True) == "C4*3"
    assert cli.class_label(6, 1, False) == "N6*1"
