"""Exit codes, human output, JSON schemas, cache behavior of the CLI."""

import argparse
import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import artinx
from artinx import artin, cli
from artinx import lattice as lattice_module
from artinx.burnside import build_mark_table
from artinx.groups import group_from_spec
from artinx.lattice import (
    cached_lattice,
    enumerate_subgroups,
    lattice_cache_path,
    lattice_from_dict,
    lattice_to_dict,
)
from artinx.sweep import SweepConfig


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
    code, _, err = run_cli(["compute", "--group", "C1", "--family-classes", "5"], capsys)
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


def test_cli_import_loads_no_dataclasses():
    """No record is a dataclass, so importing the CLI loads neither
    dataclasses nor the inspect module it pulls in.  -S keeps a site .pth
    file from importing them first."""
    probe = ("import sys, artinx.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=_child_env(), capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for root, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as handle:
                    assert "dataclass" not in handle.read(), name


def test_records_use_one_mechanism():
    """Every class defined in an artinx module is a named tuple (a tuple
    subclass), an exception, or one of the classes that hold state a record
    cannot: the group table, the one mutable record and the CLI's parser."""
    allowed = {"GroupTable", "ExponentReport", "_Parser"}
    others = []
    for info in pkgutil.iter_modules(artinx.__path__, "artinx."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and not issubclass(value, (tuple, Exception)) and name not in allowed):
                others.append(f"{module.__name__}.{name}")
    assert others == []


def _is_field(node, self_name):
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == self_name)


def _only_reads_a_field(node, self_name):
    """A field of self, a subscript chain on one, or len() of one."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len" and len(node.args) == 1 and not node.keywords):
        return _is_field(node.args[0], self_name)
    while isinstance(node, ast.Subscript):
        node = node.value
    return _is_field(node, self_name)


def test_no_member_only_forwards_a_field():
    """Records are read through their fields: no method or property of a
    class defined in src/artinx is, after an optional docstring, a single
    return of a field of self, a subscript chain on one, or len() of one."""
    forwarders = []
    for path in sorted(Path(artinx.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or not fn.args.args:
                    continue
                body = fn.body
                if (len(body) == 2 and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                if (len(body) == 1 and isinstance(body[0], ast.Return)
                        and _only_reads_a_field(body[0].value, fn.args.args[0].arg)):
                    forwarders.append(f"{path.stem}.{cls.name}.{fn.name}")
    assert forwarders == []


def skew_method_one(monkeypatch):
    """Make method 1 report twice its exponent, for every family."""
    real = artin.congruence_analysis

    def skewed(lattice, families):
        return [a._replace(exponent=a.exponent * 2) for a in real(lattice, families)]

    monkeypatch.setattr(artin, "congruence_analysis", skewed)


def test_compute_disagreement_exits_two(capsys, monkeypatch):
    skew_method_one(monkeypatch)
    code, out, err = run_cli(["compute", "--group", "S3"], capsys)
    assert code == 2
    assert out == ""
    assert "methods disagree for S3 (family cyclic): congruence=4 marks=2" in err


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


def test_too_many_subgroups_stderr_pinned(capsys):
    """C2^8 is within the order cap but past the subgroup cap; the message
    names the limit, not a parameter the CLI cannot set."""
    code, out, err = run_cli(["compute", "--group", "x".join(["C2"] * 8)], capsys)
    assert (code, out, err) == (
        1, "", "error: the group has more than 100000 subgroups, the most artinx enumerates\n"
    )


def _run_child(argv):
    """Run the CLI in a child interpreter, so a traceback would reach stderr."""
    return subprocess.run(
        [sys.executable, "-m", "artinx.cli", *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_one_error_line(out):
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


def test_unwritable_sweep_json_exits_one(tmp_path):
    """The JSON file is opened before the sweep runs, so no table is printed."""
    target = tmp_path / "missing" / "x.json"
    out = _run_child(["sweep", "--max-order", "4", "--json", str(target)])
    assert_one_error_line(out)
    assert str(target) in out.stderr
    assert out.stdout == ""


def test_empty_sweep_json_path_exits_one(capsys, monkeypatch):
    """An empty --json path is a path that cannot be opened, as an empty
    --cache is: it fails before any group is evaluated."""

    def no_sweep(config):
        raise AssertionError("swept before the JSON file was opened")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    code, out, err = run_cli(["sweep", "--max-order", "4", "--json", ""], capsys)
    assert (code, out, err) == (1, "", "error: [Errno 2] No such file or directory: ''\n")


def test_cache_dir_under_a_file_exits_one(tmp_path, monkeypatch):
    """The cache directory is made before the lattice is enumerated, so an
    unusable one fails with no enumeration."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = _run_child(["compute", "--group", "S3", "--cache", str(blocker / "sub")])
    assert_one_error_line(out)
    assert out.stdout == ""

    def no_enumeration(group):
        raise AssertionError("enumerated before the cache directory was made")

    monkeypatch.setattr(lattice_module, "enumerate_subgroups", no_enumeration)
    with pytest.raises(OSError):
        cached_lattice(group_from_spec("S3"), "S3", str(blocker / "sub"))


def test_closed_stdout_exits_141_quietly():
    """A reader that is gone before the first write gets what a process
    killed by SIGPIPE gives: exit 141 and nothing on stderr, not even at
    interpreter exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "artinx.cli", "sweep", "--max-order", "8"],
            env=_child_env(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, "")


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


def test_negative_family_class_stderr_pinned(capsys):
    """A negative index is out of range, not an index from the end."""
    code, out, err = run_cli(["compute", "--group", "S3", "--family-classes", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: family class index -1 out of range 0..3\n")


def test_parse_family_gives_all_cyclic_or_a_frozenset():
    assert cli._parse_family(None) is None
    family = cli._parse_family("2, 0,,2")
    assert type(family) is frozenset and family == {0, 2}
    assert cli._parse_family(",") == frozenset()


def test_bad_family_classes_exit_one(capsys):
    code, _, err = run_cli(["compute", "--group", "S3", "--family-classes", "0,9"], capsys)
    assert code == 1
    assert "out of range" in err
    # int() alone reads all but 1,x: as 10, 2, 0 and 3, and 1
    for classes in ("1,x", "1_0", "+2", "0,\u0663", "\uff11"):
        code, out, err = run_cli(["compute", "--group", "S3", "--family-classes", classes],
                                 capsys)
        assert (code, out) == (1, "")
        assert "comma-separated" in err


def test_bad_family_classes_fail_before_anything_is_built(tmp_path, capsys, monkeypatch):
    """--family-classes is read right after the group spec, so a bad value
    exits 1 before any lattice is enumerated or cache entry written, and a
    bad group spec still fails first."""
    def no_enumeration(group):
        raise AssertionError("enumerated before --family-classes was read")

    monkeypatch.setattr(lattice_module, "enumerate_subgroups", no_enumeration)
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["compute", "--group", "S3", "--family-classes", "x", "--cache", str(cache)]
    assert run_cli(argv, capsys) == (
        1, "", "error: --family-classes wants comma-separated integers, got 'x'\n")
    assert list(cache.iterdir()) == []
    code, out, err = run_cli(["compute", "--group", "S3x", "--family-classes", "x"], capsys)
    assert (code, out) == (1, "")
    assert "--family-classes" not in err


@pytest.mark.parametrize("option", ["--max-order", "--jobs"])
@pytest.mark.parametrize("value", ["x", "+4", "0_4", "\u0668", "\uff14"])
def test_bad_sweep_integers_exit_one(option, value, capsys):
    """--max-order and --jobs read integers as specs do: ASCII digits only."""
    code, out, err = run_cli(["sweep", option, value], capsys)
    assert (code, out) == (1, "")
    assert f"argument {option}: invalid ascii_int value: {value!r}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--max-order", "4", "--cache", "D"], "unrecognized arguments: --cache D"),
        (["marks", "--group", "S3", "--cache", "D"], "unrecognized arguments: --cache D"),
        # prefix matching is off, so neither a removed option nor a prefix of
        # a live one is read as the live option
        (["compute", "--group", "S3", "--family", "cyclic"],
         "unrecognized arguments: --family cyclic"),
        (["sweep", "--max", "8"], "unrecognized arguments: --max 8"),
        (["sweep", "--checks", "cyclic"], "unrecognized arguments: --checks cyclic"),
        (["compute", "--group", "S3", "--fam", "0"], "unrecognized arguments: --fam 0"),
        (["compute", "--group", "S3", "--method", "marks"],
         "unrecognized arguments: --method marks"),
    ],
    ids=["sweep --cache", "marks --cache", "compute --family", "sweep --max", "sweep --checks",
         "compute --fam", "compute --method"],
)
def test_removed_options_are_refused(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert message in err


def test_settable_options_are_pinned():
    """Every value a caller can set, per subcommand: a new option is a new
    configuration to test, so adding one changes this list on purpose."""
    (subcommands,) = [action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    options = {
        name: [option for action in parser._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings]
        for name, parser in subcommands.choices.items()
    }
    assert options == {
        "compute": ["--group", "--family-classes", "--json", "--audit", "--cache"],
        "marks": ["--group", "--json"],
        "sweep": ["--max-order", "--jobs", "--json", "--timings"],
    }
    assert SweepConfig._fields == ("max_order", "jobs")


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


@pytest.mark.parametrize("spec", ["S3", "S4", "SD16", "C1", "D30", "perm:(1 2 3 4 5),(1 2)"])
@pytest.mark.parametrize(
    "options",
    [[], ["--audit"], ["--family-classes", "0,1"], ["--family-classes", "0,1", "--audit"]],
    ids=["plain", "audit", "classes-0-1", "classes-0-1-audit"],
)
def test_compute_stdout_renders_the_json_report(spec, options, capsys):
    """The text and the JSON come from one report dict: rendering the
    --json output with the table's class labels gives the text output,
    byte for byte."""
    argv = ["compute", "--group", spec, *options]
    text = run_cli(argv, capsys)
    code, out, err = run_cli([*argv, "--json"], capsys)
    if code:  # C1 has no class 1: both fail alike, before anything is printed
        assert text == (code, out, err) and out == ""
        return
    table = build_mark_table(enumerate_subgroups(group_from_spec(spec)))
    cli._print_report(json.loads(out), table)
    assert text == (0, capsys.readouterr().out, "")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_oddp_passes(capsys):
    code, out, _ = run_cli(["sweep", "--max-order", "27"], capsys)
    assert code == 0
    assert "sweep ok" in out
    assert "0 failures" in out


def test_sweep_sylow_reports_s3_without_failing(capsys):
    code, out, _ = run_cli(["sweep", "--max-order", "16"], capsys)
    assert code == 0
    assert "S3 [sylow]" in out
    assert "mismatch (report-only)" in out


def test_sweep_conductor_passes(capsys):
    code, out, _ = run_cli(["sweep", "--max-order", "24"], capsys)
    assert code == 0
    assert "0 failures" in out


def test_sweep_failure_exits_two(capsys, monkeypatch):
    def broken(lattice, table, report):
        return "fail", [{"group": report.group, "check": "cyclic", "expected": "1", "got": "9"}], []

    monkeypatch.setattr("artinx.sweep._check_cyclic", broken)
    code, out, _ = run_cli(["sweep", "--max-order", "4"], capsys)
    assert code == 2
    assert "sweep FAILED" in out
    assert "expected 1, got 9" in out


def test_sweep_disagreement_exits_two_without_crossmethod(capsys, monkeypatch):
    """A cyclic-family disagreement fails crossmethod once per group, beside
    the random families: every group to order 6 disagrees here on all 21."""
    skew_method_one(monkeypatch)
    code, out, _ = run_cli(["sweep", "--max-order", "6"], capsys)
    assert code == 2
    assert "S3 [crossmethod]: expected 4, got 2 (family cyclic)" in out
    assert out.endswith("sweep FAILED: 8 groups, 168 failures, 1 notes\n")


def test_sweep_json_file(tmp_path, capsys):
    target = tmp_path / "summary.json"
    code, _, _ = run_cli(
        ["sweep", "--max-order", "16", "--json", str(target)],
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
    args = ["sweep", "--max-order", "16", "--json"]
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


@pytest.mark.parametrize(
    "options, message",
    [
        (["--max-order", "0"], "max_order must be between 1 and 256"),
        (["--max-order", "257"], "max_order must be between 1 and 256"),
        (["--jobs", "0"], "jobs must be at least 1"),
    ],
    ids=["max-order 0", "max-order 257", "jobs 0"],
)
def test_bad_sweep_config_fails_before_the_json_file_is_opened(tmp_path, capsys, options,
                                                               message):
    """The bound and the worker count are checked before --json is opened,
    so a bad one leaves no file behind."""
    target = tmp_path / "summary.json"
    code, out, err = run_cli(["sweep", *options, "--json", str(target)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not target.exists()


@pytest.mark.parametrize(
    "options, failing",
    [([], False), (["--timings"], False), (["--jobs", "2"], False), ([], True)],
    ids=["plain", "timings", "jobs 2", "failing"],
)
def test_sweep_stdout_renders_the_written_summary(tmp_path, capsys, monkeypatch, options,
                                                  failing):
    """The text and the JSON come from one summary: printing the written
    file again gives the command's stdout, byte for byte."""
    if failing:
        monkeypatch.setattr("artinx.sweep._check_cyclic", lambda lattice, table, report: (
            "fail", [{"group": report.group, "check": "cyclic", "expected": "1", "got": "9"}], []))
    target = tmp_path / "summary.json"
    code, out, _ = run_cli(["sweep", "--max-order", "16", *options, "--json", str(target)], capsys)
    assert code == (2 if failing else 0)
    cli._print_sweep(json.loads(target.read_text()))
    assert capsys.readouterr().out == out


def test_sweep_timings_opt_in(tmp_path, capsys):
    target = tmp_path / "summary.json"
    code, out, _ = run_cli(
        ["sweep", "--max-order", "8", "--timings", "--json", str(target)],
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
    code, first, _ = run_cli(["compute", "--group", "C4xC4", "--cache", str(cache)], capsys)
    assert code == 0
    (entry,) = cache.iterdir()
    assert entry.name.startswith("C4xC4-") and entry.name.endswith(".lattice.json")

    # a second run must be served from the file: rebuilding would explode
    def boom(group):
        raise AssertionError("cache miss")

    monkeypatch.setattr("artinx.lattice.enumerate_subgroups", boom)
    code, second, _ = run_cli(["compute", "--group", "C4xC4", "--cache", str(cache)], capsys)
    assert code == 0
    assert first == second


def test_cache_rejects_stale_entries(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["compute", "--group", "C6", "--audit", "--cache", str(cache)]
    run_cli(argv, capsys)
    (entry,) = cache.iterdir()
    data = json.loads(entry.read_text())
    data["order"] = 63  # claim a different group
    entry.write_text(json.dumps(data))
    code, out, _ = run_cli(argv, capsys)
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
    entry.write_text(json.dumps(dropped), encoding="utf-8")
    argv = ["compute", "--group", spec]
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
        "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
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


def test_compute_names_an_incomplete_lattice(tmp_path, capsys):
    """S4's cache entry without class 4 (order 4, noncyclic, three
    conjugates) still loads, but method 1 reaches the missing subgroup and
    the run stops with a named error and the correctness-alarm code."""
    cache = tmp_path / "cache"
    run_cli(["compute", "--group", "S4", "--cache", str(cache)], capsys)
    entry = Path(lattice_cache_path(str(cache), "S4"))
    full = json.loads(entry.read_text(encoding="utf-8"))
    dropped = full["classes"].pop(4)
    entry.write_text(json.dumps(full), encoding="utf-8")
    code, out, err = run_cli(["compute", "--group", "S4", "--cache", str(cache)], capsys)
    missing = int(dropped["rep_bits_hex"], 16)
    assert (code, out) == (2, "")
    assert err == (f"error: <U, v> = {missing:#x} is missing from the lattice; "
                   "the lattice is incomplete\n")


@pytest.mark.xfail(
    strict=True,
    reason="the loader proves every cyclic class present, not every noncyclic one",
)
@pytest.mark.parametrize(
    "spec, index, order, size",
    # S4 without its normal Klein four group (class 5) loads, and then both
    # methods agree on exponent 4 for --family-classes 1,8, the transposition
    # class and A4, where the full lattice gives 12
    [("S4", 4, 4, 3), ("S4", 5, 4, 1), ("A4xC2", 9, 8, 1)],
)
def test_cache_rejects_an_entry_missing_a_noncyclic_class(tmp_path, capsys, spec, index,
                                                          order, size):
    cache = tmp_path / "cache"
    run_cli(["compute", "--group", spec, "--cache", str(cache)], capsys)
    full = json.loads(Path(lattice_cache_path(str(cache), spec)).read_text(encoding="utf-8"))
    dropped = {**full, "classes": full["classes"][:index] + full["classes"][index + 1:]}
    group = group_from_spec(spec)
    noncyclic = enumerate_subgroups(group).classes[index]
    assert (noncyclic.order, noncyclic.size) == (order, size)
    assert not noncyclic.is_cyclic
    assert lattice_from_dict(group, dropped) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--group", "D8"],
        ["marks", "--group", "D8"],
        ["sweep", "--max-order", "8"],
    ],
    ids=["compute", "marks", "sweep"],
)
def test_cache_env_var_is_ignored(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("ARTINX_CACHE_DIR", raising=False)
    plain = run_cli(argv, capsys)
    monkeypatch.setenv("ARTINX_CACHE_DIR", str(tmp_path / "envcache"))
    assert run_cli(argv, capsys) == plain
    assert plain[0] == 0
    assert not (tmp_path / "envcache").exists()


def test_no_cache_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ARTINX_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["marks", "--group", "C6"], capsys)
    assert code == 0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def _readme_blocks(language: str) -> list[str]:
    """The bodies of the README's fenced blocks in the given language."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        return re.findall(rf"^```{language}\n(.*?)^```$", handle.read(), re.M | re.S)


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) for each README sh block that shows a command's output."""
    examples = []
    for block in _readme_blocks("sh"):
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


def test_readme_library_snippet_runs():
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_class_label_format():
    assert cli.class_label(4, 3, True) == "C4*3"
    assert cli.class_label(6, 1, False) == "N6*1"
