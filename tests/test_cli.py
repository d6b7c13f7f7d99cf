import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toda_crystal
from toda_crystal import identities
from toda_crystal.cli import CHECKS, RunConfig, _build_parser, _run_task, _sort_key, _task_list, main
from toda_crystal.identities import CalibrationError

from oracles import (
    fraction_first_shift_check,
    fraction_intertwining_residual,
    fraction_second_shift_check,
)


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout lines and the exit code."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


SMALL = ["--K", "2", "--D", "2", "--NQ", "2", "--s", "0", "--l", "0"]


def test_compute_zprime_special_values(tmp_path):
    out = tmp_path / "zs.json"
    code, _ = run_cli(["compute", "zprime-special", "--p", "1/2", "--NQ", "2",
                       "--s", "0", "--l", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["series"]["coefficients"] == {"1": "1", "Q^1": "4/9", "Q^2": "128/2025"}
    # the params name the point computed, not the command line
    code, _ = run_cli(["compute", "zprime-special", "--p", "1/2", "--NQ", "1",
                       "--s", "1", "--l", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"] == {"p": "1/2", "s": 0, "l": 0, "K": 1, "D": 0, "NQ": 1, "N": 1}
    assert doc["series"]["context"]["K"] == 1


def test_compute_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli(["compute", "tau-prime", *SMALL, "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_compute_tau_prev_forms(tmp_path):
    out = tmp_path / "t.json"
    code, _ = run_cli(["compute", "tau-prev", *SMALL, "--form", "symmetric",
                       "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["params"]["form"] == "symmetric"


def test_compute_rejects_multiple_charges():
    code, _ = run_cli(["compute", "zprime", "--s", "0,1", "--l", "0"])
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["verify", "toeplitz", "--s", "0,0", "--l", "1", "--K", "1", "--D", "2", "--NQ", "1"],
     "--s repeats the value 0"),
    (["verify", "toeplitz", "--s", "-1,0,1", "--l", "1,0,1"], "--l repeats the value 1"),
    (["compute", "zprime", "--s", "-1,-1", "--l", "0"], "--s repeats the value -1"),
    (["compute", "tau-prime", "--s", "0", "--l", "2,2"], "--l repeats the value 2"),
])
def test_repeated_list_values_are_usage_errors(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert message in capsys.readouterr().err


def test_usage_errors_exit_2():
    code, _ = run_cli(["verify", "all", "--p", "5/2"])
    assert code == 2
    code, _ = run_cli(["verify", "all", "--p", "x"])
    assert code == 2
    code, _ = run_cli(["verify", "all", "--N", "1", "--K", "2", "--D", "2", "--NQ", "2"])
    assert code == 2


def test_unwritable_out_is_a_usage_error(monkeypatch, capsys, tmp_path):
    # the output is opened before any work starts, so a bad --out costs none
    calls = []
    monkeypatch.setattr(toda_crystal.cli, "_run_task", calls.append)
    monkeypatch.setattr(toda_crystal.toda, "tau_prime_series", calls.append)
    for command in (["verify", "toeplitz"], ["compute", "tau-prime"]):
        code, out = run_cli([*command, *SMALL, "--out", str(tmp_path / "missing" / "r.json")])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: cannot open --out") and err.count("\n") == 1
        assert "Traceback" not in err
    assert calls == []


def test_verify_insufficient_window_exits_1(tmp_path):
    out = tmp_path / "r.jsonl"
    code, _ = run_cli(["verify", "shift", "--p", "1/2", "--NQ", "0", "--D", "0",
                       "--K", "1", "--s", "0", "--l", "0", "--out", str(out)])
    assert code == 1
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert any(l["status"] == "insufficient_window" for l in lines)
    assert all(set(l) == {"check", "params", "status", "evidence", "wall_ms"}
               for l in lines)


# the lines of `verify toda-bilinear --D 1 --s 0 --l 0` without wall_ms
INSUFFICIENT_BILINEAR = [
    {"check": "toda_bilinear",
     "params": {"charges": [-1, 0, 1], "K": 3, "D": 1, "sign": "auto", "l": 0, "family": family},
     "status": "insufficient_window",
     "evidence": {"reason": "need D >= 2 and at least one charge with both neighbors",
                  "window": 0}}
    for family in ("tau_prime", "zprime")]


def test_insufficient_bilinear_window_builds_no_family(monkeypatch):
    # at D = 1 the bilinear equation has no window: the report is written
    # before any tau' or Z' of the charge family is built
    def refuse(*args):
        raise AssertionError("a series was built for an insufficient window")

    monkeypatch.setattr(identities, "tau_prime_series", refuse)
    monkeypatch.setattr(identities, "zprime_series", refuse)
    cfg = RunConfig.from_args(_build_parser().parse_args(
        ["verify", "toda-bilinear", "--D", "1", "--s", "0", "--l", "0"]))
    lines = [_run_task(task) for task in _task_list("toda-bilinear", cfg)]
    assert [{k: v for k, v in line.items() if k != "wall_ms"} for line in lines] == \
        INSUFFICIENT_BILINEAR


def test_verify_small_suites_pass(tmp_path):
    out = tmp_path / "r.jsonl"
    for suite in ("main-identity", "toeplitz", "toda-bilinear"):
        code, _ = run_cli(["verify", suite, "--p", "1/2", *SMALL, "--out", str(out)])
        assert code == 0, suite
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines and all(l["status"] == "pass" for l in lines)


def test_verify_main_identity_second_p_point(tmp_path):
    out = tmp_path / "r.jsonl"
    code, _ = run_cli(["verify", "main-identity", "--p", "3/5", *SMALL,
                       "--out", str(out)])
    assert code == 0


def test_verify_report_lines_sorted(tmp_path):
    out = tmp_path / "r.jsonl"
    code, _ = run_cli(["verify", "toeplitz", "--p", "1/2", "--K", "2", "--D", "2",
                       "--NQ", "2", "--s", "-1,0,1", "--l", "0", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    keys = [(l["check"], json.dumps(l["params"], sort_keys=True)) for l in lines]
    assert keys == sorted(keys)


@pytest.mark.parametrize("threads", ["2", "many"])
def test_stale_thread_env_var_is_ignored(monkeypatch, capsys, tmp_path, threads):
    # verify has one serial runner and reads no environment variable
    args = ["verify", "toeplitz", "--p", "1/2", *SMALL]
    unset, stale = tmp_path / "unset.jsonl", tmp_path / "stale.jsonl"
    monkeypatch.delenv("TODA_CRYSTAL_THREADS", raising=False)
    assert run_cli(args + ["--out", str(unset)])[0] == 0
    capsys.readouterr()
    monkeypatch.setenv("TODA_CRYSTAL_THREADS", threads)
    assert run_cli(args + ["--out", str(stale)])[0] == 0
    assert capsys.readouterr().err == "toeplitz: 2/2 checks passed\n"

    def strip(path):
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        for r in rows:
            r.pop("wall_ms")
        return rows

    assert strip(stale) == strip(unset)


def _child(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with `argv`, importing the package from where
    this process found it; its output is kept as bytes."""
    src = str(Path(toda_crystal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env)


def test_console_entry_point():
    proc = _child("-m", "toda_crystal.cli", "compute", "zprime-special",
                  "--NQ", "1", "--s", "0", "--l", "0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["series"]["coefficients"]["Q^1"] == "4/9"


# the standard-library modules a record class would load were it a dataclass
_RECORD_MACHINERY = ("dataclasses", "inspect")

# prints, as the last stderr line, the modules the process loaded among
# the package's and the record machinery
_PRINT_LOADED = f"""
print(" ".join(sorted(m for m in sys.modules
                      if m.startswith("toda_crystal.") or m in {_RECORD_MACHINERY})),
      file=sys.stderr)
"""

# runs the CLI as `python -m toda_crystal.cli` does (the module is __main__)
_LOADED_BY = """
import runpy, sys
sys.argv[0] = "toda_crystal.cli"
try:
    runpy.run_module("toda_crystal.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
""" + _PRINT_LOADED

ALL_MODULES = {"algebra", "partitions", "fock", "transfer", "truncated", "models", "checks",
               "symmetries", "shifts", "series", "toda", "identities"}
# the modules of each operator suite; the series checks load all but those of
# the operator checks
COMMUTATORS = {"algebra", "partitions", "fock", "checks", "symmetries"}
SHIFTS = {"algebra", "partitions", "fock", "checks", "transfer", "shifts"}


@pytest.mark.parametrize("argv,modules", [
    (["verify", "--help"], {"algebra"}),
    (["compute", "zprime", "--s", "0", "--l", "1", "--K", "4", "--D", "4", "--NQ", "6",
      "--p", "1/2"], {"algebra", "partitions", "truncated", "models"}),
    (["compute", "z", "--s", "1", "--l", "0", "--K", "2", "--D", "3", "--NQ", "4",
      "--p", "1/2"], {"algebra", "partitions", "truncated", "models"}),
    (["verify", "commutators", "--s", "0", "--K", "2", "--D", "3", "--p", "1/2"],
     COMMUTATORS),
    (["verify", "shift", "--s", "0", "--K", "2", "--D", "3", "--p", "1/2"], SHIFTS),
    (["compute", "tau-prime", "--s", "0", "--l", "1", "--K", "3", "--D", "2", "--NQ", "8",
      "--p", "1/2"], {"algebra", "partitions", "fock", "transfer", "truncated", "series",
                      "toda"}),
    (["verify", "prev-identity", "--s", "0", "--K", "2", "--D", "3", "--p", "1/2"],
     ALL_MODULES - {"symmetries", "shifts"}),
    (["verify", "main-identity", "--s", "0", "--K", "2", "--D", "3", "--p", "1/2"],
     ALL_MODULES - {"symmetries", "shifts"}),
])
def test_subcommand_loads_only_its_modules(argv, modules):
    # the cli module itself runs as __main__, so it is not listed; the record
    # machinery may be loaded only where a bare interpreter loads it too
    bare = _child("-c", "import sys" + _PRINT_LOADED)
    proc = _child("-c", _LOADED_BY, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.decode().splitlines()[-1].split())
    machinery = set(bare.stderr.decode().splitlines()[-1].split())
    assert loaded == {f"toda_crystal.{name}" for name in modules} | machinery


def test_run_config_is_never_mutated():
    cfg = RunConfig.from_args(_build_parser().parse_args(["verify", "all"]))
    with pytest.raises(AttributeError):
        cfg.NQ = 5
    assert (cfg.K, cfg.D, cfg.NQ, cfg.derived_N(), cfg.form) == (3, 3, 4, 9, "left")
    assert cfg.params(0, 1).ctx == cfg.ctx


# a record class built by dataclasses, or a second task runner
FORBIDDEN_IMPORTS = {"dataclasses", "multiprocessing"}


def test_no_package_module_imports_forbidden_modules():
    sources = sorted(Path(toda_crystal.__file__).resolve().parent.rglob("*.py"))
    assert {"algebra.py", "cli.py"} <= {path.name for path in sources}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert not {alias.name for alias in node.names} & FORBIDDEN_IMPORTS, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module not in FORBIDDEN_IMPORTS, path.name


def test_no_package_module_imports_a_private_name_or_another_route():
    # each shared name is read from the module that decides it: no relative
    # import names a private member, the series identities import nothing of
    # the operator checks, each operator suite nothing of the other's, the tau
    # construction nothing of the partition sums or the split rule, and the
    # model point nothing of the export form
    imports = {}
    for path in Path(toda_crystal.__file__).resolve().parent.glob("*.py"):
        imports[path.stem] = [(node.module, alias.name)
                              for node in ast.walk(ast.parse(path.read_text(), str(path)))
                              if isinstance(node, ast.ImportFrom) and node.level
                              for alias in node.names]
    assert {"algebra", "checks", "identities", "shifts", "symmetries", "toda"} <= set(imports)
    for stem, pairs in imports.items():
        assert not [name for _, name in pairs if name.startswith("_")], stem
    modules = {stem: {module for module, _ in pairs} for stem, pairs in imports.items()}
    assert not {"symmetries", "shifts"} & modules["identities"]
    assert "models" not in modules["toda"]
    assert not {"transfer", "shifts"} & modules["symmetries"]
    assert "symmetries" not in modules["shifts"]
    assert "checks" not in modules["toda"]
    assert "truncated" not in modules["algebra"]


# every name the package exported when its __init__ imported each module, by
# the module that holds it now
EXPORTS = {
    "algebra": ("SeriesContext",),
    "truncated": ("TruncatedSeries",),
    "fock": ("SectorConfig",),
    "models": ("ModelParams", "charge_offset", "l0_eigenvalue", "phi_potential",
               "schur_qrho", "w0_eigenvalue", "z_series", "zprime_series"),
    "partitions": ("Partition", "enumerate_partitions"),
    "symmetries": ("commutator_check",),
    "shifts": ("first_shift_check", "second_shift_check"),
    "checks": ("torus_constant",),
    "toda": ("build_g", "build_gprime", "tau_prev_series", "tau_prime_series", "trivial_tau"),
    "identities": ("CalibrationError", "calibrate_bilinear_sign", "check_prev_forms",
                   "check_prev_reduction", "ground_action_constants", "intertwining_residual",
                   "tau_prime_family", "toda_bilinear_residual", "trivial_tau_compare",
                   "verify_main_identity", "verify_prev_identity", "zprime_family"),
}


def test_package_names_resolve_to_their_modules():
    import importlib

    listed = dir(toda_crystal)
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"toda_crystal.{module}")
        assert module in listed
        for name in names:
            assert getattr(toda_crystal, name) is getattr(sub, name), name
            assert name in listed, name
    assert toda_crystal.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        toda_crystal.no_such_name
    with pytest.raises(ImportError):
        from toda_crystal import no_such_name  # noqa: F401


def test_package_loads_a_module_on_first_use():
    # in a fresh process: importing the package loads no module, a submodule
    # attribute loads that module, and a star import loads every export
    proc = _child("-c", f"""
import sys
import toda_crystal

def loaded():
    return {{m for m in sys.modules if m.startswith("toda_crystal.")}}

assert loaded() == set(), loaded()
assert toda_crystal.toda.build_g is sys.modules["toda_crystal.toda"].build_g
assert "toda_crystal.toda" in loaded()
from toda_crystal import *
exports = {EXPORTS!r}
for module, names in exports.items():
    for name in names:
        assert globals()[name] is getattr(sys.modules["toda_crystal." + module], name), name
""")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("suite", ["prev-identity", "toeplitz"])
def test_verify_intertwining_suites_at_p_one_third(suite, tmp_path):
    code, _ = run_cli(["verify", suite, "--K", "2", "--D", "3", "--p", "1/3",
                       "--out", str(tmp_path / "r.jsonl")])
    assert code == 0


@pytest.mark.parametrize("suite", ["prev-identity", "toeplitz"])
def test_intertwining_suites_match_fraction_scan(suite, monkeypatch):
    # the integer blocks of g read by the residual kernel against the Fraction
    # scan by grade dots of dense vectors; the lines are compared without
    # their timing field. prev-identity has the g_true lines, toeplitz the g'
    # lines that report a nonzero entry.
    args = ["verify", suite, "--s", "0", "--K", "2", "--D", "3", "--p", "1/3"]

    def lines():
        code, out = run_cli(args)
        assert code == 0
        return [{k: v for k, v in json.loads(text).items() if k != "wall_ms"}
                for text in out.splitlines()]

    ours = lines()
    calls = []

    def oracle(*a):
        calls.append(a)
        return fraction_intertwining_residual(*a)

    monkeypatch.setattr(toda_crystal.identities, "intertwining_residual", oracle)
    assert lines() == ours
    assert len(calls) == sum(line["check"] == "intertwining" for line in ours) > 0


def test_shift_suite_matches_fraction_checks(monkeypatch):
    # the streamed first shift and the exponent second shift against their
    # Fraction oracles; the lines are compared without their timing field
    args = ["verify", "shift", "--s", "0", "--K", "2", "--D", "3", "--p", "1/3"]

    def lines():
        code, out = run_cli(args)
        assert code == 0
        return [{k: v for k, v in json.loads(text).items() if k != "wall_ms"}
                for text in out.splitlines()]

    ours = lines()
    calls = {"first_shift": [], "second_shift": []}
    for check, oracle in (("first_shift", fraction_first_shift_check),
                          ("second_shift", fraction_second_shift_check)):
        monkeypatch.setattr(toda_crystal.shifts, f"{check}_check",
                            lambda *a, check=check, oracle=oracle:
                            calls[check].append(a) or oracle(*a))
    assert lines() == ours
    assert len(calls["first_shift"]) == sum(line["check"] == "first_shift" for line in ours) == 20
    assert len(calls["second_shift"]) == sum(line["check"] == "second_shift" for line in ours) == 25


@pytest.mark.parametrize("suite", ["prev-identity", "toeplitz", "all"])
def test_intertwining_shift_beyond_cutoff(suite, tmp_path):
    # N = 0, so J_1 leaves the cutoff: the intertwining lines are insufficient
    out = tmp_path / "r.jsonl"
    args = ["verify", suite, "--K", "1", "--D", "0", "--NQ", "0", "--s", "0", "--l", "0"]
    code, _ = run_cli(args + ["--out", str(out)])
    assert code == 1
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == len(_task_list(suite, RunConfig.from_args(_build_parser().parse_args(args))))
    inter = [l for l in lines if l["check"] == "intertwining"]
    assert inter
    for line in inter:
        assert line["status"] == "insufficient_window"
        assert line["evidence"] == {"reason": "shift exceeds the cutoff", "window": 0}


@pytest.mark.parametrize("exc", [CalibrationError("no sign matches"), ZeroDivisionError("1/0")])
def test_raising_check_becomes_error_line(monkeypatch, capsys, tmp_path, exc):
    # a serial run: the raising check is reported, the others still run
    out, ref = tmp_path / "r.jsonl", tmp_path / "ref.jsonl"
    args = ["verify", "toeplitz", *SMALL]
    assert run_cli(args + ["--out", str(ref)])[0] == 0

    def boom(task):
        raise exc

    monkeypatch.setitem(CHECKS, "trivial_tau", CHECKS["trivial_tau"]._replace(run=boom))
    code, _ = run_cli(args + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and f"{type(exc).__name__}: {exc}" in err
    assert err.endswith("toeplitz: 1/2 checks passed\n")
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    ref_lines = [json.loads(l) for l in ref.read_text().splitlines()]
    assert len(lines) == len(ref_lines) == 2
    error = next(l for l in lines if l["status"] == "error")
    assert error["check"] == "trivial_tau"
    assert error["params"] == {"p": "1/2", "K": 2, "D": 2, "NQ": 2, "N": 4, "s": 0, "l": 0}
    assert error["evidence"] == {"type": type(exc).__name__, "message": str(exc)}
    kept = [l for l in lines if l["status"] != "error"]
    assert [{**l, "wall_ms": 0} for l in kept] == [
        {**l, "wall_ms": 0} for l in ref_lines if l["check"] != "trivial_tau"]


def test_run_task_returns_a_line():
    task = _task_list("main-identity", RunConfig.from_args(
        _build_parser().parse_args(["verify", "main-identity", *SMALL])))[0]
    line = _run_task(task)
    assert line["status"] == "pass"
    assert set(line) == {"check", "params", "status", "evidence", "wall_ms"}


# every check kind whose reports have no cutoff-growth test of their own;
# commutator, first_shift and second_shift are covered in test_symmetries
CUTOFF_KINDS = ("ground_action", "main_identity", "prev_identity", "prev_forms",
                "prev_reduction", "bilinear_tau_prime", "bilinear_zprime", "toeplitz_fake",
                "trivial_tau")


def _without_cutoff(line: dict) -> dict:
    # the bilinear lines name no N: their params are the family's
    line["params"].pop("N", None)
    del line["evidence"]["window"]
    line.pop("wall_ms", None)
    return line


@pytest.mark.parametrize("p", ["1/2", "2/3"])
@pytest.mark.parametrize("kind", CUTOFF_KINDS)
def test_reports_stable_under_cutoff_growth(kind, p):
    suite = CHECKS[kind].suite
    cfg = RunConfig.from_args(_build_parser().parse_args(
        ["verify", suite, "--K", "2", "--D", "2", "--NQ", "3", "--s=-1,0,1", "--l=0,1",
         "--p", p]))
    tasks = [task for task in _task_list(suite, cfg) if task["kind"] == kind]
    assert tasks
    for task in tasks:
        small = _without_cutoff(CHECKS[kind].run(task).to_json_dict())
        assert small["status"] == "pass", (task, small)
        grown = CHECKS[kind].run({**task, "N": task["N"] + 2}).to_json_dict()
        assert _without_cutoff(grown) == small, task


def _fixture_script(name: str = "generate_fixtures"):
    """scripts/<name>.py, loaded from the checkout."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_survey_runs_two_mutants():
    # the whole survey takes about 1 s a mutant, so tier-1 runs two of them,
    # and checks that the old text of every mutant occurs once
    survey = _fixture_script("mutation_survey")
    assert survey.mismatched() == []
    assert survey.mismatched([survey.Mutant("gone", "fock.py", "no such text", "")]) == ["gone"]
    mutants = {mutant.name: mutant for mutant in survey.MUTANTS}
    assert survey.run_mutant(mutants["unsigned_degenerate"]) == {"commutator"}
    assert survey.run_mutant(mutants["charge_offset_s_minus_1"]) == {"ground_action"}


def _match_fixture(script, name: str, ours: list[str], oracle_lines):
    """Report lines, as script.report_text writes them, against the line count
    and sha256 of a fixture; on a mismatch oracle_lines() runs the oracle
    again to name the first line that differs."""
    fixture = json.loads((script.OUT / name).read_text())
    if script.lines_digest(ours) == {"lines": fixture["lines"], "sha256": fixture["sha256"]}:
        return
    oracle = oracle_lines()
    first = next((i for i, (a, b) in enumerate(zip(ours, oracle)) if a != b),
                 min(len(ours), len(oracle)))
    pytest.fail(f"line {first} of {len(ours)} differs from the oracle's {len(oracle)}:\n"
                f"package: {ours[first:first + 1]}\noracle:  {oracle[first:first + 1]}")


def _verify_lines(script, argv: list[str], tmp_path) -> list[str]:
    out = tmp_path / "r.jsonl"
    code, _ = run_cli([*argv, "--out", str(out)])
    assert code == 0
    return [script.report_text(json.loads(text)) for text in out.read_text().splitlines()]


@pytest.mark.parametrize("p", [pytest.param("1/2", id="p1of2"), pytest.param("2/3", id="p2of3")])
def test_default_commutators_match_oracle_fixture(p, tmp_path):
    # the `verify commutators --p p` report at the other defaults against the
    # Fraction oracle's lines
    script = _fixture_script()
    _match_fixture(script, script.COMMUTATORS[p][0],
                   _verify_lines(script, ["verify", "commutators", "--p", p], tmp_path),
                   lambda: script.commutator_lines(p))


def test_default_shift_matches_oracle_fixture(tmp_path):
    # the default `verify shift` report against the Fraction shift oracles' lines
    script = _fixture_script()
    _match_fixture(script, script.SHIFT, _verify_lines(script, ["verify", "shift"], tmp_path),
                   script.shift_lines)


def test_default_intertwining_matches_oracle_fixture():
    # the intertwining lines of default `verify prev-identity`, then those of
    # `verify toeplitz`, against the Fraction intertwining oracle's lines; only
    # the intertwining tasks run, and their lines are sorted as the CLI sorts
    script = _fixture_script()
    ours = []
    for suite in ("prev-identity", "toeplitz"):
        cfg = RunConfig.from_args(_build_parser().parse_args(["verify", suite]))
        lines = [_run_task(task) for task in _task_list(suite, cfg)
                 if task["kind"] in ("intertwining_true", "toeplitz_fake")]
        ours += [script.report_text(line) for line in sorted(lines, key=_sort_key)]
    _match_fixture(script, script.INTERTWINING, ours, script.intertwining_lines)


@pytest.mark.parametrize("p", [pytest.param("1/2", id="p1of2"), pytest.param("2/3", id="p2of3")])
@pytest.mark.parametrize("suite", ["main-identity", "prev-identity", "toeplitz", "toda-bilinear"])
def test_series_reports_match_their_pins(suite, p):
    # every line of a series suite at the prev-identity workload's shape,
    # without wall_ms, byte for byte against the lines pinned in fixtures/
    script = _fixture_script()
    assert suite in script.SERIES_SUITES
    pins = json.loads((script.OUT / script.SERIES_REPORTS[p]).read_text())["reports"]
    assert script.series_report_lines(suite, p) == pins[suite]


def test_partition_sum_exports_match_their_pins(tmp_path):
    # every export pin of fixtures/, byte for byte as the CLI writes it
    script = _fixture_script()
    assert len(script.EXPORTS) == 6
    for name, args in script.EXPORTS.items():
        out = tmp_path / name
        assert main(["compute", *args, "--p", "2/3", "--out", str(out)]) == 0
        assert out.read_bytes() == (script.OUT / name).read_bytes(), name


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from the checkout without importing
    the rest of the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def _run_workload(workload, p: str) -> bytes:
    """stdout of one untimed invocation of a benchmark workload, run on this
    checkout's package."""
    return _child("-m", "toda_crystal.cli", *workload.argv(p)).stdout


def test_commutators_workload_matches_its_references():
    # one untimed invocation of the benchmark's commutators workload at each p
    bench = _perfbench_workloads()
    references = bench.load_references()
    workload = bench.WORKLOADS["commutators"]
    for p in bench.POOL:
        reference = bench.reference_for(references, "commutators", p)
        assert bench.check_output("verify", _run_workload(workload, p), reference, p) == (
            1225, 0), p


@pytest.mark.parametrize("name", ["tau-export", "prev-identity", "zprime-sum"])
def test_workload_matches_its_references(name):
    # one untimed invocation of each other benchmark workload at each p it is
    # timed at: the whole pool, or p = 1/2 alone while the workload has a
    # known defect
    bench = _perfbench_workloads()
    workload = bench.WORKLOADS[name]
    references = bench.load_references()
    for p in bench.timed_pool(name):
        reference = bench.reference_for(references, name, p)
        attempted, failed = bench.check_output(workload.kind, _run_workload(workload, p),
                                               reference, p)
        assert attempted > 0 and failed == 0, p


def test_every_workload_in_process_matches_its_references():
    # each benchmark workload at every p of the pool, run through main in
    # this process: a changed export or report fails here, not only under
    # the benchmark's gate
    bench = _perfbench_workloads()
    references = bench.load_references()
    results = {}
    for name, workload in bench.WORKLOADS.items():
        for p in bench.POOL:
            _, out = run_cli(workload.argv(p))
            results[name, p] = bench.check_output(
                workload.kind, out.encode(), bench.reference_for(references, name, p), p)
    assert len(results) == 12
    assert {key: r for key, r in results.items() if r[0] == 0 or r[1]} == {}
