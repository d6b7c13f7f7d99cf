import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toda_crystal
from toda_crystal.cli import CHECKS, RunConfig, _build_parser, _run_task, _sort_key, _task_list, main
from toda_crystal.toda import CalibrationError

from oracles import (
    fraction_first_shift_check,
    fraction_intertwining_residual,
    fraction_second_shift_check,
)


def run_cli(args, tmp_path=None, env_extra=None):
    """Invoke the CLI in-process, capturing stdout lines and the exit code."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    old_env = {}
    for k, v in (env_extra or {}).items():
        old_env[k] = os.environ.get(k)
        os.environ[k] = v
    try:
        with redirect_stdout(buf):
            code = main(args)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
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


def test_thread_env_var_gives_identical_reports(tmp_path):
    serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    args = ["verify", "toeplitz", "--p", "1/2", *SMALL]
    code, _ = run_cli(args + ["--out", str(serial)])
    assert code == 0
    code, _ = run_cli(args + ["--out", str(parallel)],
                      env_extra={"TODA_CRYSTAL_THREADS": "2"})
    assert code == 0

    def strip(path):
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        for r in rows:
            r.pop("wall_ms")
        return rows

    assert strip(serial) == strip(parallel)


def test_bad_thread_env_var(tmp_path):
    code, _ = run_cli(["verify", "toeplitz", *SMALL],
                      env_extra={"TODA_CRYSTAL_THREADS": "many"})
    assert code == 2


def test_console_entry_point():
    # the child imports the package from where this process found it
    src = str(Path(toda_crystal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "toda_crystal.cli", "compute", "zprime-special",
         "--NQ", "1", "--s", "0", "--l", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["series"]["coefficients"]["Q^1"] == "4/9"


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

    monkeypatch.setattr(toda_crystal.toda, "intertwining_residual", oracle)
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
        monkeypatch.setattr(toda_crystal.cli, f"{check}_check",
                            lambda *a, check=check, oracle=oracle:
                            calls[check].append(a) or oracle(*a))
    assert lines() == ours
    assert len(calls["first_shift"]) == sum(line["check"] == "first_shift" for line in ours) == 20
    assert len(calls["second_shift"]) == sum(line["check"] == "second_shift" for line in ours) == 25


@pytest.mark.parametrize("requested,cpus,pools,clamped", [
    ("64", 4, [2], True),   # clamped to the two tasks
    ("3", 1, [], True),     # clamped to one CPU: no pool at all
    ("2", 4, [2], False),
])
def test_thread_count_is_clamped(monkeypatch, capsys, tmp_path, requested, cpus, pools,
                                 clamped):
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("TODA_CRYSTAL_THREADS", requested)
    code = main(["verify", "toeplitz", *SMALL, "--out", str(tmp_path / "r.jsonl")])
    assert code == 0
    assert sizes == pools
    assert ("clamped" in capsys.readouterr().err) == clamped


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


def _fixture_script():
    """scripts/generate_fixtures.py, loaded from the checkout."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    src = str(Path(toda_crystal.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "TODA_CRYSTAL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "toda_crystal.cli", *workload.argv(p)],
                          capture_output=True, env=env).stdout


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
