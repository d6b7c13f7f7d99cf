import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toda_crystal
from toda_crystal.cli import RunConfig, _build_parser, _task_list, main


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


def test_usage_errors_exit_2():
    code, _ = run_cli(["verify", "all", "--p", "5/2"])
    assert code == 2
    code, _ = run_cli(["verify", "all", "--p", "x"])
    assert code == 2
    code, _ = run_cli(["verify", "all", "--N", "1", "--K", "2", "--D", "2", "--NQ", "2"])
    assert code == 2


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
