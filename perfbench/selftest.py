"""Self-test of the benchmark at tiny sizes; never gates on timings.

    python3 perfbench/selftest.py

Checks, in about a minute:
- every workload, untraced and traced, runs and passes its checks;
- two traced runs give identical counts (calls, madds, term_pairs, nnz,
  misses) and traced output equals untraced output without wall_ms;
- a corrupted reference is reported as failed;
- one round times every timed p once;
- the known prev-identity crash at every p != 1/2 is recorded as a known
  defect with its failed share and missing timings;
- a tracer target that does not exist is reported absent, not raised, and
  wrappers reach re-exports and class-attribute aliases;
- BENCHMARK.json names exactly the metrics run.py produces;
- without the package sources run.py exits non-zero and prints nothing.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, SRC, Run, child_env, cli_cmd, load_benchmark, \
    run_process
from workloads import (
    KNOWN_DEFECTS,
    POOL,
    REFERENCE_P,
    Workload,
    output_sha256,
    timed_pool,
    verify_windows,
)

TINY = (
    Workload("commutators", "verify",
             ("verify", "commutators", "--s", "0", "--K", "1", "--D", "2", "--NQ", "2", "--N", "6")),
    Workload("tau-export", "compute",
             ("compute", "tau-prime", "--s", "0", "--l", "1", "--K", "2", "--D", "2", "--NQ", "3")),
    Workload("prev-identity", "verify",
             ("verify", "prev-identity", "--s", "0", "--K", "2", "--D", "1", "--NQ", "2",
              "--N", "2")),
    Workload("zprime-sum", "compute",
             ("compute", "zprime", "--s", "0", "--l", "1", "--K", "2", "--D", "2", "--NQ", "2")),
)
COUNT_FIELDS = (".calls", ".madds", ".term_pairs", ".nnz", ".misses")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny_references() -> dict:
    env = child_env()
    refs = {}
    for w in TINY:
        hashes, windows = {}, {}
        for p in timed_pool(w.name):
            sample = run_process(cli_cmd(w.argv(p)), env)
            expect(sample.returncode == 0,
                   f"{w.name} tiny run at p={p} failed: {sample.stderr.decode()}")
            hashes[p] = output_sha256(sample.stdout)
            windows[p] = verify_windows(sample.stdout.decode()) if w.kind == "verify" else {}
        if w.kind == "compute":
            refs[w.name] = {"sha256": hashes}
            continue
        for p in POOL:
            # the checks that crash at the other p take their windows from
            # REFERENCE_P in the full references too (make_references.py)
            windows.setdefault(p, dict(windows[REFERENCE_P]))
        keys = sorted(windows[REFERENCE_P])
        refs[w.name] = {"checks": keys,
                        "windows": {p: [ws[k] for k in keys] for p, ws in windows.items()}}
    return refs


def new_run(w: Workload, refs: dict, trace: bool) -> Run:
    """A run that stops after one round of the timed p."""
    return Run(w, seed=0, seconds=0, trace=trace, references=refs)


def check_workload(w: Workload, refs: dict, spec: dict) -> None:
    run = new_run(w, refs, trace=False)
    metrics = run.measure_end_to_end()
    expect(run.failed == 0 and run.attempted > 0, f"{w.name}: untraced run failed its checks")
    expect(sorted(run.p_used) == sorted(timed_pool(w.name)),
           f"{w.name}: one round did not time every p once: {run.p_used}")
    expect({m["name"] for m in spec["end_to_end"]} == set(metrics),
           f"{w.name}: end-to-end metrics differ from BENCHMARK.json")
    expect(all(v is not None and v > 0 for v in metrics.values()),
           f"{w.name}: an end-to-end metric is missing or zero: {metrics}")

    layer_runs = []
    for _ in range(2):
        run = new_run(w, refs, trace=True)
        layer_runs.append(run.measure_layers())
        expect(run.failed == 0, f"{w.name}: traced run failed or differs from untraced: "
                                f"{run.notes}")
    first, second = layer_runs
    expect(set(m["name"] for m in spec["per_layer"]) <= set(first),
           f"{w.name}: per-layer metrics missing: "
           f"{set(m['name'] for m in spec['per_layer']) - set(first)}")
    for key, value in first.items():
        if key.endswith(COUNT_FIELDS):
            expect(second[key] == value, f"{w.name}: count {key} differs between traced runs")

    bad = copy.deepcopy(refs)
    for p in timed_pool(w.name):
        if w.kind == "compute":
            bad[w.name]["sha256"][p] = "0" * 64
        else:
            bad[w.name]["windows"][p][0] += 1
    run = new_run(w, bad, trace=False)
    run.measure_end_to_end()
    expect(run.failed > 0, f"{w.name}: corrupted reference was not reported as failed")
    print(f"ok  {w.name}", flush=True)


def check_known_defect(refs: dict) -> None:
    w = next(t for t in TINY if t.name in KNOWN_DEFECTS)
    run = new_run(w, refs, trace=False)
    run.probe_untimed()
    untimed = [p for p in POOL if p != REFERENCE_P]
    expect([d["p"] for d in run.known_defects] == untimed,
           "the known prev-identity crash was not recorded at every p but 1/2")
    expect(all(d["failed"] > 0 and d["wall_s"] is None for d in run.known_defects),
           "the known crash must count failures and leave timings missing")
    expect(run.failed == 0, "the known crash must stay out of the gated failures")
    print(f"ok  known defect at p={', '.join(untimed)}: "
          f"failed_frac={run.known_defects[0]['failed_frac']:.2f}")


def check_absent_target() -> None:
    from tracer import LAYERS, LayerSpec, Tracer

    spec = LayerSpec("toda.gone", ("toda:GradedOperator.no_such_block", "toda:no_such_function"))
    tracer = Tracer(LAYERS + (spec,))
    tracer.install()
    report = tracer.report({}, {})
    expect(report["layers"]["toda.gone"]["absent"], "a missing target was not reported absent")
    expect(not report["layers"]["fock.matmul"]["absent"], "a present target was reported absent")
    fock = sys.modules["toda_crystal.fock"]
    symmetries = sys.modules["toda_crystal.symmetries"]
    expect(symmetries.v_op is fock.v_op and hasattr(fock.v_op, "__wrapped__"),
           "v_op is not wrapped at every import site")
    expect(fock.SectorOperator.__matmul__ is fock.SectorOperator.matmul,
           "the __matmul__ alias is not wrapped")
    print("ok  absent tracer target; wrappers at every import site")


def check_bare_directory() -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "commutators",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py must fail without printing a result when the sources are absent")
    print("ok  bare directory exits non-zero")


def main() -> int:
    sys.path.insert(0, str(SRC))
    spec = load_benchmark()
    refs = tiny_references()
    for w in TINY:
        check_workload(w, refs, spec)
    check_known_defect(refs)
    check_absent_target()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
