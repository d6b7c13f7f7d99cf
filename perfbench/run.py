"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every measured invocation is a fresh
single-threaded `python -m toda_crystal.cli` process started after the
previous one ended (closed loop, one client), with TODA_CRYSTAL_THREADS
removed from its environment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. Each iteration
runs `python -m toda_crystal.cli <subcommand> --help` (set-up), then
perfbench/calibrate.py, a fixed piece of Fraction arithmetic, then the
workload. The set-up and workload times are divided by that calibration
time and multiplied by CALIBRATION_NOMINAL_S, which removes the machine's
momentary speed; wall_s, cpu_s (against the calibration's CPU time) and
setup_s are the medians of these scaled times, peak_rss_mib the median
peak RSS. The unscaled samples and their medians are kept in the record.

--trace 1 alternates untraced invocations with invocations under
perfbench/tracer.py and reports the per-layer metrics of BENCHMARK.json:
median self times over the traced invocations, exact counts, and the tracing
overhead (median over adjacent pairs of traced wall / untraced wall, - 1).

Every invocation's output is checked against perfbench/references.json.
The last stdout line is the result object; the line before it is the run
record (environment, seed, the p of every iteration, samples). Both are also
saved under .perfbench_out/ for perfbench/table.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    KNOWN_DEFECTS,
    POOL,
    WORKLOADS,
    Workload,
    check_output,
    load_references,
    normalized,
    p_order,
    reference_for,
    timed_pool,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "toda_crystal"
CALIBRATE_CMD = [sys.executable, str(BENCH_DIR / "calibrate.py")]
# Times are reported in seconds of a machine on which calibrate.py takes
# this long; see measure_end_to_end and NOTES.md.
CALIBRATION_NOMINAL_S = 0.18


@dataclass
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: bytes
    stderr: bytes

    @property
    def finished(self) -> bool:
        """The CLI wrote its report: it exited 0 (all pass) or 1 (a check
        failed) with output. A crash leaves stdout empty."""
        return self.returncode in (0, 1) and bool(self.stdout.strip())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TODA_CRYSTAL_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(cmd: list[str], env: dict[str, str]) -> Sample:
    """Launch one process, wait for it, and take wall time from launch to
    exit plus the child's own rusage."""
    OUT_DIR.mkdir(exist_ok=True)
    out_path, err_path = OUT_DIR / "stdout.tmp", OUT_DIR / "stderr.tmp"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    out_path.unlink()
    err_path.unlink()
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, stdout, stderr)


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "toda_crystal.cli", *argv]


def traced_cmd(argv: list[str], trace_path: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), "--", *argv]


def source_facts() -> dict:
    files = sorted(PACKAGE_DIR.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def pool_mean(per_p: dict[str, list[float]], pool: tuple[str, ...]) -> float | None:
    """Mean over the timed p of the median at each p; missing unless every p
    has a sample."""
    medians = [median(per_p.get(p, [])) for p in pool]
    return None if None in medians else statistics.fmean(medians)


class Run:
    """State of one benchmark run: inputs, checks, samples."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 references: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = child_env()
        self.references = references
        self.timed = timed_pool(workload.name)
        self.p_order = p_order(seed, workload.name)
        self.p_used: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.known_defects: list[dict] = []
        self.notes: list[str] = []
        self.samples: dict = {}
        self.medians: dict = {}

    def _compare(self, sample: Sample, p: str) -> tuple[int, int]:
        ref = reference_for(self.references, self.workload.name, p)
        return check_output(self.workload.kind, sample.stdout, ref, p)

    def check(self, sample: Sample, p: str) -> bool:
        attempted, failed = self._compare(sample, p)
        self.attempted += attempted
        self.failed += failed
        return failed == 0 and sample.finished

    def probe_untimed(self) -> None:
        """Run once at each pool p the workload is not timed at (a known
        crash): record that crash as a known defect, count anything else."""
        signature = KNOWN_DEFECTS.get(self.workload.name)
        for p in POOL:
            if p in self.timed:
                continue
            sample = run_process(cli_cmd(self.workload.argv(p)), self.env)
            attempted, failed = self._compare(sample, p)
            if failed and signature in sample.stderr.decode(errors="replace"):
                self.known_defects.append({
                    "p": p, "error": signature, "attempted": attempted, "failed": failed,
                    "failed_frac": failed / attempted, "wall_s": None, "cpu_s": None,
                    "peak_rss_mib": None})
            else:
                self.attempted += attempted
                self.failed += failed

    def warm_up(self) -> None:
        """First process in a checkout compiles bytecode; keep it out of the
        timed samples."""
        run_process(cli_cmd([self.workload.args[0], "--help"]), self.env)

    def _done(self, start: float, last_iteration: float, iterations: int) -> bool:
        """Stop before an iteration would run past the measuring time, once
        every timed p has had its turn."""
        return (iterations >= len(self.timed)
                and time.perf_counter() - start + last_iteration > self.seconds)

    def measure_end_to_end(self) -> dict:
        setup_cmd = cli_cmd([self.workload.args[0], "--help"])
        raw: dict[str, list[float]] = {"setup_s": [], "calibration_s": [],
                                       "calibration_cpu_s": []}
        raw_per_p: dict[str, dict[str, list[float]]] = {
            name: {p: [] for p in self.timed} for name in ("wall_s", "cpu_s", "peak_rss_mib")}
        scaled_setup: list[float] = []
        scaled_per_p: dict[str, dict[str, list[float]]] = {
            name: {p: [] for p in self.timed} for name in ("wall_s", "cpu_s")}
        start, iterations = time.perf_counter(), 0
        while True:
            t0 = time.perf_counter()
            p = next(self.p_order)
            self.p_used.append(p)
            setup = run_process(setup_cmd, self.env)
            calibration = run_process(CALIBRATE_CMD, self.env)
            if calibration.returncode != 0:
                raise SystemExit(f"calibration failed: {calibration.stderr.decode()}")
            raw["calibration_s"].append(calibration.wall_s)
            raw["calibration_cpu_s"].append(calibration.cpu_s)
            wall_scale = CALIBRATION_NOMINAL_S / calibration.wall_s
            cpu_scale = CALIBRATION_NOMINAL_S / calibration.cpu_s
            if setup.returncode == 0:
                raw["setup_s"].append(setup.wall_s)
                scaled_setup.append(setup.wall_s * wall_scale)
            sample = run_process(cli_cmd(self.workload.argv(p)), self.env)
            if self.check(sample, p):
                raw_per_p["wall_s"][p].append(sample.wall_s)
                raw_per_p["cpu_s"][p].append(sample.cpu_s)
                raw_per_p["peak_rss_mib"][p].append(sample.rss_mib)
                scaled_per_p["wall_s"][p].append(sample.wall_s * wall_scale)
                scaled_per_p["cpu_s"][p].append(sample.cpu_s * cpu_scale)
            elif not sample.finished:
                self.notes.append(f"invocation at p={p} did not finish (exit "
                                  f"{sample.returncode}); its timings are not counted")
            iterations += 1
            if self._done(start, time.perf_counter() - t0, iterations):
                break
        self.samples = {**raw, **raw_per_p}
        self.medians = {name: median(values) for name, values in raw.items()}
        self.medians.update({name: pool_mean(per_p, self.timed)
                             for name, per_p in raw_per_p.items()})
        return {"wall_s": pool_mean(scaled_per_p["wall_s"], self.timed),
                "cpu_s": pool_mean(scaled_per_p["cpu_s"], self.timed),
                "peak_rss_mib": self.medians["peak_rss_mib"],
                "setup_s": median(scaled_setup)}

    def measure_layers(self) -> dict:
        """Traced and untraced invocations alternate, all at the first p of
        the seeded order, so that the counts of every traced invocation
        must agree."""
        p = next(self.p_order)
        self.p_used.append(p)
        cmd = cli_cmd(self.workload.argv(p))
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / "trace.tmp.json"
        untraced, traced, ratios, reports = [], [], [], []
        start, iterations = time.perf_counter(), 0
        while True:
            t0 = time.perf_counter()
            plain = run_process(cmd, self.env)
            plain_ok = self.check(plain, p)
            if plain_ok:
                untraced.append(plain.wall_s)
            sample = run_process(traced_cmd(self.workload.argv(p), trace_path), self.env)
            if self.check(sample, p) and trace_path.exists():
                traced.append(sample.wall_s)
                if plain_ok:
                    ratios.append(sample.wall_s / plain.wall_s)
                with open(trace_path) as fh:
                    reports.append(json.load(fh))
                if plain_ok and (normalized(self.workload.kind, sample.stdout)
                                 != normalized(self.workload.kind, plain.stdout)):
                    self.failed += 1
                    self.notes.append("traced output differs from untraced output")
            trace_path.unlink(missing_ok=True)
            iterations += 1
            if self._done(start, time.perf_counter() - t0, iterations):
                break
        self.samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
        return layer_metrics(reports, median(ratios), self.notes)

    def record(self, metrics: dict) -> dict:
        return {
            "workload": self.workload.name,
            "args": list(self.workload.args),
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "p_timed": list(self.timed),
            "p_per_iteration": self.p_used,
            "known_defects": self.known_defects,
            "failed_frac": self.failed / self.attempted if self.attempted else None,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **source_facts(),
            "TODA_CRYSTAL_THREADS": {"measured_processes": "unset",
                                     "benchmark_process": os.environ.get("TODA_CRYSTAL_THREADS")},
            "samples": self.samples,
            "raw_medians": self.medians,
            "metrics": metrics,
            "notes": self.notes,
        }


def layer_metrics(reports: list[dict], traced_ratio: float | None, notes: list[str]) -> dict:
    """Flatten tracer reports into '<layer>.<field>' metrics: median self and
    inclusive times, counts from the first report (they must repeat exactly)."""
    if not reports:
        return {}
    out = {}
    first = reports[0]["layers"]
    for name, entry in first.items():
        for field, value in entry.items():
            if field in ("absent", "counter_errors"):
                continue
            key = f"{name}.{field}"
            if field in ("self_s", "incl_s"):
                out[key] = statistics.median(r["layers"][name][field] for r in reports)
            else:
                out[key] = value
                if any(r["layers"][name][field] != value for r in reports[1:]):
                    notes.append(f"{key} differs between traced invocations")
    absent = [n for n, e in first.items() if e["absent"]]
    if absent or reports[0]["absent"]:
        notes.append(f"absent layers {absent}, absent targets {reports[0]['absent']}")
    if traced_ratio is not None:
        out["trace.overhead_frac"] = traced_ratio - 1.0
    return out


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the invocation it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: no toda_crystal sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_benchmark()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
              load_references())
    run.warm_up()
    run.probe_untimed()
    measured = run.measure_layers() if args.trace else run.measure_end_to_end()
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"], 0.0 if args.trace else None)
        if value is not None:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = run.failed == 0 and len(metrics) == len(wanted)
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed if run.attempted else 1, "metrics": metrics}
    record = run.record(measured)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
