"""Command-line front end: verification suites and series exports.

Reports are emitted as one JSON object per line with the fields
{check, params, status, evidence, wall_ms}; lines are sorted canonically
before writing so reruns are diffable. Exit codes: 0 all checks passed,
1 at least one check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from . import toda
from .algebra import SeriesContext, parse_rational
from .fock import SectorConfig
from .models import ModelParams, z_series, zprime_series
from .symmetries import (
    CheckReport,
    commutator_check,
    first_shift_check,
    second_shift_check,
)

TARGETS = ("zprime", "z", "tau-prime", "tau-prev", "zprime-special")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    p: Fraction
    s_list: list[int]
    l_list: list[int]
    K: int
    D: int
    NQ: int
    N: int | None
    out: str | None
    form: str = "left"

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        try:
            p = parse_rational(args.p)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse --p {args.p!r}: {exc}") from None
        if not 0 < p < 1:
            raise UsageError("--p must satisfy 0 < p < 1")
        try:
            s_list = [int(x) for x in str(args.s).split(",") if x != ""]
            l_list = [int(x) for x in str(args.l).split(",") if x != ""]
        except ValueError as exc:
            raise UsageError(f"cannot parse charge/weight lists: {exc}") from None
        if not s_list or not l_list:
            raise UsageError("--s and --l must be nonempty")
        if args.K < 1 or args.D < 0 or args.NQ < 0:
            raise UsageError("need K >= 1, D >= 0, NQ >= 0")
        N = args.N
        if N is not None and N < max(args.NQ, args.K * args.D):
            raise UsageError(
                f"--N {N} is below the certified requirement "
                f"max(NQ, K*D) = {max(args.NQ, args.K * args.D)}")
        return cls(p, s_list, l_list, args.K, args.D, args.NQ, N, args.out,
                   getattr(args, "form", "left"))

    @property
    def ctx(self) -> SeriesContext:
        return SeriesContext(self.K, self.D, self.NQ)

    def params(self, s: int, l: int) -> ModelParams:
        return ModelParams(s, l, self.p, self.ctx, self.N)

    def derived_N(self) -> int:
        return self.N if self.N is not None else max(self.NQ, self.K * self.D)


# ---------------------------------------------------------------------------
# verify

class CheckKind(NamedTuple):
    """One kind of report line: the suite that runs it, its parameter points
    for a run configuration, and the runner of one task."""

    suite: str
    grid: Callable[[RunConfig], list[dict]]
    run: Callable[[dict], CheckReport]


def _sector(task: dict) -> SectorConfig:
    return SectorConfig(task["s"], task["N"], parse_rational(task["p"]))


def _model(task: dict) -> ModelParams:
    return ModelParams(task["s"], task["l"], parse_rational(task["p"]),
                       SeriesContext(task["K"], task["D"], task["NQ"]), task["N"])


def _s_l(cfg: RunConfig) -> list[dict]:
    return [{"s": s, "l": l} for s in cfg.s_list for l in cfg.l_list]


def _centers(cfg: RunConfig) -> list[dict]:
    # the charge family is built from the charge-0 model point
    return [{"s": 0, "l": l, "centers": list(cfg.s_list)} for l in cfg.l_list]


def _bilinear(build_family, family: str) -> Callable[[dict], CheckReport]:
    """Runner of the lowest Toda equation on the charges around the centers."""
    def run(task: dict) -> CheckReport:
        centers = task["centers"]
        charges = range(min(centers) - 1, max(centers) + 2)
        rep = toda.toda_bilinear_residual(build_family(_model(task), charges))
        rep.params["l"] = task["l"]
        rep.params["family"] = family
        return rep
    return run


CHECKS: dict[str, CheckKind] = {
    "commutator": CheckKind(
        "commutators",
        lambda cfg: [{"s": s, "k": k, "l": l, "m": m, "n": n} for s in cfg.s_list
                     for k in range(-2, 3) for l in range(-2, 3)
                     for m in range(-3, 4) for n in range(-3, 4)],
        lambda t: commutator_check(t["k"], t["m"], t["l"], t["n"], _sector(t))),
    "first_shift": CheckKind(
        "shift",
        lambda cfg: [{"s": s, "variant": variant, "k": k, "m": m} for s in cfg.s_list
                     for variant in ("G", "Gprime") for k in (1, 2) for m in range(-2, 3)],
        lambda t: first_shift_check(t["variant"], t["k"], t["m"], _sector(t))),
    "second_shift": CheckKind(
        "shift",
        lambda cfg: [{"s": s, "k": k, "m": m} for s in cfg.s_list
                     for k in range(-2, 3) for m in range(-2, 3)],
        lambda t: second_shift_check(t["k"], t["m"], _sector(t))),
    "ground_action": CheckKind(
        "main-identity",
        lambda cfg: [{"s": s} for s in cfg.s_list],
        lambda t: toda.ground_action_constants(t["s"], parse_rational(t["p"]), t["N"])),
    "main_identity": CheckKind(
        "main-identity", _s_l, lambda t: toda.verify_main_identity(_model(t))),
    "prev_identity": CheckKind(
        "prev-identity", _s_l, lambda t: toda.verify_prev_identity(_model(t))),
    "prev_forms": CheckKind(
        "prev-identity", _s_l, lambda t: toda.check_prev_forms(_model(t))),
    "prev_reduction": CheckKind(
        "prev-identity", _s_l, lambda t: toda.check_prev_reduction(_model(t))),
    "intertwining_true": CheckKind(
        "prev-identity",
        lambda cfg: [{"s": s, "l": l, "k": k} for s in cfg.s_list for l in cfg.l_list
                     for k in (1, 2) if k <= cfg.K],
        lambda t: toda.intertwining_residual("g_true", t["k"], _model(t))),
    "bilinear_tau_prime": CheckKind(
        "toda-bilinear", _centers, _bilinear(toda.tau_prime_family, "tau_prime")),
    "bilinear_zprime": CheckKind(
        "toda-bilinear", _centers, _bilinear(toda.zprime_family, "zprime")),
    "toeplitz_fake": CheckKind(
        "toeplitz",
        lambda cfg: [{"s": s, "l": l, "k": 1} for s in cfg.s_list for l in cfg.l_list],
        lambda t: toda.intertwining_residual("gprime_fake", t["k"], _model(t))),
    "trivial_tau": CheckKind(
        "toeplitz", _s_l, lambda t: toda.trivial_tau_compare(_model(t))),
}
SUITES = (*dict.fromkeys(kind.suite for kind in CHECKS.values()), "all")


def _task_list(suite: str, cfg: RunConfig) -> list[dict]:
    base = {"p": str(cfg.p), "K": cfg.K, "D": cfg.D, "NQ": cfg.NQ, "N": cfg.derived_N()}
    return [{**base, "kind": name, **point} for name, kind in CHECKS.items()
            if suite in (kind.suite, "all") for point in kind.grid(cfg)]


def _run_task(task: dict) -> dict:
    t0 = time.monotonic()
    try:
        rep = CHECKS[task["kind"]].run(task)
    except toda.CalibrationError as exc:
        raise SystemExit(f"bilinear calibration failed: {exc}")
    line = rep.to_json_dict()
    line["wall_ms"] = int((time.monotonic() - t0) * 1000)
    return line


def _sort_key(line: dict) -> tuple:
    return (line["check"], json.dumps(line["params"], sort_keys=True))


def _worker_count(n_tasks: int) -> int:
    """TODA_CRYSTAL_THREADS clamped to the CPU count and the number of tasks;
    a clamp is reported on stderr."""
    threads = os.environ.get("TODA_CRYSTAL_THREADS", "")
    if not threads:
        return 1
    try:
        requested = max(1, int(threads))
    except ValueError:
        raise UsageError(f"TODA_CRYSTAL_THREADS must be an integer, got {threads!r}")
    cpus = os.cpu_count() or 1
    workers = min(requested, cpus, max(1, n_tasks))
    if workers < requested:
        print(f"TODA_CRYSTAL_THREADS={requested} clamped to {workers} "
              f"({cpus} CPUs, {n_tasks} tasks)", file=sys.stderr)
    return workers


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    tasks = _task_list(suite, cfg)
    workers = _worker_count(len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            lines = pool.map(_run_task, tasks)
    else:
        lines = [_run_task(t) for t in tasks]
    lines.sort(key=_sort_key)
    payload = "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    n_pass = sum(1 for line in lines if line["status"] == "pass")
    print(f"{suite}: {n_pass}/{len(lines)} checks passed", file=sys.stderr)
    return 0 if n_pass == len(lines) else 1


# ---------------------------------------------------------------------------
# compute

def cmd_compute(cfg: RunConfig, target: str) -> int:
    if len(cfg.s_list) != 1 or len(cfg.l_list) != 1:
        raise UsageError("compute expects a single --s and a single --l")
    s, l = cfg.s_list[0], cfg.l_list[0]
    if target == "zprime-special":
        # s = 0 with the couplings off
        params = ModelParams(0, l, cfg.p, SeriesContext(1, 0, cfg.NQ))
    else:
        params = cfg.params(s, l)
    if target in ("zprime", "zprime-special"):
        series = zprime_series(params)
    elif target == "z":
        series = z_series(params)
    elif target == "tau-prime":
        series = toda.tau_prime_series(params).series
    elif target == "tau-prev":
        series = toda.tau_prev_series(params, cfg.form).series
    else:
        raise UsageError(f"unknown target {target!r}")
    doc = {
        "target": target,
        "params": {"p": str(cfg.p), "s": params.s, "l": l, "K": params.ctx.K,
                   "D": params.ctx.D, "NQ": params.ctx.NQ, "N": params.N},
        "series": series.to_json_dict(),
    }
    if target == "tau-prev":
        doc["params"]["form"] = cfg.form
    payload = json.dumps(doc, separators=(",", ":")) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toda-crystal",
        description="Exact verification and series export for the crystal models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--p", default="1/2", help="rational p = q^(1/2), e.g. 1/2")
        sp.add_argument("--s", default="-1,0,1", help="comma-separated charges")
        sp.add_argument("--l", default="0,1", help="comma-separated insertion weights")
        sp.add_argument("--K", type=int, default=3, help="tracked couplings per family")
        sp.add_argument("--D", type=int, default=3, help="total coupling-degree cap")
        sp.add_argument("--NQ", type=int, default=4, help="Q-degree cap")
        sp.add_argument("--N", type=int, default=None,
                        help="fock cutoff override (defaults to max(NQ, K*D))")
        sp.add_argument("--out", default=None, help="output file (stdout when absent)")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    add_common(pv)

    pc = sub.add_parser("compute", help="compute and export a series")
    pc.add_argument("target", choices=TARGETS)
    add_common(pc)
    pc.add_argument("--form", default="left",
                    choices=("left", "symmetric", "right", "reduced_2d"),
                    help="presentation for tau-prev")
    return parser


def _glue_negative_lists(argv: list[str]) -> list[str]:
    # argparse rejects values like -1,0,1 after --s; fold them into --s=...
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--s", "--l") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_negative_lists(list(argv)))
    try:
        cfg = RunConfig.from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        return cmd_compute(cfg, args.target)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
