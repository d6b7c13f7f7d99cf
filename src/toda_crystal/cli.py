"""Command-line front end: verification suites and series exports.

A subcommand imports only the modules its tasks call: `--help` loads none
beyond `algebra`, a `compute` target its own model or tau module, and each
check kind looks its runner up in its module when a task runs: the
commutators in `symmetries`, the two shift symmetries in `shifts`, and the
series identities in `identities`.

`verify` runs its tasks one after another in this process, in grid order,
so each model point's caches (pair tables, g_n blocks, time vectors) are
built once and read by every task at that point.

Reports are emitted as one JSON object per line with the fields
{check, params, status, evidence, wall_ms}; lines are sorted canonically
before writing so reruns are diffable. A check that raises gives a line with
status 'error'. Exit codes: 0 every line passed, 1 any line's status is not
'pass' (insufficient_window too), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from .algebra import ModelParams, SeriesContext, parse_rational

if TYPE_CHECKING:
    from .checks import CheckReport
    from .fock import SectorConfig

TARGETS = ("zprime", "z", "tau-prime", "tau-prev", "zprime-special")


class UsageError(Exception):
    pass


class RunConfig(NamedTuple):
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
        for flag, values in (("--s", s_list), ("--l", l_list)):
            repeated = [x for i, x in enumerate(values) if x in values[:i]]
            if repeated:
                # a repeated point would give duplicate report lines
                raise UsageError(f"{flag} repeats the value {repeated[0]}")
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


def _module(name: str):
    """The package module `name`, imported when a task first calls into it,
    so a subcommand loads only the modules its tasks use. Every call looks
    its function up there, where a test or a tracer may have replaced it.
    __import__ takes the interpreter's own import path, which
    `python -X importtime` reports, and importlib.import_module does not."""
    full = f"{__package__}.{name}"
    __import__(full)
    return sys.modules[full]


# ---------------------------------------------------------------------------
# verify

class CheckKind(NamedTuple):
    """One kind of report line: the suite that runs it, its parameter points
    for a run configuration, and the runner of one task."""

    suite: str
    grid: Callable[[RunConfig], list[dict]]
    run: Callable[[dict], CheckReport]


@lru_cache(maxsize=None)
def _sector_config(s: int, N: int, p: str) -> SectorConfig:
    return _module("fock").SectorConfig(s, N, parse_rational(p))


def _sector(task: dict) -> SectorConfig:  # one shared config per task point
    return _sector_config(task["s"], task["N"], task["p"])


def _model(task: dict) -> ModelParams:
    return ModelParams(task["s"], task["l"], parse_rational(task["p"]),
                       SeriesContext(task["K"], task["D"], task["NQ"]), task["N"])


def _s_l(cfg: RunConfig) -> list[dict]:
    return [{"s": s, "l": l} for s in cfg.s_list for l in cfg.l_list]


def _centers(cfg: RunConfig) -> list[dict]:
    # the charge family is built from the charge-0 model point
    return [{"s": 0, "l": l, "centers": list(cfg.s_list)} for l in cfg.l_list]


def _identity(name: str) -> Callable[[dict], CheckReport]:
    """Runner of the identities check `name` on the task's model point."""
    return lambda t: getattr(_module("identities"), name)(_model(t))


def _bilinear(family: str) -> Callable[[dict], CheckReport]:
    """Runner of the lowest Toda equation on the charges around the centers,
    for the tau family built by identities.<family>_family."""
    def run(task: dict) -> CheckReport:
        centers = task["centers"]
        charges = range(min(centers) - 1, max(centers) + 2)
        identities = _module("identities")
        rep = identities.bilinear_family_check(getattr(identities, f"{family}_family"),
                                               _model(task), charges)
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
        lambda t: _module("symmetries").commutator_check(t["k"], t["m"], t["l"], t["n"],
                                                         _sector(t))),
    "first_shift": CheckKind(
        "shift",
        lambda cfg: [{"s": s, "variant": variant, "k": k, "m": m} for s in cfg.s_list
                     for variant in ("G", "Gprime") for k in (1, 2) for m in range(-2, 3)],
        lambda t: _module("shifts").first_shift_check(t["variant"], t["k"], t["m"],
                                                      _sector(t))),
    "second_shift": CheckKind(
        "shift",
        lambda cfg: [{"s": s, "k": k, "m": m} for s in cfg.s_list
                     for k in range(-2, 3) for m in range(-2, 3)],
        lambda t: _module("shifts").second_shift_check(t["k"], t["m"], _sector(t))),
    "ground_action": CheckKind(
        "main-identity",
        lambda cfg: [{"s": s} for s in cfg.s_list],
        lambda t: _module("identities").ground_action_constants(
            t["s"], parse_rational(t["p"]), t["N"])),
    "main_identity": CheckKind("main-identity", _s_l, _identity("verify_main_identity")),
    "prev_identity": CheckKind("prev-identity", _s_l, _identity("verify_prev_identity")),
    "prev_forms": CheckKind("prev-identity", _s_l, _identity("check_prev_forms")),
    "prev_reduction": CheckKind("prev-identity", _s_l, _identity("check_prev_reduction")),
    "intertwining_true": CheckKind(
        "prev-identity",
        lambda cfg: [{"s": s, "l": l, "k": k} for s in cfg.s_list for l in cfg.l_list
                     for k in (1, 2) if k <= cfg.K],
        lambda t: _module("identities").intertwining_residual("g_true", t["k"], _model(t))),
    "bilinear_tau_prime": CheckKind("toda-bilinear", _centers, _bilinear("tau_prime")),
    "bilinear_zprime": CheckKind("toda-bilinear", _centers, _bilinear("zprime")),
    "toeplitz_fake": CheckKind(
        "toeplitz",
        lambda cfg: [{"s": s, "l": l, "k": 1} for s in cfg.s_list for l in cfg.l_list],
        lambda t: _module("identities").intertwining_residual("gprime_fake", t["k"], _model(t))),
    "trivial_tau": CheckKind("toeplitz", _s_l, _identity("trivial_tau_compare")),
}
SUITES = (*dict.fromkeys(kind.suite for kind in CHECKS.values()), "all")


def _task_list(suite: str, cfg: RunConfig) -> list[dict]:
    base = {"p": str(cfg.p), "K": cfg.K, "D": cfg.D, "NQ": cfg.NQ, "N": cfg.derived_N()}
    return [{**base, "kind": name, **point} for name, kind in CHECKS.items()
            if suite in (kind.suite, "all") for point in kind.grid(cfg)]


def _run_task(task: dict) -> dict:
    """One report line; a check that raises gives an 'error' line named by the
    task, with the exception's type and message, and a traceback on stderr."""
    t0 = time.monotonic()
    try:
        line = CHECKS[task["kind"]].run(task).to_json_dict()
    except Exception as exc:
        import traceback

        traceback.print_exc(file=sys.stderr)
        point = {k: v for k, v in task.items() if k != "kind"}
        line = {"check": task["kind"], "params": point, "status": "error",
                "evidence": {"type": type(exc).__name__, "message": str(exc)}}
    line["wall_ms"] = int((time.monotonic() - t0) * 1000)
    return line


# each encoder is built once: json.dumps with non-default arguments builds a
# new JSONEncoder on every call
_sorted_json = json.JSONEncoder(sort_keys=True).encode
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _sort_key(line: dict) -> tuple:
    return (line["check"], _sorted_json(line["params"]))


def _writer(path: str | None):
    """The --out file, or stdout, opened before any work starts."""
    try:
        return open(path, "w") if path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot open --out {path!r}: {exc.strerror}") from None


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    with _writer(cfg.out) as out:
        lines = sorted(map(_run_task, _task_list(suite, cfg)), key=_sort_key)
        out.write("".join(_compact_json(line) + "\n" for line in lines))
    n_pass = sum(1 for line in lines if line["status"] == "pass")
    print(f"{suite}: {n_pass}/{len(lines)} checks passed", file=sys.stderr)
    return 0 if n_pass == len(lines) else 1


# ---------------------------------------------------------------------------
# compute

def cmd_compute(cfg: RunConfig, target: str) -> int:
    if len(cfg.s_list) != 1 or len(cfg.l_list) != 1:
        raise UsageError("compute expects a single --s and a single --l")
    s, l = cfg.s_list[0], cfg.l_list[0]
    with _writer(cfg.out) as out:
        if target == "zprime-special":
            # s = 0 with the couplings off
            params = ModelParams(0, l, cfg.p, SeriesContext(1, 0, cfg.NQ))
        else:
            params = cfg.params(s, l)
        if target in ("zprime", "zprime-special"):
            series = _module("models").zprime_series(params)
        elif target == "z":
            series = _module("models").z_series(params)
        elif target == "tau-prime":
            series = _module("toda").tau_prime_series(params).to_truncated()
        else:  # tau-prev; argparse restricts the target to TARGETS
            series = _module("toda").tau_prev_series(params, cfg.form).to_truncated()
        doc = {
            "target": target,
            "params": {"p": str(cfg.p), "s": params.s, "l": l, "K": params.ctx.K,
                       "D": params.ctx.D, "NQ": params.ctx.NQ, "N": params.N},
            "series": series.to_json_dict(),
        }
        if target == "tau-prev":
            doc["params"]["form"] = cfg.form
        out.write(_compact_json(doc) + "\n")
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
