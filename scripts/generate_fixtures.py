#!/usr/bin/env python3
"""Regenerate the golden fixture files.

Each fixture is produced by a route independent of the code path the
fixture later tests: the partition-function fixture comes from the
fermionic expectation value of the test oracles (tests/oracles.py), the
tau fixtures come from inverting the main identity on the
sum-over-partitions series, and each report fixture holds the line count and
sha256 of report lines at the defaults, every line taken from a Fraction
oracle of the test oracles: the `verify commutators` report at one p from
the commutator oracle (at p = 1/2 every off-diagonal V numerator is a power
of two, so a second p, 2/3, is fixed too), the `verify shift` report at
p = 1/2 from the Fraction oracles of the two checks of `shifts`, which read
the torus constant from that module, and the intertwining lines
of `verify prev-identity`, then those of `verify toeplitz`, at p = 1/2 from
the intertwining oracle. The series-report pins are not from an oracle: they
hold the package's own report lines, without wall_ms, of the four series
suites (`verify main-identity`, `prev-identity`, `toeplitz` and
`toda-bilinear`) at the benchmark's prev-identity shape (--K 2 --D 3, NQ 4,
N 6) and p = 1/2 and 2/3, written before the tau side's series arithmetic was
rewritten in integers, so every later change to their bytes shows. The export
pins are not from an oracle either: each is the package's own `compute` output
for a partition sum (`zprime`, `zprime-special` or `z`) at p = 2/3, written
before the exports were formatted from integer numerators. Run from a source
checkout:

    PYTHONPATH=src python scripts/generate_fixtures.py
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from toda_crystal import ModelParams, SectorConfig, SeriesContext, torus_constant
from toda_crystal.models import zprime_series

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "fixtures"
# the fermionic route and the Fraction series arithmetic are reference
# computations kept with the test oracles
sys.path.insert(0, str(ROOT / "tests"))
from oracles import (  # noqa: E402
    alternate_t_signs,
    fermionic_expectation,
    fraction_commutator_check,
    fraction_first_shift_check,
    fraction_intertwining_residual,
    fraction_second_shift_check,
    linear_form,
    negate_hatted,
    series_exp,
)

# the file of each commutator fixture by p, and what its command changes
COMMUTATORS = {"1/2": ("commutators_N9_p1of2.json", "(defaults: N=9, s=-1,0,1, p=1/2)"),
               "2/3": ("commutators_N9_p2of3.json", "--p 2/3 (other defaults: N=9, s=-1,0,1)")}
# the file of each other report fixture, all at p = 1/2 and the other defaults
SHIFT = "shift_N9_p1of2.json"
INTERTWINING = "intertwining_N9_p1of2.json"
# the tau' fixtures at p = 2/3, s = 0, l = 1, by file: the series caps
# (K, D, NQ) and the cutoff N, at N = NQ (the tau-export shape) and N > NQ
TAU_PRIME = {"tau_prime_s0_l1_p2of3_N8.json": ((3, 2, 8), 8),
             "tau_prime_s0_l1_p2of3_N7.json": ((2, 2, 2), 7)}
# the series-report pins by p, each holding the lines of every series suite at
# the shape SERIES_SHAPE (other defaults: NQ = 4, s = -1,0,1, l = 0,1)
SERIES_SUITES = ("main-identity", "prev-identity", "toeplitz", "toda-bilinear")
SERIES_SHAPE = ("--K", "2", "--D", "3")
SERIES_REPORTS = {"1/2": "series_reports_N6_p1of2.json", "2/3": "series_reports_N6_p2of3.json"}
# the export pins by file: the compute arguments, run at --p 2/3, two shapes
# per partition-sum target, one of them at s = -1
EXPORTS = {
    "export_zprime_p2of3_s0.json": ("zprime", "--s", "0", "--l", "1", "--K", "2", "--D", "3",
                                    "--NQ", "4"),
    "export_zprime_p2of3_s-1.json": ("zprime", "--s", "-1", "--l", "0", "--K", "3", "--D", "2",
                                     "--NQ", "3"),
    "export_zprime_special_p2of3_s0.json": ("zprime-special", "--s", "0", "--l", "1", "--NQ", "6"),
    "export_zprime_special_p2of3_s-1.json": ("zprime-special", "--s", "-1", "--l", "0",
                                             "--NQ", "4"),
    "export_z_p2of3_s0.json": ("z", "--s", "0", "--l", "1", "--K", "3", "--D", "3", "--NQ", "4"),
    "export_z_p2of3_s-1.json": ("z", "--s", "-1", "--l", "1", "--K", "2", "--D", "2", "--NQ", "5"),
}


def tau_prime_by_inversion(params: ModelParams):
    """tau'(s,t,th) = exp(-sum_k c(k)(-1)^k t_k - c(-k)(-th_k)) Z'(s, eps(t), -th)
    with c(j) = q^j/(1-q^j); uses only the sum-over-partitions route."""
    zp = zprime_series(params)
    z_sub = negate_hatted(alternate_t_signs(zp))
    K, p = params.ctx.K, params.p
    lin = linear_form(
        params.out_ctx,
        {k: -torus_constant(k, p) * (-1) ** k for k in range(1, K + 1)},
        {k: torus_constant(-k, p) for k in range(1, K + 1)},
    )
    return series_exp(lin) * z_sub


def report_text(line: dict) -> str:
    """A report line as the CLI writes it, without its wall_ms field."""
    return json.dumps({k: v for k, v in line.items() if k != "wall_ms"},
                      separators=(",", ":")) + "\n"


def in_cli_order(lines: list[dict]) -> list[str]:
    """Report lines as the CLI writes them: by check, then by the parameters
    as sorted-key JSON."""
    lines = sorted(lines, key=lambda line: (line["check"], json.dumps(line["params"], sort_keys=True)))
    return [report_text(line) for line in lines]


def commutator_lines(p: str) -> list[str]:
    """The lines of `verify commutators --p p` at the other defaults
    (N = max(NQ, K*D) = 9, s = -1, 0, 1), each from the Fraction oracle."""
    return in_cli_order([
        fraction_commutator_check(k, m, l, n, SectorConfig(s, 9, Fraction(p))).to_json_dict()
        for s in (-1, 0, 1) for k in range(-2, 3) for l in range(-2, 3)
        for m in range(-3, 4) for n in range(-3, 4)])


def shift_lines() -> list[str]:
    """The lines of `verify shift` at the defaults (p = 1/2, N = 9,
    s = -1, 0, 1), each from the Fraction first- or second-shift oracle."""
    configs = [SectorConfig(s, 9, Fraction(1, 2)) for s in (-1, 0, 1)]
    return in_cli_order(
        [fraction_first_shift_check(variant, k, m, config).to_json_dict() for config in configs
         for variant in ("G", "Gprime") for k in (1, 2) for m in range(-2, 3)]
        + [fraction_second_shift_check(k, m, config).to_json_dict() for config in configs
           for k in range(-2, 3) for m in range(-2, 3)])


def intertwining_lines() -> list[str]:
    """The intertwining lines of `verify prev-identity` (g_true, k = 1, 2),
    then those of `verify toeplitz` (gprime_fake, k = 1), at the defaults
    (p = 1/2, K = D = 3, NQ = 4, N = 9, s = -1, 0, 1, l = 0, 1), each from the
    Fraction intertwining oracle."""
    models = [ModelParams(s, l, Fraction(1, 2), SeriesContext(3, 3, 4))
              for s in (-1, 0, 1) for l in (0, 1)]
    return (in_cli_order([fraction_intertwining_residual("g_true", k, model).to_json_dict()
                          for model in models for k in (1, 2)])
            + in_cli_order([fraction_intertwining_residual("gprime_fake", 1, model).to_json_dict()
                            for model in models]))


def series_report_lines(suite: str, p: str) -> list[str]:
    """The lines of `verify suite --K 2 --D 3 --p p`, run by the package in
    this process, each without its trailing newline."""
    from toda_crystal import cli

    cfg = cli.RunConfig.from_args(cli._build_parser().parse_args(
        ["verify", suite, *SERIES_SHAPE, "--p", p]))
    lines = sorted(map(cli._run_task, cli._task_list(suite, cfg)), key=cli._sort_key)
    return [report_text(line).rstrip("\n") for line in lines]


def lines_digest(lines: list[str]) -> dict:
    return {"lines": len(lines), "sha256": hashlib.sha256("".join(lines).encode()).hexdigest()}


def write_series_fixtures():
    OUT.mkdir(exist_ok=True)
    p = Fraction(1, 2)

    params = ModelParams(0, 0, p, SeriesContext(2, 2, 2))
    doc = {
        "generated_by": "fermionic expectation value, cutoff N=4",
        "params": {"p": "1/2", "s": 0, "l": 0},
        "series": fermionic_expectation(params, "Zprime").to_json_dict(),
    }
    (OUT / "zprime_p1of2_l0.json").write_text(json.dumps(doc, indent=1) + "\n")

    doc = {
        "generated_by": "main identity inverted on the partition-sum series",
        "params": {"p": "1/2", "s": 0, "l": 0},
        "series": tau_prime_by_inversion(params).to_json_dict(),
    }
    (OUT / "tau_prime_s0_l0_p1of2.json").write_text(json.dumps(doc, indent=1) + "\n")

    for name, (caps, N) in TAU_PRIME.items():
        doc = {
            "generated_by": "main identity inverted on the partition-sum series",
            "params": {"p": "2/3", "s": 0, "l": 1, "N": N},
            "series": tau_prime_by_inversion(
                ModelParams(0, 1, Fraction(2, 3), SeriesContext(*caps), N)).to_json_dict(),
        }
        (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")


def write_report_fixture(name: str, generated_by: str, command: str, lines: list[str]):
    doc = {
        "generated_by": generated_by,
        "command": command,
        "format": "each line as the CLI writes it without wall_ms, in the CLI's order",
        **lines_digest(lines),
    }
    (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")


def write_report_fixtures():
    OUT.mkdir(exist_ok=True)
    for p, (name, args) in COMMUTATORS.items():
        write_report_fixture(name, "Fraction commutator oracle over the verify commutators grid",
                             f"toda-crystal verify commutators {args}", commutator_lines(p))
    write_report_fixture(SHIFT, "Fraction first- and second-shift oracles over the verify shift grid",
                         "toda-crystal verify shift (defaults: N=9, s=-1,0,1, p=1/2)", shift_lines())
    write_report_fixture(
        INTERTWINING, "Fraction intertwining oracle over the intertwining grids",
        "the intertwining lines of toda-crystal verify prev-identity, then of verify toeplitz "
        "(defaults: K=D=3, NQ=4, N=9, s=-1,0,1, l=0,1, p=1/2)", intertwining_lines())


def write_series_report_pins():
    OUT.mkdir(exist_ok=True)
    for p, name in SERIES_REPORTS.items():
        doc = {
            "generated_by": "the package's own verify reports, pinned before the integer series",
            "command": f"toda-crystal verify SUITE {' '.join(SERIES_SHAPE)} --p {p} "
                       "(other defaults: NQ=4, N=6, s=-1,0,1, l=0,1)",
            "format": "each line as the CLI writes it without wall_ms, in the CLI's order",
            "reports": {suite: series_report_lines(suite, p) for suite in SERIES_SUITES},
        }
        (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")


def write_export_pins():
    """Each export pin as the CLI writes it, byte for byte."""
    from toda_crystal import cli

    OUT.mkdir(exist_ok=True)
    for name, args in EXPORTS.items():
        if cli.main(["compute", *args, "--p", "2/3", "--out", str(OUT / name)]):
            raise RuntimeError(f"compute {' '.join(args)} failed")


def main():
    write_series_fixtures()
    write_report_fixtures()
    write_series_report_pins()
    write_export_pins()
    print("fixtures written to", OUT)


if __name__ == "__main__":
    main()
