#!/usr/bin/env python3
"""Regenerate the golden fixture files.

Each fixture is produced by a route independent of the code path the
fixture later tests: the partition-function fixture comes from the
fermionic expectation value of the test oracles (tests/oracles.py), and
the tau fixture comes from inverting the main identity on the
sum-over-partitions series. Run from a source checkout:

    PYTHONPATH=src python scripts/generate_fixtures.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from toda_crystal import ModelParams, SeriesContext, torus_constant
from toda_crystal.algebra import alternate_t_signs, linear_form, negate_hatted, series_exp
from toda_crystal.models import zprime_series

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "fixtures"
# the fermionic route is a reference computation kept with the test oracles
sys.path.insert(0, str(ROOT / "tests"))
from oracles import fermionic_expectation  # noqa: E402


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


def main():
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
    print("fixtures written to", OUT)


if __name__ == "__main__":
    main()
