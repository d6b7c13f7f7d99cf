"""Regenerate perfbench/references.json from the current sources.

    python3 perfbench/make_references.py

For every workload and every p in POOL it stores what a correct invocation
must print: for verify workloads each line's (check, params) and its
evidence.window, for compute workloads the sha256 of the output document.

Two cases are not taken from the CLI output alone:
- tau-export: before its hash is stored, the program's `verify main-identity`
  runs at the same size and p and must pass: Z' from the independent
  partition-sum route equals prefactor . tau'. A failure aborts without
  writing.
- A (workload, p) with a known crash (workloads.KNOWN_DEFECTS): the checks
  that run are computed task by task; a check that crashes takes its window
  from the REFERENCE_P run, which is what a fixed program must reach (an
  intertwining window counts certified entries, which does not involve p).
"""

from __future__ import annotations

import json
import sys

from run import SRC, child_env, cli_cmd, run_process
from workloads import (
    KNOWN_DEFECTS,
    POOL,
    REFERENCE_P,
    REFERENCES,
    WORKLOADS,
    line_key,
    output_sha256,
    verify_windows,
)


def cross_check_tau_prime(workload, p: str, env: dict) -> None:
    """Run the program's own main-identity check at the workload's size: it
    compares Z' from the sum over partitions with prefactor . tau' from the
    fermion sector, two routes that share no kernel."""
    args = list(workload.args)
    args[:2] = ["verify", "main-identity"]
    sample = run_process(cli_cmd([*args, "--p", p]), env)
    lines = [json.loads(text) for text in sample.stdout.decode().splitlines() if text.strip()]
    if sample.returncode != 0 or not lines or any(x["status"] != "pass" for x in lines):
        raise SystemExit(f"tau-export at p={p}: main identity does not pass:\n"
                         f"{sample.stdout.decode()}{sample.stderr.decode()}")


def defect_windows(workload, p: str, base: dict[str, int]) -> dict[str, int]:
    """Windows at a p where the CLI crashes: run each task alone."""
    from toda_crystal import cli

    args = cli._build_parser().parse_args(cli._glue_negative_lists(workload.argv(p)))
    cfg = cli.RunConfig.from_args(args)
    windows = {}
    for task in cli._task_list(args.suite, cfg):
        try:
            line = cli._run_task(task)
        except ValueError as exc:
            if str(exc) not in KNOWN_DEFECTS[workload.name]:
                raise
            continue
        windows[line_key(line)] = line["evidence"]["window"]
    for key, window in base.items():
        windows.setdefault(key, window)
    if windows.keys() != base.keys():
        raise SystemExit(f"{workload.name} at p={p}: check set differs from p={REFERENCE_P}")
    return windows


def main() -> int:
    sys.path.insert(0, str(SRC))
    env = child_env()
    refs: dict[str, dict] = {}
    order = [REFERENCE_P] + [p for p in POOL if p != REFERENCE_P]
    for name, workload in WORKLOADS.items():
        hashes, windows = {}, {}
        for p in order:
            sample = run_process(cli_cmd(workload.argv(p)), env)
            stderr = sample.stderr.decode()
            if workload.kind == "compute":
                if sample.returncode != 0:
                    raise SystemExit(f"{name} at p={p} failed:\n{stderr}")
                if name == "tau-export":
                    cross_check_tau_prime(workload, p, env)
                hashes[p] = output_sha256(sample.stdout)
            elif sample.returncode == 0:
                windows[p] = verify_windows(sample.stdout.decode())
            elif KNOWN_DEFECTS.get(name, "\0") in stderr:
                windows[p] = defect_windows(workload, p, windows[REFERENCE_P])
            else:
                raise SystemExit(f"{name} at p={p} failed:\n{stderr}")
            print(f"{name} p={p}: {sample.wall_s:.1f} s", file=sys.stderr)
        if hashes:
            refs[name] = {"sha256": hashes}
        else:
            keys = sorted(windows[REFERENCE_P])
            if any(windows[p].keys() != set(keys) for p in POOL):
                raise SystemExit(f"{name}: the check set depends on p")
            refs[name] = {"checks": keys,
                          "windows": {p: [windows[p][k] for k in keys] for p in POOL}}
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
