"""Print every metric of the last runs, one row per workload.

    python3 perfbench/table.py [--run]

With --run it first runs every workload at seed 0 with and without tracing
(perfbench/run.py, run_seconds from BENCHMARK.json). It then reads the
results saved under .perfbench_out/ and prints, for each workload, every
end-to-end and per-layer metric of BENCHMARK.json as name=value unit, then
failed_frac, the p timed, known defects and the src/ line count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import OUT_DIR, ROOT, load_benchmark
from workloads import WORKLOADS


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def row(name: str, spec: dict) -> str:
    cells = [name]
    facts: dict = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        path = OUT_DIR / f"{name}.trace{trace}.json"
        saved = json.loads(path.read_text()) if path.exists() else None
        metrics = saved["result"]["metrics"] if saved else {}
        for metric in spec[key]:
            value = metrics.get(metric["name"], {}).get("value")
            cells.append(f"{metric['name']}={_fmt(value)} {metric['unit']}")
        if saved:
            record = saved["record"]
            facts.setdefault("failed_frac", record["failed_frac"])
            facts.setdefault("p", ",".join(record["p_timed"]))
            facts.setdefault("src_lines", record["src_lines"])
            if record["known_defects"]:
                facts["known_defects"] = record["known_defects"]
    cells.append(f"failed_frac={_fmt(facts.get('failed_frac'))} ratio")
    cells.append(f"p={facts.get('p', 'missing')}")
    cells.append(f"src_lines={facts.get('src_lines', 'missing')}")
    for defect in facts.get("known_defects", []):
        cells.append(f"known_defect[p={defect['p']}]={defect['error']!r} "
                     f"failed_frac={_fmt(defect['failed_frac'])}")
    return "  ".join(cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run", action="store_true", help="run every workload first")
    args = parser.parse_args(argv)
    spec = load_benchmark()
    if args.run:
        for name in WORKLOADS:
            for trace in (0, 1):
                subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                                "--workload", name, "--seed", "0",
                                "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                               cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    for name in WORKLOADS:
        print(row(name, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
