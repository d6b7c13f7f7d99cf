"""Per-layer tracer for one toda-crystal CLI invocation.

Run as a child process:

    python3 perfbench/tracer.py TRACE_OUT.json -- <toda-crystal CLI arguments>

It imports the package, wraps the public functions named in LAYERS at every
place the package binds them (module globals, re-exports and class-attribute
aliases such as ``__matmul__ = matmul``), runs ``cli.main`` and writes the
per-layer table to TRACE_OUT.json. The program itself is not modified: spans
are recorded only around calls into the layers, from this file.

Accounting rules:
- A layer's self time is the time inside its spans minus the time inside the
  child spans they open; its inclusive time keeps the child spans.
- A call into a layer from inside the same layer is part of the open span:
  it is neither a new span nor a new call.
- Cache misses come from ``cache_info()`` deltas around the CLI call.
- A target that no longer exists is reported in ``absent`` instead of
  failing the run; a layer whose targets are all absent is reported absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "toda_crystal"


def _madds(args) -> int:
    """Multiply-adds of a sparse product A @ B: sum over nonzeros (i, k) of A
    of the nonzero count of row k of B."""
    a, b = args[0], args[1]
    brows = b.rows
    total = 0
    for row in a.rows.values():
        for k in row:
            r = brows.get(k)
            if r:
                total += len(r)
    return total


def _term_pairs(args) -> int:
    """Term pairs of a series product: the product of the operands' term
    counts (0 for multiplication by a scalar)."""
    a, b = args[0], args[1]
    other = getattr(b, "coeffs", None)
    if other is None:
        return 0
    return len(a.coeffs) * len(other)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    targets: tuple[str, ...]  # "module:qualname" inside the package
    counter: tuple[str, Callable] | None = None  # (metric suffix, fn(args) -> int)
    distinct_nnz: bool = False  # sum nnz over distinct returned operators
    cache: str | None = None  # target whose cache_info() gives misses


LAYERS: tuple[LayerSpec, ...] = (
    LayerSpec("cli.runner", ("cli:main",)),
    LayerSpec("cli.task", ("cli:_run_task",)),
    LayerSpec("partitions.basis", ("partitions:enumerate_partitions", "fock:Basis.__init__")),
    LayerSpec("fock.get_basis", ("fock:get_basis",), cache="fock:get_basis"),
    LayerSpec("fock.v_op", ("fock:v_op",), cache="fock:v_op"),
    LayerSpec("fock.op_arith", ("fock:SectorOperator.__add__", "fock:SectorOperator.__sub__",
                                "fock:SectorOperator.scale", "fock:SectorOperator.scale_rows",
                                "fock:SectorOperator.scale_cols")),
    LayerSpec("fock.matmul", ("fock:SectorOperator.matmul",), counter=("madds", _madds)),
    LayerSpec("fock.certificate", ("fock:ExactnessCertificate.certified",
                                   "fock:ExactnessCertificate.certified_pair_count")),
    LayerSpec("fock.transfer_operator", ("fock:transfer_operator", "fock:vertex_op")),
    LayerSpec("fock.transfer_pair", ("fock:transfer_pair",), distinct_nnz=True),
    LayerSpec("fock.apply", ("fock:apply_row", "fock:apply_col")),
    LayerSpec("toda.graded", ("toda:build_g", "toda:build_gprime")),
    LayerSpec("toda.tau", ("toda:tau_prime_series", "toda:tau_prev_series")),
    LayerSpec("toda.graded_block", ("toda:GradedOperator.block",
                                    "toda:GradedOperator.block_operator")),
    LayerSpec("toda.intertwining", ("toda:intertwining_residual",)),
    LayerSpec("models.partition_sum", ("models:zprime_series", "models:z_series",
                                       "models:zprime_special")),
    LayerSpec("algebra.series_mul", ("algebra:TruncatedSeries.__mul__",),
              counter=("term_pairs", _term_pairs)),
    LayerSpec("algebra.series_exp", ("algebra:series_exp",)),
    LayerSpec("symmetries.checks", ("symmetries:commutator_check",
                                    "symmetries:first_shift_check",
                                    "symmetries:second_shift_check")),
)


class _Layer:
    __slots__ = ("spec", "calls", "self_s", "incl_s", "work", "seen", "nnz", "counter_errors")

    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.work = 0
        self.seen: set[int] = set()
        self.nnz = 0
        self.counter_errors = 0


def _resolve(target: str):
    """The object bound to 'module:Qual.name' (class attributes unbound)."""
    mod_name, qual = target.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _binding_sites():
    """Every namespace of the package that can hold a name: module globals
    and the dicts of classes the package defines."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                yield value


class Tracer:
    def __init__(self, specs=LAYERS):
        importlib.import_module(PACKAGE)
        importlib.import_module(f"{PACKAGE}.cli")
        self.layers = {s.name: _Layer(s) for s in specs}
        self.absent: list[str] = []
        self.caches: dict[str, object] = {}
        self._root = _Layer(LayerSpec("root", ()))
        # frames: [layer, start, child time]
        self._stack: list[list] = [[self._root, 0.0, 0.0]]
        self.installed_sites = 0

    def install(self) -> None:
        # resolve caches first: wrapping replaces the cached callables
        for layer in self.layers.values():
            if layer.spec.cache:
                try:
                    self.caches[layer.spec.name] = _resolve(layer.spec.cache)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(layer.spec.cache)
        for layer in self.layers.values():
            for target in layer.spec.targets:
                try:
                    original = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(target)
                    continue
                self._install_one(original, self._wrap(original, layer))

    def _install_one(self, original, wrapper) -> None:
        for site in _binding_sites():
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapper)
                    self.installed_sites += 1

    def _wrap(self, fn, layer: _Layer):
        stack = self._stack
        clock = time.perf_counter
        counter = layer.spec.counter[1] if layer.spec.counter else None
        distinct_nnz = layer.spec.distinct_nnz

        def wrapper(*args, **kwargs):
            if stack[-1][0] is layer:
                return fn(*args, **kwargs)
            layer.calls += 1
            if counter is not None:
                try:
                    layer.work += counter(args)
                except (AttributeError, TypeError, IndexError):
                    layer.counter_errors += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                layer.self_s += elapsed - frame[2]
                layer.incl_s += elapsed
                stack[-1][2] += elapsed
            if distinct_nnz and id(result) not in layer.seen:
                layer.seen.add(id(result))
                layer.nnz += sum(len(row) for row in getattr(result, "rows", {}).values())
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    def report(self, before: dict, after: dict) -> dict:
        layers = {}
        for name, layer in self.layers.items():
            targets = layer.spec.targets
            present = [t for t in targets if t not in self.absent]
            entry = {"self_s": layer.self_s, "incl_s": layer.incl_s, "calls": layer.calls,
                     "absent": not present}
            if layer.spec.counter:
                entry[layer.spec.counter[0]] = layer.work
                if layer.counter_errors:
                    entry["counter_errors"] = layer.counter_errors
            if layer.spec.distinct_nnz:
                entry["nnz"] = layer.nnz
            if name in after:
                hits = after[name][0] - before[name][0]
                misses = after[name][1] - before[name][1]
                entry["misses"] = misses
                entry["miss_ratio"] = misses / (hits + misses) if hits + misses else 0.0
            layers[name] = entry
        return {"layers": layers, "absent": sorted(self.absent),
                "installed_sites": self.installed_sites}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_OUT.json -- <cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules[f"{PACKAGE}.cli"]
    before = tracer.cache_snapshot()
    rc = cli.main(cli_args)
    after = tracer.cache_snapshot()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.report(before, after), fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
