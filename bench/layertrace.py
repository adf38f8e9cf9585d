"""Layer spans for one flatrank CLI invocation.

Run as a child process of ``bench/run.py``:

    python3 bench/layertrace.py SPANS.json verify rankchow --cap d=5

It imports flatrank, wraps the functions named in ``TARGETS`` (and every
public function of ``flatrank.formulas``) in every flatrank module that bound
them, runs ``flatrank.labcli.main`` on the remaining arguments, restores the
original functions, writes the recorded spans and counts to SPANS.json and
exits with main's exit code.  ``summarize`` turns such a record into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter

# (module, attribute, role).  Roles: "build" returns a matrix built from a
# polynomial, "load" returns a matrix read from coordinate text, "rank" takes
# a matrix as its first argument, "dense" reduces a matrix to a dense array.
# A target that no longer exists is skipped and its metrics are left out.
TARGETS = (
    ("symtensor", "parse_poly", None),
    ("symtensor", "monomial_basis", None),
    ("symtensor", "partial_derivative", None),
    ("symtensor", "catalecticant", "build"),
    ("symtensor", "shifted_partials", "build"),
    ("koszul", "wedge_basis", None),
    ("koszul", "koszul_flattening", "build"),
    ("exactla", "SparseMatrix.__init__", None),
    ("exactla", "SparseMatrix.to_coordinate_text", None),
    ("exactla", "SparseMatrix.from_coordinate_text", "load"),
    ("exactla", "rank_auto", "rank"),
    ("exactla", "rank_exact", "rank"),
    ("exactla", "rank_modular", "rank"),
    ("exactla", "random_prime", None),
    ("exactla", "_integer_rows", None),
    ("exactla", "_sparse_integer_rank", None),
    ("exactla", "_dense_mod", "dense"),
    ("exactla", "_modular_rank_dense", None),
)

ROOT_SPAN = "labcli.main"
LAYERS = ("symtensor", "koszul", "exactla", "formulas")


def count_components(entries) -> int:
    """Connected components of the bipartite row/column graph of the nonzeros."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, j, _ in entries:
        row, col = ("r", i), ("c", j)
        parent.setdefault(row, row)
        parent.setdefault(col, col)
        a, b = find(row), find(col)
        if a != b:
            parent[a] = b
    return sum(1 for x in parent if parent[x] == x)


class Tracer:
    """Wraps flatrank functions while active and records spans in memory.

    A span is ``[name, parent index, start, end, matrix tag]``; spans are
    appended when they open, so a parent precedes its children.  Time spent
    on the tracer's own analysis (component counts) is excluded from every
    span and reported as ``excluded_s``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.shapes: list[list] = []
        self.ranked: list[int] = []
        self.dense: list[list[int]] = []
        self.installed: list[str] = []
        self.excluded_s = 0.0
        self._stack: list[int] = []
        self._tags: dict[int, int] = {}
        self._rank_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def _now(self) -> float:
        return time.perf_counter() - self.excluded_s

    def _open(self, name: str, tag=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._now(), None, tag])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = self._now()
        self._stack.pop()

    def _wrap(self, fn, name: str, role):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = None
            outer_rank = role == "rank" and tracer._rank_depth == 0
            if outer_rank:
                matrix = args[0]
                tag = tracer._tags.pop(id(matrix), None)
                started = time.perf_counter()
                tracer.ranked.append(count_components(matrix.entries()))
                tracer.excluded_s += time.perf_counter() - started
            elif role == "dense":
                matrix = args[0]
                tracer.dense.append([matrix.n_rows, matrix.n_cols, matrix.nnz])
            index = tracer._open(name, tag)
            tracer._rank_depth += role == "rank"
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._rank_depth -= role == "rank"
                tracer._close(index)
            if role in ("build", "load"):
                tracer._tags[id(result)] = index
                tracer.spans[index][4] = index
            if role == "build":
                poly = args[0]
                tracer.shapes.append([name, poly.n_vars, poly.degree,
                                      *args[1:], *kwargs.values()])
            return result

        return wrapper

    def _targets(self, modules):
        for module_name, attr, role in TARGETS:
            yield modules[module_name], attr, f"{module_name}.{attr}", role
        formulas = modules["formulas"]
        for attr, value in vars(formulas).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == formulas.__name__):
                yield formulas, attr, f"formulas.{attr}", None

    def __enter__(self) -> "Tracer":
        import flatrank.labcli  # noqa: F401  (loads every flatrank module)

        loaded = [m for n, m in sys.modules.items()
                  if n == "flatrank" or n.startswith("flatrank.")]
        modules = {m.__name__.rpartition(".")[2]: m for m in loaded}
        for module, attr, name, role in self._targets(modules):
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(method) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, role))
                else:
                    new = self._wrap(raw, name, role)
                setattr(owner, method, new)
                self._restore.append((owner, method, raw))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, role)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)
                            self._restore.append((other, key, original))
            self.installed.append(name)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def run(self, fn, *args):
        """Call ``fn(*args)`` inside the root span."""
        index = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "shapes": self.shapes,
            "ranked": self.ranked,
            "dense": self.dense,
            "installed": self.installed,
            "excluded_s": self.excluded_s,
        }


def _outermost(spans, index: int, same) -> bool:
    parent = spans[index][1]
    while parent >= 0:
        if same(spans[parent][0]):
            return False
        parent = spans[parent][1]
    return True


def summarize(record: dict, wall_s: float) -> dict:
    """Per-invocation sums: inclusive and self time per span name, calls,
    matrix latencies and the property counts.

    ``wall_s`` is the invocation wall time measured by the parent process.
    What it holds beyond the top-level layer spans and the tracer's own
    analysis is labcli's self time: interpreter start-up and imports,
    argument parsing, suite loops and rendering."""
    spans = record["spans"]
    inclusive: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    layer_s: Counter = Counter()
    child_s = [0.0] * len(spans)
    top_s = 0.0
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if spans[parent][0] == ROOT_SPAN:
                top_s += end - start
    latency: dict[int, float] = {}
    for index, (name, parent, start, end, tag) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_s[name] += duration - child_s[index]
        if _outermost(spans, index, lambda other: other == name):
            inclusive[name] += duration
        layer = name.partition(".")[0]
        if layer in LAYERS and _outermost(
                spans, index, lambda other: other.partition(".")[0] == layer):
            layer_s[layer] += duration
        if tag is not None:
            latency[tag] = latency.get(tag, 0.0) + duration
    seen = set()
    repeats = 0
    for shape in record["shapes"]:
        key = json.dumps(shape)
        repeats += key in seen
        seen.add(key)
    return {
        "installed": set(record["installed"]),
        "inclusive": inclusive,
        "self": self_s,
        "calls": calls,
        "layer": layer_s,
        "labcli_self_s": wall_s - top_s - record["excluded_s"],
        "latency_ms": [1000 * value for value in latency.values()],
        "builds": len(record["shapes"]),
        "repeats": repeats,
        "ranked": len(record["ranked"]),
        "split": sum(1 for c in record["ranked"] if c > 1),
        "dense_cells": sum(rows * cols for rows, cols, _ in record["dense"]),
        "dense_nnz": sum(nnz for _, _, nnz in record["dense"]),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples above it; the median when there are fewer than eleven."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics of one traced pass over a workload's invocations."""
    total: dict[str, Counter] = {
        key: Counter() for key in ("inclusive", "self", "calls", "layer")}
    for summary in summaries:
        for key, counter in total.items():
            counter.update(summary[key])
    installed = set.intersection(*(s["installed"] for s in summaries))

    def add(key):
        return sum(s[key] for s in summaries)

    incl, self_s, calls = total["inclusive"], total["self"], total["calls"]
    sources = {
        "symtensor.partial_derivative.s": ("symtensor.partial_derivative", incl),
        "symtensor.partial_derivative.calls": ("symtensor.partial_derivative", calls),
        "symtensor.monomial_basis.s": ("symtensor.monomial_basis", incl),
        "symtensor.monomial_basis.calls": ("symtensor.monomial_basis", calls),
        "symtensor.catalecticant.self_s": ("symtensor.catalecticant", self_s),
        "symtensor.shifted_partials.self_s": ("symtensor.shifted_partials", self_s),
        "symtensor.parse_poly.s": ("symtensor.parse_poly", incl),
        "koszul.koszul_flattening.self_s": ("koszul.koszul_flattening", self_s),
        "koszul.wedge_basis.s": ("koszul.wedge_basis", incl),
        "koszul.wedge_basis.calls": ("koszul.wedge_basis", calls),
        "exactla.SparseMatrix.init_s": ("exactla.SparseMatrix.__init__", incl),
        "exactla.modular.reduce_s": ("exactla._dense_mod", incl),
        "exactla.modular.eliminate_s": ("exactla._modular_rank_dense", incl),
        "exactla.exact.reduce_s": ("exactla._integer_rows", incl),
        "exactla.exact.eliminate_s": ("exactla._sparse_integer_rank", incl),
        "exactla.rank_exact.calls": ("exactla.rank_exact", calls),
        "exactla.rank_modular.calls": ("exactla.rank_modular", calls),
        "exactla.primes_drawn": ("exactla.random_prime", calls),
    }
    metrics = {metric: counter[name] for metric, (name, counter) in sources.items()
               if name in installed}
    coord = ("exactla.SparseMatrix.to_coordinate_text",
             "exactla.SparseMatrix.from_coordinate_text")
    if all(name in installed for name in coord):
        metrics["exactla.coord_io_s"] = sum(incl[name] for name in coord)
    if "exactla._dense_mod" in installed:
        cells = add("dense_cells")
        metrics["exactla.dense_mb"] = 8 * cells / 1e6
        metrics["exactla.dense_fill"] = add("dense_nnz") / cells if cells else 0.0
    for layer in ("symtensor", "koszul", "exactla"):
        metrics[f"{layer}.self_s"] = sum(
            value for name, value in self_s.items() if name.startswith(layer + "."))
    metrics["formulas.s"] = total["layer"]["formulas"]
    metrics["labcli.self_s"] = add("labcli_self_s")
    samples = [value for s in summaries for value in s["latency_ms"]]
    if samples:
        pct, value = tail(samples)
        metrics["matrix.latency_ms.p50"] = statistics.median(samples)
        metrics["matrix.latency_ms.tail"] = value
        metrics["matrix.latency_ms.tail_pct"] = pct
    metrics["matrix.samples"] = len(samples)
    builds, ranked = add("builds"), add("ranked")
    metrics["build.shape_repeat_share"] = add("repeats") / builds if builds else 0.0
    metrics["exactla.multi_component_share"] = (
        add("split") / ranked if ranked else 0.0)
    return metrics


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer:
        from flatrank import labcli

        code = tracer.run(labcli.main, cli_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.record(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
