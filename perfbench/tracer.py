"""Outside-in span tracer for the benchmark's traced runs.

The tracer replaces a library function with a timing wrapper in every
``weylsymbols`` module namespace that holds it, not only in the module that
defines it: ``engine`` does ``from .jinduction import j_induce``, so patching
``jinduction.j_induce`` alone would miss every call made from ``engine``.
Each call becomes one span (layer, start, end, parent span).  Spans stay in
memory, in flat arrays, until the pass ends; a layer's self time is its
spans' durations minus the durations of their direct children.

    python3 perfbench/tracer.py .perfbench_work/verify-r10/spans-verify-r10.tsv

prints the per-layer split of a span file, for the whole pass and for each
classical family's part of it.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

ROOT = "bench"
HEADER = "# span\tlayer\tparent\tstart_ns\tend_ns\n"


class Tracer:
    """Span recorder for one pass; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, layers: Sequence[str], blocks: Sequence[str] = (),
                 counters: dict[str, Callable[[object], int]] | None = None):
        # layers are "<module>.<function>" names under the weylsymbols
        # package; blocks are spans the benchmark opens itself
        self.layers = list(layers)
        self.names = [ROOT, *blocks, *layers]
        self.counters = counters or {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = {name: 0 for name in self.counters}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def block(self, name: str = ROOT) -> Iterator[None]:
        """A span the benchmark opens; the root span encloses the pass."""
        if name == ROOT and self.layer:
            raise RuntimeError("the root span must be the first span")
        idx = self._open(self.names.index(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, layer_id: int, name: str, fn: Callable) -> Callable:
        open_, close = self._open, self._close
        counter = self.counters.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = open_(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                counts[name] += counter(result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "weylsymbols"
                                         or key.startswith("weylsymbols."))]
        for name in self.layers:
            layer_id = self.names.index(name)
            mod_name, func = name.split(".")
            home = sys.modules.get(f"weylsymbols.{mod_name}")
            if home is None:
                # a module the workload never imports makes no calls
                continue
            original = getattr(home, func)
            wrapper = self._wrap(layer_id, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus direct children's."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def _has_ancestor(self, idx: int, layer_id: int) -> bool:
        par = self.parent[idx]
        while par >= 0 and self.layer[par] != layer_id:
            par = self.parent[par]
        return par >= 0

    def summary(self, within: str | None = None) -> dict[str, dict[str, float]]:
        """Layer name -> {"self_s", "total_s", "calls"}, over every span or
        over the spans inside blocks of the given name.  ``total_s`` counts
        each span with its children, but not a span nested in a span of its
        own layer."""
        inside = None
        if within is not None:
            # a parent is always recorded before its children
            block = self.names.index(within)
            inside = []
            for layer_id, par in zip(self.layer, self.parent):
                inside.append(layer_id == block or (par >= 0 and inside[par]))
        out = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
               for name in self.names}
        for idx, own in enumerate(self.self_times()):
            if inside is not None and not inside[idx]:
                continue
            layer_id = self.layer[idx]
            row = out[self.names[layer_id]]
            row["self_s"] += own * 1e-9
            row["calls"] += 1
            if not self._has_ancestor(idx, layer_id):
                row["total_s"] += (self.end[idx] - self.start[idx]) * 1e-9
        return out

    def calls_under(self, layer: str, ancestor: str) -> int:
        """Number of spans of one layer with the other layer on their stack."""
        target = self.names.index(layer)
        above = self.names.index(ancestor)
        return sum(self._has_ancestor(idx, above)
                   for idx, layer_id in enumerate(self.layer)
                   if layer_id == target)

    def wall_s(self) -> float:
        """Duration of the root span, in seconds."""
        return (self.end[0] - self.start[0]) * 1e-9

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line (layer, parent, start
        and end in ns relative to the root span's start)."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w") as fh:
            fh.write(HEADER)
            for idx, layer_id in enumerate(self.layer):
                fh.write(f"{idx}\t{self.names[layer_id]}\t{self.parent[idx]}\t"
                         f"{self.start[idx] - t0}\t{self.end[idx] - t0}\n")

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """Read back a span file written by ``dump``."""
        tracer = cls([])
        with open(path) as fh:
            if fh.readline() != HEADER:
                raise ValueError(f"{path} is not a span file")
            for line in fh:
                _, name, parent, start, end = line.rstrip("\n").split("\t")
                if name not in tracer.names:
                    tracer.names.append(name)
                tracer.layer.append(tracer.names.index(name))
                tracer.parent.append(int(parent))
                tracer.start.append(int(start))
                tracer.end.append(int(end))
        return tracer


def main(argv: list[str]) -> int:
    """Print a span file's per-layer split, over the whole pass and inside
    each ``family.*`` block."""
    tracer = Tracer.load(argv[0])
    blocks = sorted(n for n in tracer.names if n.startswith("family."))
    for block in [ROOT, *blocks]:
        print(f"{block:<36} {'self_s':>9} {'total_s':>9} {'calls':>8}")
        for layer, row in tracer.summary(block).items():
            if row["calls"]:
                print(f"  {layer:<34} {row['self_s']:9.4f} "
                      f"{row['total_s']:9.4f} {row['calls']:8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
