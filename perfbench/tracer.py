"""Span tracer that wraps the public functions of ``twoloop`` from outside.

:meth:`Tracer.install` replaces every public function of every loaded
``twoloop`` module, and ``PrefSeries.invert``, with a wrapper that records a
span ``(name, start, end, parent, data)``.  Modules import each other's
functions by name (``from .series import mul``), so each wrapper is bound
into every ``twoloop.*`` namespace that holds the original; rebinding only
``twoloop.series.mul`` would miss the calls from ``sewing``, ``siegel`` and
``elliptic``.

Spans of ``series.mul``, ``verify.eval_series``, ``lattice.enumerate_shells``,
``lattice.theta_g2`` and ``acceptance.run_criterion`` carry counts or the
criterion id (``Tracer._hooks``).  Counting runs after the span has
closed, and span times are read from ``perf_counter`` minus the time spent
counting so far, so no span is charged for it.  Spans stay in memory until
:meth:`Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

#: Bound on pair-exponent sums materialised at once when counting kept pairs.
_CHUNK_PAIRS = 1 << 20


def mul_pair_counts(a, b, out) -> tuple[int, int]:
    """Pair products ``series.mul(a, b)`` computes, and how many of them
    have an exponent sum within ``out.vars``' ``kmax()`` in every variable."""
    pairs = len(a.terms) * len(b.terms)
    if not pairs:
        return 0, 0
    merged = out.vars
    if not merged:
        return pairs, pairs
    ka = np.array(list(a._aligned_to(merged)), dtype=np.int64)
    kb = np.array(list(b._aligned_to(merged)), dtype=np.int64)
    room = np.array([v.kmax() for v in merged], dtype=np.int64) - kb
    step = max(1, _CHUNK_PAIRS // len(kb))
    kept = 0
    for i in range(0, len(ka), step):
        fits = ka[i:i + step, None, :] <= room[None, :, :]
        kept += int(fits.all(axis=2).sum())
    return pairs, kept


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._excluded = 0.0
        self._tables: dict[int, object] = {}
        self._hooks = {
            "series.mul": self._count_mul,
            "verify.eval_series": self._count_eval,
            "lattice.enumerate_shells": self._count_shells,
            "lattice.theta_g2": self._count_theta_g2,
            "acceptance.run_criterion": lambda args, result: {"id": args[0]},
        }

    # -- counting hooks (run outside every span's clock) ------------------

    def _count_mul(self, args, result):
        pairs, kept = mul_pair_counts(args[0], args[1], result)
        return {"pairs": pairs, "pairs_kept": kept, "out_terms": len(result.terms)}

    def _count_eval(self, args, result):
        from twoloop.series import PrefSeries
        return {"terms": len(PrefSeries.coerce(args[0]).body.terms)}

    def _count_shells(self, args, result):
        if id(result) in self._tables:
            return {"vectors": 0}
        self._tables[id(result)] = result
        return {"vectors": sum(len(v) for v in result.shells.values())}

    def _count_theta_g2(self, args, result):
        return {"pairs": sum(int(c.re) for c in result.terms.values())}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock() - self._excluded
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock() - self._excluded
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if hook is not None:
                t = clock()
                spans[index] = (name, start, end, parent, hook(args, result))
                self._excluded += clock() - t
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of all loaded ``twoloop`` modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "twoloop" or n.startswith("twoloop.")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__
                        and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        # the serialisation boundary of the CLI is private
        cli = sys.modules["twoloop.cli"]
        wrappers[id(cli._emit)] = (cli._emit, self.wrap("cli._emit", cli._emit))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        pref = sys.modules["twoloop.series"].PrefSeries
        pref.invert = self.wrap("series.PrefSeries.invert", pref.invert)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def summarize(spans) -> dict[str, dict]:
    """Per span name: ``calls``, ``self_s``, ``total_s`` and the sums of
    the counts the spans carry.  Self time is a span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, parent, data), inner in zip(spans, child):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - inner
        row["total_s"] += end - start
        for key, value in (data or {}).items():
            if isinstance(value, int):
                row[key] = row.get(key, 0) + value
    return out


def outermost_s(spans, names: set[str]) -> float:
    """Time inside spans named in ``names``, not counting a span nested in
    another such span twice."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def criterion_seconds(spans) -> dict[str, float]:
    """Duration of each ``acceptance.run_criterion`` span by criterion id."""
    return {data["id"]: end - start for name, start, end, _, data in spans
            if name == "acceptance.run_criterion"}
