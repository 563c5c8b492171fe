"""One cold pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC

SPEC is a JSON object written by ``run.py`` with the keys ``mode``
(``calibrate``, ``setup``, ``pass`` or ``selftest``), ``spawn`` (the parent's
``time.monotonic()`` just before it started this process), and for a pass
``jobs``, ``trace`` and ``spans_path``.  The worker prints one JSON object
on stdout and exits 0; it exits non-zero when ``twoloop`` cannot be
imported or a cache is not empty before the job list.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "calibrate":
        calibrate(CALIBRATION_STEPS // 20)
        t0 = time.perf_counter()
        calibrate(CALIBRATION_STEPS)
        print(json.dumps({"calib_s": time.perf_counter() - t0}))
        return 0
    from twoloop import cli

    cli.build_parser()
    setup_s = time.monotonic() - spec["spawn"]
    if spec["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import contextlib
    import gc
    import hashlib
    import io
    import resource

    import tracer as tracing

    caches = lru_caches()
    warm = {n: c.cache_info().currsize for n, c in caches.items()
            if c.cache_info().currsize}
    if warm:
        print(f"caches are not empty before the job list: {warm}", file=sys.stderr)
        return 1
    tracer = None
    if spec["mode"] == "selftest" or spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    if spec["mode"] == "selftest":
        sys.modules["twoloop.sewing"].period_matrix(8, 6)
        mul = tracing.summarize(tracer.spans).get("series.mul", {})
        print(json.dumps({"pairs": mul.get("pairs", 0),
                          "pairs_kept": mul.get("pairs_kept", 0)}))
        return 0

    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    outputs = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for argv in spec["jobs"]:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a job that raises is counted as failed
            error = f"{type(exc).__name__}: {exc}"
        outputs.append((rc, out.getvalue(), error or err.getvalue().strip()))
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    gc.callbacks.remove(gc_clock)

    jobs = []
    for rc, text, error in outputs:
        data = text.encode()
        jobs.append({"rc": rc, "error": error, "bytes": len(data),
                     "sha256": hashlib.sha256(data).hexdigest(),
                     "text": text if len(data) < 65536 else None})
    if tracer is not None:
        tracer.write(spec["spans_path"])
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gc_pause_s": gc_clock.pause_s,
        "gc_collections": gc_clock.collections,
        "caches": {n: list(c.cache_info()[:2]) for n, c in caches.items()},
        "jobs": jobs,
    }))
    return 0


#: Steps of ``calibrate`` timed per calibration (0.2 to 0.35 s on a 2-vCPU
#: x86 VM, depending on the load its host is under).
CALIBRATION_STEPS = 400_000


def calibrate(steps: int) -> int:
    """Fixed pure-Python work, independent of ``twoloop``, that mixes what
    the library's kernels spend their time on: big-integer products, dict
    lookups and in-place list updates, and some ``Fraction`` arithmetic."""
    acc: dict[int, list] = {}
    get = acc.get
    frac = Fraction(0)
    for i in range(steps):
        p = (i * 2654435761) & 0xFFFF
        a = (i + 12345678901234567) * (p + 98765432109876543)
        cur = get(p & 1023)
        if cur is None:
            acc[p & 1023] = [a, -a]
        else:
            cur[0] += a
            cur[1] -= a
        if i % 64 == 0:
            frac += Fraction(i, p + 1)
    return len(acc)


def lru_caches() -> dict:
    """Every ``functools.lru_cache`` bound in a ``twoloop`` module, by
    qualified name."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "twoloop" or modname.startswith("twoloop."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_info", None)):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


class GcClock:
    """``gc.callbacks`` hook that sums collector pauses."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1


if __name__ == "__main__":
    sys.exit(main())
