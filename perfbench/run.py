"""Cold-cache benchmark of the ``twoloop`` command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (``src/twoloop`` must exist).
Each cold pass runs a workload's job list (``workloads.py``) through
``twoloop.cli.main`` in a fresh interpreter with empty caches, single
threaded and with ``TWO_LOOP_THREADS`` unset, and checks every output.

``--trace 0`` repeats set-up probes and cold passes for about ``--seconds``
seconds and reports the median of each end-to-end metric in
``BENCHMARK.json``, times scaled to a reference host speed (see
``end_to_end``).  ``--trace 1`` runs one untraced and one traced pass
plus the kernel-counter self-test, and reports the per-layer metrics;
``layers.json`` names the end-to-end metric and workloads each should move.

The last line of stdout is the result object; the line before it records
the seed, source revision, Python version, CPU count and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 6
#: Reference duration of one calibration (``worker.calibrate``): end-to-end
#: times are reported as seconds on a host that calibrates in this time.
CALIB_REF_S = 0.25
#: period_matrix(8, 6): pair products computed and kept (see ROADMAP.md).
SELFTEST_PAIRS = (1_664_385, 34_433)
ACCEPTANCE_IDS = [str(i) for i in range(1, 14)]


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("TWO_LOOP_THREADS", None)
    # bytecode is never cached, so every set-up compiles the library the same way
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.env = worker_env(root)
        work = HERE / "work"
        work.mkdir(exist_ok=True)
        gram = work / "e8e8.json"
        gram.write_text(workloads.e8e8_gram_json())
        self.templates = workloads.jobs(workload, seed)
        self.jobs = [[str(gram) if a == workloads.GRAM else a for a in argv]
                     for argv in self.templates]
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.spans_path = work / f"spans-{workload}-{seed}.json"
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, spec: dict) -> dict:
        spec["spawn"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def run_pass(self, trace: bool) -> dict:
        result = self.spawn({"mode": "pass", "jobs": self.jobs, "trace": trace,
                             "spans_path": str(self.spans_path)})
        for argv, job in zip(self.templates, result["jobs"]):
            self.attempted += 1
            why = job_failure(argv, job, self.reference)
            if why:
                self.failures.append(f"{' '.join(argv)}: {why}")
        return result

    def selftest(self) -> None:
        got = self.spawn({"mode": "selftest"})
        self.attempted += 1
        if (got["pairs"], got["pairs_kept"]) != SELFTEST_PAIRS:
            self.failures.append(f"period_matrix(8, 6) mul pairs/kept "
                                 f"{got['pairs']}/{got['pairs_kept']}, expected "
                                 f"{SELFTEST_PAIRS[0]}/{SELFTEST_PAIRS[1]}")


def job_failure(argv: list[str], job: dict, reference: dict) -> str | None:
    """Why a job's result is wrong, or None."""
    if job["error"] and job["rc"] is None:
        return job["error"]
    if job["rc"] != 0:
        return f"exit code {job['rc']}: {job['error']}"
    kind = workloads.job_kind(argv)
    if kind == "exact":
        want = reference.get(workloads.job_key(argv))
        return None if job["sha256"] == want else f"sha256 {job['sha256']} != {want}"
    payload = json.loads(job["text"])
    if kind == "numeric":
        return None if payload.get("passed") is True else f"check failed: {payload}"
    statuses = Counter(r["status"] for r in payload["results"])
    if statuses != Counter({"pass": 13, "not checked": 3}) or payload["passed"] is not True:
        return f"verify-all statuses {dict(statuses)}"
    return None


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Set-up probes, then cold passes while another one of average length
    fits in ``seconds``, with a calibration before and after each pass.

    Times are reported in reference seconds: each is scaled by
    ``CALIB_REF_S`` over the calibration time measured next to it, so that a
    host running slower for a while (which this benchmark's shared 2-vCPU
    VM did by up to 1.6x for minutes at a time) does not read as a slower
    program.  The unscaled medians go to the metadata line."""
    start = time.monotonic()

    def calibration():
        return runner.spawn({"mode": "calibrate"})["calib_s"]

    setups = [runner.spawn({"mode": "setup"})["setup_s"] for _ in range(SETUP_PROBES)]
    calibs = [calibration()]
    passes, first = [], time.monotonic()
    while True:
        passes.append(runner.run_pass(trace=False))
        calibs.append(calibration())
        now = time.monotonic()
        if now - start + (now - first) / len(passes) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    scales = [2 * CALIB_REF_S / (before + after) for before, after in zip(calibs, calibs[1:])]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] * k for p, k in zip(passes, scales)),
        "cpu_s": statistics.median(p["cpu_s"] * k for p, k in zip(passes, scales)),
        "setup_s": statistics.median(setups) * CALIB_REF_S / statistics.median(calibs),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    samples = {"passes": len(passes), "setup_samples": len(setups),
               "unscaled_wall_s": statistics.median(p["wall_s"] for p in passes),
               "unscaled_cpu_s": statistics.median(p["cpu_s"] for p in passes),
               "unscaled_setup_s": statistics.median(setups),
               "wall_s_samples": [p["wall_s"] for p in passes],
               "calib_s_samples": calibs}
    return metrics, samples


def per_layer(runner: Runner) -> tuple[dict, dict]:
    """One untraced and one traced pass, and the kernel-counter self-test."""
    base = runner.run_pass(trace=False)
    traced = runner.run_pass(trace=True)
    runner.selftest()
    spans = json.loads(runner.spans_path.read_text())["spans"]
    rows = tracing.summarize(spans)

    def row(name):
        return rows.get(name, {})

    def total(prefix, key, skip=()):
        return sum(r.get(key, 0) for n, r in rows.items()
                   if n.startswith(prefix) and n not in skip)

    mul = row("series.mul")
    m = {
        "series.mul.calls": mul.get("calls", 0),
        "series.mul.self_s": mul.get("self_s", 0.0),
        "series.mul.pairs": mul.get("pairs", 0),
        "series.mul.pairs_kept": mul.get("pairs_kept", 0),
        "series.mul.kept_ratio": (mul["pairs_kept"] / mul["pairs"]
                                  if mul.get("pairs") else 0.0),
        "series.mul.out_terms": mul.get("out_terms", 0),
    }
    for metric, span in (("series.invert", "series.PrefSeries.invert"),
                         ("series.exp_series", "series.exp_series"),
                         ("series.substitute", "series.substitute"),
                         ("series.pow_int", "series.pow_int")):
        m[f"{metric}.calls"] = row(span).get("calls", 0)
        m[f"{metric}.self_s"] = row(span).get("self_s", 0.0)
    m["elliptic.calls"] = total("elliptic.", "calls")
    m["elliptic.self_s"] = total("elliptic.", "self_s")
    m["lattice.enumerate_shells.self_s"] = row("lattice.enumerate_shells").get("self_s", 0.0)
    m["lattice.enumerate_shells.vectors"] = row("lattice.enumerate_shells").get("vectors", 0)
    m["lattice.theta_g2.self_s"] = row("lattice.theta_g2").get("self_s", 0.0)
    m["lattice.theta_g2.pairs"] = row("lattice.theta_g2").get("pairs", 0)
    for name in ("period_matrix", "fourier_params", "fourier_to_sewing"):
        m[f"sewing.{name}.self_s"] = row(f"sewing.{name}").get("self_s", 0.0)
    m["siegel.theta_char.self_s"] = row("siegel.theta_char").get("self_s", 0.0)
    m["siegel.forms.self_s"] = total("siegel.", "self_s", {"siegel.theta_char"})
    m["partition.self_s"] = total("partition.", "self_s")
    ev = row("verify.eval_series")
    m["verify.eval_series.calls"] = ev.get("calls", 0)
    m["verify.eval_series.terms"] = ev.get("terms", 0)
    m["verify.eval_series.self_s"] = ev.get("self_s", 0.0)
    m["verify.checks.self_s"] = total("verify.", "self_s", {"verify.eval_series"})
    criteria = tracing.criterion_seconds(spans)
    for ident in ACCEPTANCE_IDS:
        m[f"acceptance.criterion_s.{ident}"] = criteria.get(ident, 0.0)
    m["cli.serialize_s"] = tracing.outermost_s(spans, {"series.to_json_dict", "cli._emit"})
    m["cli.output_bytes"] = sum(j["bytes"] for j in traced["jobs"])
    caches = traced["caches"]
    m["cache.hits"] = sum(h for h, _ in caches.values())
    m["cache.misses"] = sum(s for _, s in caches.values())
    for fn in ("period_matrix", "enumerate_shells", "eisenstein_hat"):
        hits, misses = next(v for n, v in caches.items() if n.endswith(f".{fn}"))
        m[f"cache.{fn}.hits"] = hits
        m[f"cache.{fn}.misses"] = misses
    m["gc.pause_s"] = traced["gc_pause_s"]
    m["gc.collections"] = traced["gc_collections"]
    m["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    samples = {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
               "spans": len(spans)}
    return m, samples


def source_revision(root: Path) -> dict:
    """Git commit when available, and a digest of the library sources."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "twoloop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "twoloop" / "cli.py").is_file():
        print(f"error: no src/twoloop under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    try:
        runner = Runner(root, args.workload, args.seed)
        if args.trace:
            metrics, samples = per_layer(runner)
        else:
            metrics, samples = end_to_end(runner, args.seconds)
    except (RuntimeError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    layers = json.loads((HERE / "layers.json").read_text())
    out_of_step = (({w["name"] for w in wanted} ^ set(metrics))
                   | ({w["name"] for w in bench["per_layer"]} ^ set(layers)))
    if out_of_step:
        print(f"error: metrics out of step with BENCHMARK.json or layers.json: "
              f"{sorted(out_of_step)}", file=sys.stderr)
        return 1
    for why in runner.failures:
        print(f"FAILED {why}", file=sys.stderr)
    failed = len(runner.failures)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **source_revision(root), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "point": workloads.check_point(args.seed),
        "failed_ratio": failed / runner.attempted, **samples,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                    for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
