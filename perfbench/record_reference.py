"""Write ``reference.json``: the sha256 of each exact job's stdout.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  It runs one cold pass of every workload in ``BENCHMARK.json``;
the outputs it digests do not depend on the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from run import HERE, Runner


def main() -> None:
    root = Path.cwd()
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    digests = {}
    for name in names:
        runner = Runner(root, name, seed=0)
        result = runner.spawn({"mode": "pass", "jobs": runner.jobs, "trace": False})
        for argv, job in zip(runner.templates, result["jobs"]):
            if workloads.job_kind(argv) == "exact":
                if job["rc"] != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {job['rc']}: {job['error']}")
                digests[workloads.job_key(argv)] = job["sha256"]
    (HERE / "reference.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
