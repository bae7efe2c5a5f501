"""Pipeline-benchmark smoke gate: a short traced run of every workload.

``make perfbench-smoke`` runs this from the repository root.  For each
workload ``BENCHMARK.json`` declares, it runs the benchmark's own
command (``python3 perfbench/run.py``) with ``--workload W --seconds 1
--trace 1`` and requires the last stdout line to be the result object
with ``"correct": true`` and ``"failed": 0``.  A traced run installs a
wrapper at every layer binding site, checks every spec's rows against
the pinned digests and every replay for byte-identity, so a renamed
entry point, digest drift or a broken replay fails here in minutes.

Exit status: 0 = every workload ran correctly, 1 = at least one did not.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def check(workload: str, command: list) -> str:
    """Run one workload; return ``""`` if it passed, else the reason."""
    argv = command + ["--workload", workload, "--seconds", "1", "--trace", "1"]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"no result within {RUN_TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit status {proc.returncode}, {len(lines)} stdout lines"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return f"last line is not JSON: {lines[-1][:200]!r}"
    if not isinstance(result, dict):
        return f"last line is not a result object: {lines[-1][:200]!r}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return (f"correct={result.get('correct')!r} failed={result.get('failed')!r}"
                f" of attempted={result.get('attempted')!r}")
    return ""


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        reason = check(workload, bench["command"])
        print(f"== {workload}: {reason or 'correct, 0 failed'}", flush=True)
        failures += bool(reason)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
