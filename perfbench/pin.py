"""Pin the default seed's outputs from the reference backend.

Usage: ``python3 perfbench/pin.py``.

Runs every spec of the default seed on ``Runner(backend="reference")``
-- the oracle engine, one certified run per choice, so this takes
minutes -- and writes each spec's ``spec_hash``, decision count and the
SHA-256 of its comparable rows into ``digests.json``, which it rewrites
in full.  ``run.py`` matches every default-seed run against these.
"""

import json
import os
import sys
import time

from run import HERE, SRC, decisions_of, rows_digest

DIGESTS = HERE / "digests.json"


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_KERNEL_CACHE", None)
    sys.dont_write_bytecode = True
    from repro.scenarios.runner import Runner
    from workloads import DEFAULT_SEED, WORKLOADS, specs_for

    table = {}
    runner = Runner(backend="reference")
    for workload in WORKLOADS:
        entries = {}
        for spec in specs_for(workload, DEFAULT_SEED):
            start = time.perf_counter()
            result = runner.run(spec)
            if not result.ok:
                raise SystemExit(f"{spec.name}: reference run is not ok")
            payload = result.to_payload()
            entries[spec.name] = {
                "spec_hash": spec.spec_hash(),
                "decisions": decisions_of(spec.kind, payload["rows"]),
                "rows_sha256": rows_digest(payload),
            }
            print(f"{workload} {spec.name}: {time.perf_counter() - start:.1f}s",
                  file=sys.stderr)
        table[workload] = entries
    pinned = {"seed": DEFAULT_SEED, "backend": "reference", "workloads": table}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
