"""Compare two saved benchmark runs.

Usage: ``python3 perfbench/compare.py A.txt B.txt``

Each file holds the standard output of one ``run.py`` run.  Runs whose
fingerprints differ (other specs, seed, decision count, trace mode,
numpy, nproc or python) are refused with exit code 2.  When both runs
measured the same code (equal revisions), every work counter must
repeat exactly; a counter that differs is a benchmark failure (exit
code 1).  Otherwise the metrics are printed side by side with B/A.
"""

import json
import sys


def load(path: str):
    record = result = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "fingerprint" in doc:
                record = doc
            elif "metrics" in doc:
                result = doc
    if record is None or result is None:
        raise SystemExit(f"{path}: no fingerprint and result lines")
    return record, result


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (rec_a, res_a), (rec_b, res_b) = load(argv[0]), load(argv[1])
    if rec_a["fingerprint"] != rec_b["fingerprint"]:
        diff = {
            key: (rec_a["fingerprint"].get(key), rec_b["fingerprint"].get(key))
            for key in rec_a["fingerprint"].keys() | rec_b["fingerprint"].keys()
            if rec_a["fingerprint"].get(key) != rec_b["fingerprint"].get(key)
        }
        print(f"refusing to compare: fingerprints differ: {diff}", file=sys.stderr)
        return 2
    status = 0
    if rec_a["revision"] == rec_b["revision"]:
        for name in sorted(rec_a["counters"].keys() | rec_b["counters"].keys()):
            a, b = rec_a["counters"].get(name), rec_b["counters"].get(name)
            if a != b:
                print(f"counter {name} differs between runs of the same code: "
                      f"{a} != {b}", file=sys.stderr)
                status = 1
    for name, metric in res_a["metrics"].items():
        a = metric["value"]
        b = res_b["metrics"][name]["value"]
        ratio = f"{b / a:.3f}" if a else "-"
        print(f"{name:32} {a:>16.6g} {b:>16.6g}  B/A {ratio}  {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
