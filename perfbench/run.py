"""End-to-end scenario benchmark: one workload per run, in one process.

Usage::

    python3 perfbench/run.py --workload kernel-sweeps --seed 1 \
        --seconds 12 --trace 0

Run from the repository root (or anywhere: paths resolve from this
file).  Each run builds its specs from ``--seed`` (see
``workloads.py``), then repeats *iterations* until ``--seconds`` have
passed.  One iteration is:

- a **cold pass**: for each spec, ``Runner(atlas=<fresh db>).run(spec)``
  (atlas miss, execute, atlas store), then
  ``ResultStore(<fresh dir>).save(result)`` -- the
  ``scenarios run --atlas --save`` path;
- **replay passes**: the same specs again, all atlas hits, timed in
  blocks of at least ``MIN_BLOCK_S``.  Untraced iterations replay until
  at least ``MIN_REPLAY_S`` seconds are summed, so a millisecond replay
  is still a median of many.

Between iterations a fresh interpreter (``probe.py``) times set-up:
import ``repro.cli``, build the ``Runner``, open an atlas.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` interleaves
untraced and traced iterations; the traced ones wrap each layer's entry
points (``layers.py``) and pass a ``repro.telemetry.Telemetry`` to every
run, and the run reports the per-layer metrics.

Every run is hermetic: a fresh atlas and result directory per
iteration, all under ``.perfbench_work/`` in the checkout (removed on
exit), ``TMPDIR`` pointed there, and ``REPRO_KERNEL_CACHE`` /
``REPRO_KERNEL`` unset, so no run reads what an earlier one left.

Outputs are checked outside the timed regions: each spec's rows are
hashed and, for the default seed, matched against ``digests.json``
(pinned from the reference backend by ``pin.py``); any other seed is
checked against a reference-backend run of ``workloads.reference_subset``.
A run that raises, returns ``ok=False``, holds an ``undecided`` row,
mismatches, is not an atlas miss (cold) or hit (replay), or replays a
payload that is not byte-identical to the cold one counts as failed.

Stdout: one ``{"fingerprint": ...}`` line (the instance identity, the
code revision and the exact work counters), then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

MIN_ITERATIONS = 4       # untraced iterations per --trace 0 run
MIN_TRACED = 2           # traced (and untraced) iterations per --trace 1 run
MIN_PROBES = 5           # set-up probes per run
MIN_REPLAY_S = 0.3       # summed replay-pass time per untraced iteration
MIN_REPLAYS, MAX_REPLAYS = 3, 50   # replay blocks per untraced iteration
MIN_BLOCK_S = 0.02       # replay passes per block: at least this long
LAST_START_S = 110.0     # start no iteration after this many seconds

#: The calibration loop's duration on the machine the benchmark was tuned
#: on (2-vCPU x86-64 VM, CPython 3.11); scaled times are in its seconds.
CAL_REF_S = 0.002
CAL_STEPS = 3000

#: Payload blocks that carry clock readings; byte counters leave them out
#: so that they repeat exactly.
CLOCK_KEYS = ("timings", "telemetry")

#: Telemetry counters copied into the per-layer metrics.
TELEMETRY_COUNTERS = (
    "lowering.memo.miss", "lowering.memo.hit", "kernel.table.build",
    "kernel.frontier.lane_steps", "kernel.frontier.steps",
    "kernel.dispatch.delays.dict", "kernel.dispatch.gathering.dict",
    "trace.cache.miss", "trace.cache.hit",
)


def fail(message: str) -> None:
    """Exit without a result line (set-up errors, not output mismatches)."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def make_hermetic(work: pathlib.Path) -> None:
    for var in ("REPRO_KERNEL_CACHE", "REPRO_KERNEL"):
        os.environ.pop(var, None)
    os.environ["TMPDIR"] = str(work)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True


def decisions_of(kind: str, rows: list) -> int:
    """Decided choices in one result (see README.md)."""
    if kind in ("delay_sweep", "gathering_sweep"):
        return sum(row["verdict"] != "undecided" for row in rows)
    if kind == "exhaustive_verify":
        return sum(row["instances"] for row in rows)
    if kind == "success_families":
        return sum(row["runs"] for row in rows)
    if kind in ("baseline_delays", "program_atlas"):
        return len(rows)
    raise ValueError(f"no decision count for kind {kind!r}")


def rows_digest(payload: dict) -> str:
    from repro.scenarios.store import comparable

    blob = json.dumps(comparable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_bytes(payload: dict) -> int:
    """Bytes the store writes for ``payload``, clock-bearing blocks left out."""
    from repro.scenarios.atlas import dump_payload_text

    core = {k: v for k, v in payload.items() if k not in CLOCK_KEYS}
    return len(dump_payload_text(core).encode())


def atlas_column_bytes(path: pathlib.Path) -> int:
    """Bytes of the atlas's spec and environment columns."""
    import sqlite3

    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        (total,) = conn.execute(
            "SELECT COALESCE(SUM(LENGTH(CAST(spec AS BLOB)) + "
            "LENGTH(CAST(environment AS BLOB))), 0) FROM results"
        ).fetchone()
    finally:
        conn.close()
    return int(total)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _cal_step(pair, seen):
    return _Pair(pair.b, (pair.a + pair.b) % 1009), seen.get(pair.a, 0) + 1


def calibrate() -> float:
    """The host's current speed: the median of three runs of a fixed
    interpreter-bound loop (object allocation, calls, dict and list
    traffic, as in the solvers), about 2 ms each.  It tracked the
    workloads' drift better than a bare arithmetic loop did.  The cyclic
    garbage collector is paused meanwhile, so that garbage the timed
    region left behind is not collected on the calibration's clock."""
    samples = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            pair, seen, trail = _Pair(1, 2), {}, []
            for _ in range(CAL_STEPS):
                pair, count = _cal_step(pair, seen)
                seen[pair.a] = count
                trail.append((pair.a, count))
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(samples)


def timed(fn):
    """Run ``fn()``; return ``(result, seconds, scale)``.

    The host's speed drifts by up to 2x within minutes, and CPU time
    drifts with it.  So the calibration loop runs right before and right
    after the timed region; ``seconds * scale`` is the time the region
    would have taken at the speed where the loop takes ``CAL_REF_S``.
    """
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, seconds, scale_between(before, calibrate())


def scale_between(before: float, after: float) -> float:
    """The factor from measured to reference-speed seconds for a region
    whose calibrations read ``before`` and ``after``."""
    return 2 * CAL_REF_S / (before + after)


def probe_setup(work: pathlib.Path, index: int) -> dict:
    """Time one set-up in a fresh interpreter (see probe.py).

    ``setup_s`` stays unscaled: calibrating in this process around the
    child did not track the child's speed (scaled set-up times spread
    twice as wide as measured ones).
    """
    atlas = work / f"probe-{index}.sqlite"
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), repr(time.monotonic()),
         str(SRC), str(atlas)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Failures:
    """Attempted and failed scenario runs, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.reasons: list = []

    def attempt(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, run_id: int, reason: str) -> None:
        if run_id not in self.failed:
            self.failed.add(run_id)
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def run_pass(runner, specs, failures, check, *, store=None, telemetry=None,
             per_spec=False):
    """One pass over ``specs``; returns the summed seconds of the timed
    regions (``runner.run`` plus ``store.save``) and, with ``per_spec``,
    the same scaled to the reference speed by calibrating around every
    spec (else ``None``: the caller calibrates around the pass).

    ``check(spec, run_id, result)`` runs after each timed region, so
    results are checked and released one at a time; a raised exception
    is passed as the result.  ``telemetry``, a ``(counters, events)``
    pair of dicts, accumulates each run's telemetry counters and event
    counts when given.  They stay apart: the kernel counts a table build
    and also emits it as an event, so one sum would count it twice.
    """
    from repro.telemetry import Telemetry

    def run_one(spec, telem):
        try:
            result = runner.run(spec, telemetry=telem)
            if store is not None:
                store.save(result)
        except Exception as exc:  # noqa: BLE001 -- a failed run is counted, never fatal
            result = exc
        return result

    seconds, scaled = 0.0, 0.0 if per_spec else None
    for spec in specs:
        run_id = failures.attempt()
        telem = Telemetry() if telemetry is not None else None
        if per_spec:
            result, dt, scale = timed(lambda: run_one(spec, telem))
            scaled += dt * scale
        else:
            start = time.perf_counter()
            result = run_one(spec, telem)
            dt = time.perf_counter() - start
        seconds += dt
        if telem is not None:
            for total, part in zip(telemetry, (telem.counters, telem.events)):
                for name, n in part.items():
                    total[name] = total.get(name, 0) + n
        check(spec, run_id, result)
    return seconds, scaled


class Iteration:
    """One cold pass plus replay passes on a fresh atlas and result dir.

    Attributes after :meth:`run`: ``cold_s`` and ``cold_scaled`` (the cold
    pass, measured and scaled to the reference speed), ``replay_s`` and
    ``replay_scaled`` (median replay pass over the blocks), ``decisions``, ``digests``
    (spec name -> rows digest), ``rows`` (spec name -> the cold rows the
    reference subset covers, when ``keep_rows``), ``cold_ids`` (run ids
    of the cold pass) and, when traced, ``layers`` and ``counters``.
    """

    def __init__(self, specs, work, index, failures, expected, *,
                 recorder=None, keep_rows=False):
        self.specs, self.failures, self.expected = specs, failures, expected
        self.recorder, self.keep_rows = recorder, keep_rows
        self.atlas_path = work / f"atlas-{index}.sqlite"
        self.results_dir = work / f"results-{index}"
        self.decisions, self.payload_bytes = 0, 0
        self.digests, self.rows, self.cold_ids = {}, {}, []
        self._cold_sha: dict = {}
        self._first_replay = True

    def _check_cold(self, spec, run_id, result) -> None:
        from workloads import reference_rows

        self.cold_ids.append(run_id)
        if isinstance(result, Exception):
            self.failures.fail(run_id, f"{spec.name}: cold run raised {result!r}")
            return
        payload = result.to_payload()
        rows = payload["rows"]
        self.decisions += decisions_of(spec.kind, rows)
        self.digests[spec.name] = digest = rows_digest(payload)
        if self.keep_rows:
            self.rows[spec.name] = reference_rows(spec, rows)
        if self.recorder is not None:
            self.payload_bytes += payload_bytes(payload)
        saved = self.results_dir / f"{spec.name}.json"
        self._cold_sha[spec.name] = hashlib.sha256(saved.read_bytes()).digest()
        problems = []
        if result.cached_payload is not None:
            problems.append("cold run was an atlas hit")
        if not result.ok:
            problems.append("ok=False")
        if any(row.get("verdict") == "undecided" for row in rows):
            problems.append("undecided rows")
        if self.expected is not None:
            want = self.expected.get(spec.name)
            if (want is None or want["rows_sha256"] != digest
                    or want["spec_hash"] != spec.spec_hash()):
                problems.append("rows differ from the pinned reference digest")
        for problem in problems:
            self.failures.fail(run_id, f"{spec.name}: {problem}")

    def _check_replay(self, spec, run_id, result) -> None:
        from repro.scenarios.atlas import dump_payload_text

        if isinstance(result, Exception):
            self.failures.fail(run_id, f"{spec.name}: replay raised {result!r}")
        elif result.cached_payload is None:
            self.failures.fail(run_id, f"{spec.name}: replay was not an atlas hit")
        elif self._first_replay:
            text = dump_payload_text(result.to_payload()).encode()
            if hashlib.sha256(text).digest() != self._cold_sha.get(spec.name):
                self.failures.fail(run_id, f"{spec.name}: replay is not byte-identical")

    def run(self) -> "Iteration":
        from repro.scenarios.atlas import AtlasStore
        from repro.scenarios.runner import Runner
        from repro.scenarios.store import ResultStore

        recorder = self.recorder
        traced = recorder is not None
        telemetry = ({}, {}) if traced else None
        atlas = AtlasStore(self.atlas_path)
        runner = Runner(atlas=atlas)
        store = ResultStore(self.results_dir)
        try:
            lo = recorder.mark() if traced else 0
            self.cold_s, self.cold_scaled = run_pass(
                runner, self.specs, self.failures, self._check_cold,
                store=store, telemetry=telemetry, per_spec=True)
            mid = recorder.mark() if traced else 0
            # Replay passes in blocks of at least MIN_BLOCK_S, calibrated
            # around each block: a millisecond pass is shorter than the
            # calibration itself.  A traced iteration replays once.
            replays = []  # (seconds, scaled seconds) per pass, per block
            replayed_s = 0.0
            while (len(replays) < (1 if traced else MIN_REPLAYS)
                   or (not traced and replayed_s < MIN_REPLAY_S
                       and len(replays) < MAX_REPLAYS)):
                before, block_s, passes = calibrate(), 0.0, 0
                while passes == 0 or (not traced and block_s < MIN_BLOCK_S):
                    block_s += run_pass(runner, self.specs, self.failures,
                                        self._check_replay, telemetry=telemetry)[0]
                    self._first_replay = False
                    passes += 1
                replayed_s += block_s
                per_pass = block_s / passes
                replays.append((per_pass,
                                per_pass * scale_between(before, calibrate())))
            hi = recorder.mark() if traced else 0
        finally:
            atlas.close()
        self.replay_s = statistics.median(s for s, _ in replays)
        self.replay_scaled = statistics.median(s for _, s in replays)
        if traced:
            self._account(lo, mid, hi, telemetry)
        shutil.rmtree(self.results_dir, ignore_errors=True)
        for leftover in self.atlas_path.parent.glob(self.atlas_path.name + "*"):
            leftover.unlink()
        return self

    def _account(self, lo, mid, hi, telemetry) -> None:
        from layers import layer_metrics, top_level_seconds

        spans = self.recorder.spans
        self.layers = layer_metrics(spans, lo, hi)
        self.layers["unaccounted_s"] = self.cold_s - top_level_seconds(spans, lo, mid)
        counted, events = telemetry
        counters = {name: counted.get(name, 0) for name in TELEMETRY_COUNTERS}
        counters["decisions"] = self.decisions
        counters["store.bytes"] = self.payload_bytes
        counters["atlas.bytes"] = (self.payload_bytes
                                   + atlas_column_bytes(self.atlas_path))
        counters["atlas.hits"] = events.get("atlas.hit", 0)
        counters["atlas.misses"] = events.get("atlas.miss", 0)
        for name in ("trees.build_calls", "solver.calls", "engine.runs"):
            counters[name] = self.layers.pop(name)
        self.counters = counters


def reference_check(specs, subset_rows, failures, cold_run_ids) -> None:
    """Non-default seeds: run ``reference_subset`` of each spec on the
    reference backend and match it against the rows the default backend
    produced; a mismatch fails every cold run of that spec."""
    from repro.scenarios.runner import Runner
    from workloads import reference_subset

    runner = Runner(backend="reference")
    for spec in specs:
        subset = reference_subset(spec)
        if spec.name not in subset_rows:
            continue
        try:
            ref_rows = runner.run(subset).rows
        except Exception as exc:  # noqa: BLE001 -- counted as a mismatch
            ref_rows = exc
        if ref_rows != subset_rows[spec.name]:
            for run_id in cold_run_ids[spec.name]:
                failures.fail(run_id, f"{spec.name}: differs from the reference backend")


def source_revision() -> dict:
    """The code under test: git revision when the checkout is a git
    repository, and a digest of ``src/`` either way."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env, check=False,
        )
        git = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        git = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git": git, "src_sha256": digest.hexdigest()}


def median_of(items: list, attr: str) -> float:
    return statistics.median(getattr(item, attr) for item in items)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS, specs_for

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    seed = DEFAULT_SEED if args.seed is None else args.seed

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    make_hermetic(work)
    try:
        return measure(args, seed, specs_for(args.workload, seed), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory in it


def measure(args, seed, specs, work) -> int:
    import numpy

    from workloads import DEFAULT_SEED

    expected = None
    if seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "digests.json").read_text())
        expected = pinned.get("workloads", {}).get(args.workload, {})

    recorder = None
    if args.trace:
        from layers import SpanRecorder

        recorder = SpanRecorder()
    failures = Failures()
    plain, traced, probes = [], [], []
    cold_run_ids: dict = {spec.name: [] for spec in specs}
    start = time.perf_counter()

    def enough() -> bool:
        elapsed = time.perf_counter() - start
        if elapsed > LAST_START_S:
            return True
        if args.trace:
            return (elapsed >= args.seconds and len(traced) >= MIN_TRACED
                    and len(plain) >= MIN_TRACED)
        return elapsed >= args.seconds and len(plain) >= MIN_ITERATIONS

    index = 0
    while not enough():
        probes.append(probe_setup(work, index))
        # untraced, traced, traced, untraced, ...: drift and the first
        # iteration's warm-up weigh on both sides alike
        use_trace = bool(args.trace) and index % 4 in (1, 2)
        it = Iteration(specs, work, index, failures, expected,
                       recorder=recorder if use_trace else None,
                       keep_rows=index == 0 and seed != DEFAULT_SEED)
        if use_trace:
            recorder.install()
            try:
                traced.append(it.run())
            finally:
                recorder.uninstall()
        else:
            plain.append(it.run())
        for spec, run_id in zip(specs, it.cold_ids):
            cold_run_ids[spec.name].append(run_id)
        index += 1
    while len(probes) < MIN_PROBES:
        probes.append(probe_setup(work, len(probes) + 1000))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - start

    everything = plain + traced
    problems = []
    for attr in ("decisions", "digests"):
        if any(getattr(it, attr) != getattr(plain[0], attr) for it in everything):
            problems.append(f"{attr} differ between iterations of one run")
    if traced and any(it.counters != traced[0].counters for it in traced):
        problems.append("work counters differ between traced iterations: "
                        + json.dumps([it.counters for it in traced]))
    if seed != DEFAULT_SEED:
        reference_check(specs, plain[0].rows, failures, cold_run_ids)
    checked_s = time.perf_counter() - start - measured_s
    for reason in failures.reasons + problems:
        print(f"perfbench: {reason}", file=sys.stderr)

    decisions = plain[0].decisions
    if args.trace:
        values = {
            name: statistics.median(it.layers[name] for it in traced)
            for name in traced[0].layers
        }
        values.update(traced[0].counters)
        values["cli.import_s"] = statistics.median(p["import_cli_s"] for p in probes)
        values["cli.import_numpy_s"] = statistics.median(
            p["import_numpy_s"] for p in probes)
        frontier_s = values["kernel.frontier_s"]
        values["kernel.lane_steps_per_s"] = (
            values["kernel.frontier.lane_steps"] / frontier_s if frontier_s else 0.0
        )
        hit, miss = values.pop("trace.cache.hit"), values["trace.cache.miss"]
        values["trace.cache.hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
        values["trace_overhead_ratio"] = (median_of(traced, "cold_scaled")
                                          / median_of(plain, "cold_scaled"))
        listed = "per_layer"
        counters = traced[0].counters
        measured = {}
    else:
        values = {
            "decisions_per_s": decisions / median_of(plain, "cold_scaled"),
            "replay_s": median_of(plain, "replay_scaled"),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = "end_to_end"
        counters = {"decisions": decisions}
        measured = {
            "decisions_per_s": decisions / median_of(plain, "cold_s"),
            "replay_s": median_of(plain, "replay_s"),
        }

    fingerprint = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "spec_hashes": [spec.spec_hash() for spec in specs],
        "decisions": decisions,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print(json.dumps({
        "fingerprint": fingerprint,
        "revision": source_revision(),
        "counters": counters,
        "iterations": {"untraced": len(plain), "traced": len(traced),
                       "setup_probes": len(probes),
                       "cold_scaled_s": [it.cold_scaled for it in everything]},
        "harness_s": {"measure": measured_s, "reference_check": checked_s},
        "failed_frac": len(failures.failed) / failures.attempted,
        "unscaled": measured,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures.failed and not problems,
        "attempted": failures.attempted,
        "failed": len(failures.failed),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[listed]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
