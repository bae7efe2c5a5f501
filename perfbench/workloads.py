"""The benchmark's workloads: scenario specs generated from a seed.

Every spec is built here from the workload seed; none is a registry
name.  The same seed always yields the same specs, in the same order.
``DEFAULT_SEED`` is the seed whose outputs are pinned in
``digests.json``; any other seed is checked against the reference
backend on the subset :func:`reference_subset` names.  The seed moves
start pairs, gathering grids and the program-grid seeds; the sizes are
fixed (see README.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from repro.analysis.program_atlas import DEFAULT_ATLAS_GRID
from repro.scenarios.spec import DelayPolicy, ScenarioSpec

DEFAULT_SEED = 1

_SWEEP_AGENTS = ("pausing:2", "counting:3", "alternator", "random:8", "random:16")


def derive(seed: int, *parts) -> int:
    """A stable 31-bit seed for ``parts`` under the workload seed."""
    blob = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") >> 1


def _pairs(rng: random.Random, n: int, count: int) -> tuple:
    """``count`` start pairs on an ``n``-node tree, stratified so that
    every seed covers the tree alike.

    Pair ``i`` draws ``u`` from stratum ``i`` and ``v`` from stratum
    ``(5i + 3) mod count`` of ``count`` equal strata, at an even offset
    from the stratum start.  The seed moves each endpoint within its
    stratum but keeps the strata, and so the spread of distances and the
    parities, fixed.  Meeting dynamics on lines hinge on both, and the
    work of a sweep follows them.
    """
    width = n // count
    pairs = []
    for i in range(count):
        j = (5 * i + 3) % count
        u = v = i * width + 2 * rng.randrange(max(1, width // 2))
        while v == u:  # possible only when u and v share a stratum
            v = j * width + 2 * rng.randrange(max(1, width // 2))
        pairs.append((u, v))
    return tuple(pairs)


def _delay_sweep(name, tree, agent, rng, n, max_delay, *, n_pairs=6,
                 repetitions=1, faults=None):
    """A delay sweep whose spec seed is the same on every workload seed:
    that seed draws random automata and the second repetition's
    relabeling, whose cost varies far more between draws than a start
    pair's (README.md, Workloads)."""
    return ScenarioSpec(
        name=name, kind="delay_sweep", tree=tree, agent=agent,
        pairs=_pairs(rng, n, n_pairs), delays=DelayPolicy.sweep(max_delay),
        repetitions=repetitions, seed=derive(DEFAULT_SEED, name),
        params={} if faults is None else {"faults": faults},
    )


def _gathering_sweep(name, seed, rng, trees, k, n_starts, n_vectors,
                     *, faults=None):
    smallest = min(int(t.partition(":")[2]) for t in trees)
    start_sets = []
    while len(start_sets) < n_starts:
        starts = sorted(rng.sample(range(smallest), k))
        if starts not in start_sets:
            start_sets.append(starts)
    vectors = [[0] * k] + [
        [rng.randrange(3) for _ in range(k)] for _ in range(n_vectors - 1)
    ]
    params = {"trees": list(trees), "start_sets": start_sets,
              "delay_vectors": vectors}
    if faults is not None:
        params["faults"] = faults
    return ScenarioSpec(
        name=name, kind="gathering_sweep", agent="counting:2",
        seed=derive(seed, name), params=params,
    )


def _kernel_sweeps(seed: int, rng: random.Random) -> list:
    specs = []
    for tree in ("colored:1001", "line:1001"):
        for agent in ("random:16", "random:32", "counting:5", "pausing:3"):
            name = f"kernel-{len(specs):02d}"
            specs.append(_delay_sweep(name, tree, agent, rng, 1001, 127, n_pairs=8))
    specs.append(_gathering_sweep("kernel-gather-k3", seed, rng,
                                  ("line:9", "line:12"), 3, 3, 5))
    specs.append(_gathering_sweep("kernel-gather-k4", seed, rng,
                                  ("line:9",), 4, 2, 4))
    return specs


def _wide_sweeps(seed: int, rng: random.Random) -> list:
    return [
        _delay_sweep(f"wide-{i:02d}", tree, agent, rng, 81, 255,
                     repetitions=2)
        for i, (tree, agent) in enumerate(
            (t, a) for t in ("colored:81", "line:81") for a in _SWEEP_AGENTS
        )
    ]


_RELABELS = {"relabels": [[3, 1], [6, 2]]}
_CRASH_PAUSE = {"crashes": [[2, 6]], "pauses": [[0, 2, 2]]}


def _faulted_sweeps(seed: int, rng: random.Random) -> list:
    specs = [
        _delay_sweep(f"faulted-{i:02d}", tree, agent, rng, 41, 63,
                     n_pairs=4, faults=_RELABELS)
        for i, (tree, agent) in enumerate(
            (t, a) for t in ("colored:41", "line:41") for a in _SWEEP_AGENTS
        )
    ]
    specs.append(_gathering_sweep("faulted-gather-k3", seed, rng,
                                  ("line:9", "line:12"), 3, 3, 5,
                                  faults=_CRASH_PAUSE))
    return specs


_FAMILIES = {
    "lines": ["line:7", "line:12", "line:21"],
    "binary": ["binary:2", "binary:3"],
    "binomial": ["binomial:3", "binomial:4"],
    "subdivided": ["subdivided:3", "subdivided:6"],
}


def _program_grid(seed: int, rng: random.Random) -> list:
    tree_n = 16
    return [
        ScenarioSpec(
            name="program-verify", kind="exhaustive_verify",
            seed=derive(seed, "program-verify"),
            params={"max_n": 8, "labelings": 1},
        ),
    ] + [
        # one spec per family: the calibration around each spec then
        # samples the host speed every second or so.  The seed is fixed
        # like the sweep automata: labelings and pair picks set the
        # memory-replay cost, which doubled between seeds.
        ScenarioSpec(
            name=f"program-family-{family}", kind="success_families",
            seed=derive(DEFAULT_SEED, "program-families"),
            params={"pairs_per_tree": 8, "families": {family: trees}},
        )
        for family, trees in _FAMILIES.items()
    ] + [
        ScenarioSpec(
            name="program-lowering", kind="program_atlas",
            seed=derive(seed, "program-lowering"),
            params={"programs": {
                name: list(trees) for name, trees in DEFAULT_ATLAS_GRID.items()
            }},
        ),
        ScenarioSpec(
            name="program-baseline", kind="baseline_delays",
            tree=f"colored:{tree_n}", agent="baseline",
            pairs=_pairs(rng, tree_n, 1),
            delays=DelayPolicy.fixed(0, 1, 7, 31, 127, 511),
            seed=derive(seed, "program-baseline"),
        ),
    ]


#: Workload name -> spec builder.  Why each workload exists, and which
#: metrics a change to each layer should move on it, is in README.md.
_BUILDERS = {
    "kernel-sweeps": _kernel_sweeps,
    "wide-sweeps": _wide_sweeps,
    "faulted-sweeps": _faulted_sweeps,
    "program-grid": _program_grid,
}


def specs_for(workload: str, seed: int) -> list:
    """The workload's specs for ``seed`` (a fresh list each call)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](seed, random.Random(derive(seed, workload)))


WORKLOADS = tuple(_BUILDERS)


#: Largest delay the reference subset of a delay sweep decides.  The
#: reference engine certifies each choice with its own run, so its cost
#: grows with the square of the delay range.
REFERENCE_MAX_DELAY = 31


def reference_subset(spec: ScenarioSpec):
    """The part of ``spec`` a non-default seed checks on the reference
    backend: the first start pair of a delay sweep (delays up to
    ``REFERENCE_MAX_DELAY``), the first start set of a gathering sweep,
    and the whole spec of every other kind (the program-grid specs,
    which take a few seconds together on the reference backend)."""
    if spec.kind == "delay_sweep":
        delays = dataclasses.replace(
            spec.delays,
            max_delay=min(spec.delays.max_delay, REFERENCE_MAX_DELAY))
        return dataclasses.replace(spec, pairs=spec.pairs[:1], delays=delays)
    if spec.kind == "gathering_sweep":
        params = dict(spec.params)
        params["start_sets"] = params["start_sets"][:1]
        return dataclasses.replace(spec, params=params)
    return spec


def reference_rows(spec: ScenarioSpec, rows: list) -> list:
    """The rows of a full run of ``spec`` that its reference subset
    reproduces, in order."""
    if spec.kind == "delay_sweep":
        pair = "{},{}".format(*spec.pairs[0])
        return [row for row in rows
                if row["pair"] == pair and row["delay"] <= REFERENCE_MAX_DELAY]
    if spec.kind == "gathering_sweep":
        starts = ",".join(map(str, spec.params["start_sets"][0]))
        return [row for row in rows if row["starts"] == starts]
    return rows
