"""The vectorized sweep kernel: whole frontiers per step, not configs.

The exact solvers (:func:`repro.sim.compiled.solve_all_delays`,
:func:`repro.sim.gathering_solver.solve_gathering`) walk the product
configuration graph one Python dict lookup at a time.  This module keeps
their verdict semantics but advances *every* undecided adversary choice
at once:

- each per-agent configuration ``(position, automaton state, entry
  port)`` is encoded as one integer id ``(state * n + pos) * width +
  ip`` (``width = stride + 1``, entry ports stored as ``in_port + 1``,
  exactly the compiled backend's convention);
- one flat numpy successor array per ``(automaton, tree)`` —
  ``succ[id] -> id'`` — is built vectorized from the existing
  :class:`~repro.sim.compiled.CompiledAgent` tables, so a joint step of
  the whole frontier is a gather (``succ[frontier]``) per agent;
- meeting / never-meeting masks are boolean reductions over the
  frontier: positions are decoded arithmetically, certification is
  per-lane Brent cycle detection with a shared doubling schedule, and
  decided lanes are compacted away so the gather only touches live work.

Tables are memoized in-process (weakly, so they die with their automaton
— cf. ``_COMPILE_CACHE``) and optionally persisted to an on-disk cache
of ``.npy`` files keyed by a content hash of tree shape + compiled
automaton tables (set ``REPRO_KERNEL_CACHE`` to a directory).  Cached
tables are loaded with ``np.load(mmap_mode="r")``, so a warm
service-style process skips table building *and* table reading until a
sweep actually gathers from the pages it needs.  A corrupt or truncated
cache file is quarantined to ``<name>.corrupt`` and rebuilt — the same
contract as :class:`~repro.scenarios.store.ResultStore`.

Fault plans (:class:`~repro.sim.faults.FaultPlan`) run on the kernel
as a schedule indexed by round.  Each labeling segment of the plan's
relabel schedule gets its own successor table, so a relabel is a table
switch at the segment's first round; a pause or crash makes an agent's
round an identity step, and past the plan horizon a crashed agent
steps through an identity table.  A delay sweep steps each runner's
solo walk once per (pair, side) on these round-indexed tables and
enters every choice with θ at or past the horizon in bulk; the few
choices below the horizon, and every gathering vector, take the scalar
faulted prefix.  All lanes then share one frontier on the post-horizon
tables, with Brent anchoring after ``max(θ, horizon) + 1``.

A scenario's delay sweep is one frontier per spec and tree: the
backends hand every start pair of a ``delay_sweep`` repetition to
:func:`solve_delay_grid_auto`, whose lanes carry their pair so the
budget guard stays per pair, and :func:`solve_all_delays_auto` is its
one-pair case.

The dict solvers stay the oracle: :func:`solve_delay_grid_auto` /
:func:`solve_gathering_auto` run the kernel when it applies (numpy
present, ``REPRO_KERNEL != 0``, tables within the memory cap) and fall
back to the dict solver — the faulted twin under a fault plan — on
anything else, including the kernel's own budget guard tripping, so
explicit caller budgets keep the dict solver's exact semantics on every
path.  Verdict parity, ``crashed`` flags included, is asserted by
``tests/properties/test_kernel_parity.py``.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

try:  # numpy is the kernel's substrate; everything degrades without it
    import numpy as _np
# repro-lint: disable=RPR002 -- import probe: numpy breakage must mean "no kernel", never a crash; kernel_available() reports it
except Exception:  # pragma: no cover - exercised via kernel_available()
    _np = None

from ..agents.automaton import Automaton
from ..agents.observations import STAY
from ..errors import BudgetExceededError, SimulationError
from ..telemetry import current as _telemetry
from ..trees.tree import Tree
from .compiled import _INVALID, DelayVerdict, compile_agent, solve_all_delays
from .faults import FaultPlan, _faulted_prefix
from .gathering_solver import GatheringVerdict, solve_gathering
from .multi import _validate

__all__ = [
    "KernelUnsupported",
    "PairVerdict",
    "AgentTable",
    "agent_table",
    "kernel_available",
    "kernel_cache_dir",
    "table_cache_key",
    "solve_all_delays_kernel",
    "solve_delay_grid_kernel",
    "solve_gathering_kernel",
    "run_pairs_kernel",
    "solve_all_delays_auto",
    "solve_delay_grid_auto",
    "solve_gathering_auto",
]

_ENV_DISABLE = "REPRO_KERNEL"
_ENV_CACHE = "REPRO_KERNEL_CACHE"

# Successor tables above this entry count (int32 -> ~256 MB) stay on the
# dict solver: the kernel must never surprise-allocate its way into an
# OOM on a machine the dict path served fine.
_MAX_TABLE_ENTRIES = 64_000_000


class KernelUnsupported(Exception):
    """The kernel cannot decide this instance; use the dict solver.

    Raised for oversized tables, invalid-transition lanes (the dict
    solver re-invokes the automaton so the genuine error surfaces), and
    numpy-less environments.  The ``*_auto`` wrappers catch it.
    """


@dataclass(frozen=True, slots=True)
class PairVerdict:
    """Delay-0 fate of one start pair from a batched pairs decision.

    ``met``/``meeting_round`` follow the engines' parity contract; a
    budget-bound lane comes back with neither ``met`` nor
    ``certified_never`` set (undecided — never proof).
    """

    met: bool
    meeting_round: Optional[int]
    certified_never: bool = False


def kernel_available() -> bool:
    """Is the vectorized kernel usable here (numpy present, not
    disabled via ``REPRO_KERNEL=0``)?"""
    return _np is not None and os.environ.get(_ENV_DISABLE, "") != "0"


def _require_kernel() -> None:
    if not kernel_available():
        raise KernelUnsupported("numpy missing or REPRO_KERNEL=0")


# ----------------------------------------------------------------------
# Successor tables: build, memoize, persist
# ----------------------------------------------------------------------


class AgentTable:
    """One automaton's flat successor array on one concrete tree.

    ``succ[(state * n + pos) * width + ip]`` is the id after one active
    round (``-1`` marks entries whose live transition raised — a lane
    touching one aborts to the dict solver so the genuine error
    surfaces).  ``start_ids[v]`` is the id after executing the start
    action from node ``v``.  ``succ`` may be a read-only ``np.memmap``
    when served from the on-disk cache.
    """

    __slots__ = ("succ", "start_ids", "n", "width", "num_states", "has_invalid")

    def __init__(self, succ, start_ids, n: int, width: int, num_states: int):
        self.succ = succ
        self.start_ids = start_ids
        self.n = n
        self.width = width
        self.num_states = num_states
        # Tables without invalid entries skip the per-step error scan.
        self.has_invalid = bool((succ < 0).any())

    @property
    def size(self) -> int:
        return self.num_states * self.n * self.width


def table_cache_key(automaton: Automaton, tree: Tree) -> str:
    """Content hash of (tree shape, compiled automaton tables).

    The compiled tables capture the automaton's full observable behavior
    (resolved actions and state transitions per observation), and the
    flat move tables capture the port-labeled tree exactly, so equal
    keys imply equal successor arrays — the property that makes the hash
    safe as a cross-process cache address.
    """
    stride, deg, move_to, move_in = tree.flat_move_tables()
    compiled = compile_agent(automaton, tree)
    h = hashlib.sha256()
    h.update(b"repro-kernel-table-v1")
    for scalar in (tree.n, stride, compiled.automaton.num_states,
                   compiled.initial_state):
        h.update(int(scalar).to_bytes(8, "little", signed=True))
    for seq in (deg, move_to, move_in, compiled.next_state,
                compiled.action, compiled.start_action):
        h.update(_np.asarray(seq, dtype=_np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def kernel_cache_dir() -> Optional[Path]:
    """Directory of the on-disk table cache (``REPRO_KERNEL_CACHE``),
    or ``None`` when persistence is disabled (the default — the
    in-process memo still applies)."""
    path = os.environ.get(_ENV_CACHE)
    return Path(path) if path else None


def _quarantine(path: Path) -> None:
    """Move a bad cache file aside (never delete evidence, never crash
    the sweep) — mirrors ``ResultStore``'s corrupt-file handling."""
    t = _telemetry()
    if t.enabled:
        t.count("kernel.table.quarantine")
        t.event("kernel.table.quarantine", path=str(path))
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:  # pragma: no cover - racing cleaners are fine
        pass


def _load_table_file(path: Path, expected_size: int):
    """Memmap a cached successor array; quarantine anything unusable."""
    try:
        arr = _np.load(path, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError:
        return None
    # repro-lint: disable=RPR002 -- cache-read probe: any unreadable cache file is quarantined (evidence kept) and the table rebuilt from source; a crash here would fail sweeps the dict path serves fine
    except Exception:  # corrupt header / truncated payload / wrong format
        _quarantine(path)
        return None
    if (getattr(arr, "dtype", None) != _np.int32 or arr.ndim != 1
            or arr.shape[0] != expected_size):
        _quarantine(path)
        return None
    return arr


def _save_table_file(path: Path, succ) -> None:
    """Atomic best-effort persist: tmp file + ``os.replace``."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            _np.save(fh, succ)
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - cache is an optimization only
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def _build_succ(compiled, tree: Tree):
    """Vectorized build of the flat successor array from the compiled
    tables (no per-configuration Python loop)."""
    stride, deg, move_to, move_in = tree.flat_move_tables()
    width = stride + 1
    n = tree.n
    num_states = compiled.automaton.num_states
    if num_states * n * width > _MAX_TABLE_ENTRIES:
        raise KernelUnsupported(
            f"successor table would hold {num_states * n * width} entries "
            f"(cap {_MAX_TABLE_ENTRIES}); dict solver handles this instance"
        )
    nxt = _np.asarray(compiled.next_state, dtype=_np.int64)
    nxt = nxt.reshape(num_states, width, width)
    act = _np.asarray(compiled.action, dtype=_np.int64)
    act = act.reshape(num_states, width, width)
    deg_arr = _np.asarray(deg, dtype=_np.int64)

    s_g = _np.arange(num_states, dtype=_np.int64)[:, None, None]
    p_g = _np.arange(n, dtype=_np.int64)[None, :, None]
    i_g = _np.arange(width, dtype=_np.int64)[None, None, :]
    d_g = deg_arr[None, :, None]
    s2 = nxt[s_g, i_g, d_g]  # (num_states, n, width)
    a = act[s_g, i_g, d_g]
    invalid = s2 == _INVALID
    stay = (a == STAY) | invalid
    if stride > 0:
        mt = _np.asarray(move_to, dtype=_np.int64)
        mi = _np.asarray(move_in, dtype=_np.int64)
        base = p_g * stride + _np.where(stay, 0, a)
        pos2 = _np.where(stay, _np.broadcast_to(p_g, s2.shape), mt[base])
        ip2 = _np.where(stay, 0, mi[base] + 1)
    else:  # one-node tree: every action resolves to STAY
        pos2 = _np.broadcast_to(p_g, s2.shape)
        ip2 = _np.zeros_like(s2)
    succ = (s2 * n + pos2) * width + ip2
    succ[invalid] = -1
    return succ.reshape(-1).astype(_np.int32)


def _build_start_ids(compiled, tree: Tree):
    """Ids after the start round from every node (tiny: one per node)."""
    stride, deg, move_to, move_in = tree.flat_move_tables()
    width = stride + 1
    s0 = compiled.initial_state
    ids = []
    for v in range(tree.n):
        a = compiled.start_action[deg[v]]
        if a == STAY:
            pos, ip = v, 0
        else:
            base = v * stride + a
            pos, ip = move_to[base], move_in[base] + 1
        ids.append((s0 * tree.n + pos) * width + ip)
    return _np.asarray(ids, dtype=_np.int64)


# automaton -> tree -> AgentTable; both levels weak so tables die with
# their owners and never leak into pickles (cf. _COMPILE_CACHE).
_TABLE_CACHE: "weakref.WeakKeyDictionary[Automaton, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary()
)


def agent_table(automaton: Automaton, tree: Tree) -> AgentTable:
    """Successor table for ``automaton`` on ``tree``: in-process memo,
    then the on-disk cache (when configured), then a vectorized build
    (persisted back when a cache directory is configured)."""
    _require_kernel()
    t = _telemetry()
    per_tree = None
    try:
        per_tree = _TABLE_CACHE.setdefault(automaton, weakref.WeakKeyDictionary())
        table = per_tree.get(tree)
        if table is not None:
            if t.enabled:
                t.count("kernel.table.memo_hit")
            return table
    except TypeError:  # pragma: no cover - not weak-referenceable
        per_tree = None

    compiled = compile_agent(automaton, tree)
    stride, deg, _mt, _mi = tree.flat_move_tables()
    width = stride + 1
    expected = compiled.automaton.num_states * tree.n * width
    if expected > _MAX_TABLE_ENTRIES:
        raise KernelUnsupported(
            f"successor table would hold {expected} entries "
            f"(cap {_MAX_TABLE_ENTRIES}); dict solver handles this instance"
        )

    succ = None
    cache_dir = kernel_cache_dir()
    path = None
    if cache_dir is not None:
        path = cache_dir / f"{table_cache_key(automaton, tree)}.npy"
        succ = _load_table_file(path, expected)
        if succ is not None and t.enabled:
            t.count("kernel.table.disk_hit")
    if succ is None:
        with t.span("kernel/table_build"):
            succ = _build_succ(compiled, tree)
        if t.enabled:
            t.count("kernel.table.build")
            t.event("kernel.table.build", entries=int(expected),
                    persisted=path is not None)
        if path is not None:
            _save_table_file(path, succ)
    table = AgentTable(
        succ, _build_start_ids(compiled, tree),
        tree.n, width, compiled.automaton.num_states,
    )
    if per_tree is not None:
        try:
            per_tree[tree] = table
        except TypeError:  # pragma: no cover - tree not weak-referenceable
            pass
    return table


class _RoundTables:
    """A fault plan's successor tables on one tree, indexed by round.

    Every labeling segment of ``plan.labeling_schedule(tree)`` gets its
    own :class:`AgentTable` per agent, built from the same compiled
    tables (transitions do not depend on the labeling, only moves do),
    so a relabel is a table switch at the segment's first round.
    :meth:`ops` names the table an agent steps with in each round, or
    ``None`` while a pause or crash freezes it.  ``post`` are the
    tables past the horizon: the final labeling's, or an identity table
    for a crashed agent, whose configuration never changes again.
    ``_MAX_TABLE_ENTRIES`` caps the sum of all of them.
    """

    def __init__(self, tree: Tree, plan: FaultPlan, protos: Sequence[Automaton]):
        self.plan = plan
        self.schedule = plan.labeling_schedule(tree)
        self.rounds = [rnd for rnd, _t in self.schedule]
        self.compileds = [compile_agent(p, tree) for p in protos]
        self.n = tree.n
        self.width = tree.flat_move_tables()[0] + 1
        self.crashed = crashed = {c.agent for c in plan.crashes}
        sizes = {id(c): c.automaton.num_states * self.n * self.width
                 for c in self.compileds}
        total = sum(sizes.values()) * len(self.schedule) + sum(
            sizes[id(self.compileds[i])] for i in crashed
        )
        if total > _MAX_TABLE_ENTRIES:
            raise KernelUnsupported(
                f"round-indexed tables would hold {total} entries "
                f"(cap {_MAX_TABLE_ENTRIES}); dict solver handles this instance"
            )
        self.segs = [
            [agent_table(p, seg_tree) for _rnd, seg_tree in self.schedule]
            for p in protos
        ]
        self.post = [
            _identity_table(segs[-1]) if i in crashed else segs[-1]
            for i, segs in enumerate(self.segs)
        ]

    def ops(self, agent: int, last_round: int) -> list[Optional[AgentTable]]:
        """The table ``agent`` steps with in each round ``1 ..
        last_round``, ``None`` where it is frozen; past the horizon every
        round is the same."""
        segs = self.segs[agent]
        head = min(last_round, self.plan.horizon + 1)
        steady = None if agent in self.crashed else segs[-1]
        return [
            None if self.plan.frozen_in_round(agent, rnd)
            else segs[bisect_right(self.rounds, rnd) - 1]
            for rnd in range(1, head + 1)
        ] + [steady] * (last_round - head)

    def ids(self, entry: tuple) -> list[int]:
        """Flat ``(pos, state, ip)`` triples -> per-agent table ids."""
        n, width = self.n, self.width
        return [
            (entry[j + 1] * n + entry[j]) * width + entry[j + 2]
            for j in range(0, len(entry), 3)
        ]


def _identity_table(table: AgentTable) -> AgentTable:
    """A table whose every id steps to itself (a crashed agent)."""
    return AgentTable(
        _np.arange(table.size, dtype=_np.int32), table.start_ids,
        table.n, table.width, table.num_states,
    )


# ----------------------------------------------------------------------
# The frontier loop
# ----------------------------------------------------------------------


def _joint_fates(
    tables: Sequence[AgentTable],
    id_cols: Sequence,
    *,
    max_configs: Optional[int],
    budgets=None,
    groups=None,
):
    """Fates of every lane, all advanced together.

    Lane ``j`` is the joint configuration ``(id_cols[0][j], ...,
    id_cols[k-1][j])`` reached after some round.  Per step: decode
    positions, mark meeting lanes (all agents on one node), mark
    certified-never lanes (joint id equals its Brent anchor), drop
    budget-exhausted lanes (``budgets[j]`` steps allowed after entry),
    compact survivors, gather successors.  Returns ``(met, dist,
    undecided)`` arrays — ``dist[j]`` is steps after entry for meeting
    lanes, else ``-1``.

    ``max_configs`` bounds, per group of lanes (``groups[j]`` is lane
    ``j``'s group; one group when ``None``), cumulative live-lane steps
    plus one per lane entered.  The dict solver counts distinct
    configurations, meeting ones included; its non-meeting ones never
    outnumber the lane steps, and each lane ends on at most one meeting
    configuration, so a frontier within the guard proves the dict solver
    would not have tripped.  Lanes are independent and all enter at step
    0 under the shared Brent schedule, so a group's work here equals the
    work of a frontier holding that group alone: a grid whose groups are
    start pairs trips exactly when some pair's own frontier would.  The
    ``*_auto`` wrappers translate a trip back into dict-solver semantics
    by falling back.  A lane gathering a ``-1`` successor raises
    :class:`KernelUnsupported` — the dict solver re-runs the instance so
    the automaton's genuine error surfaces.
    """
    k = len(tables)
    m = len(id_cols[0])
    met = _np.zeros(m, dtype=bool)
    dist = _np.full(m, -1, dtype=_np.int64)
    undecided = _np.zeros(m, dtype=bool)
    if m == 0:
        return met, dist, undecided

    lanes = _np.arange(m, dtype=_np.int64)
    curs = [_np.asarray(col, dtype=_np.int64) for col in id_cols]
    anchors = [_np.full(m, -1, dtype=_np.int64) for _ in range(k)]
    buds = None if budgets is None else _np.asarray(budgets, dtype=_np.int64)
    succs = [t.succ for t in tables]
    widths = [t.width for t in tables]
    n = tables[0].n

    any_invalid = any(t.has_invalid for t in tables)
    if max_configs is not None:
        # Live counts only fall, so ``slack`` steps at the live counts of
        # the last exact count cannot overspend any group: a step costs
        # one scalar compare, and a group's spend is recounted only once
        # the slack is used up.
        grp = (_np.zeros(m, dtype=_np.int64) if groups is None
               else _np.asarray(groups, dtype=_np.int64))
        ended = _np.full(m, -1, dtype=_np.int64)  # step a lane was decided at
        slack = _guard_slack(max_configs, grp, ended, lanes, 0)
    telem = _telemetry()
    step = 0  # rounds advanced past the entry configurations
    brent_steps = 0
    brent_power = 1
    work = 0
    since = 0  # steps since the guard's last exact count
    while lanes.size:
        pos0 = (curs[0] // widths[0]) % n
        if k == 2:
            meet = (curs[1] // widths[1]) % n == pos0
        else:
            meet = _np.ones(lanes.size, dtype=bool)
            for i in range(1, k):
                meet &= (curs[i] // widths[i]) % n == pos0
        if meet.any():
            hit = lanes[meet]
            met[hit] = True
            dist[hit] = step
        never = ~meet
        for i in range(k):
            never &= curs[i] == anchors[i]
        done = meet | never
        if buds is not None:
            over = ~done & (step >= buds)
            if over.any():
                undecided[lanes[over]] = True
                done |= over
        if done.any():
            if max_configs is not None:
                ended[lanes[done]] = step
            keep = ~done
            lanes = lanes[keep]
            curs = [c[keep] for c in curs]
            anchors = [a[keep] for a in anchors]
            if buds is not None:
                buds = buds[keep]
            if not lanes.size:
                break
        brent_steps += 1
        if brent_steps == brent_power:
            anchors = [c.copy() for c in curs]
            brent_steps = 0
            brent_power <<= 1
        work += lanes.size
        since += 1
        if max_configs is not None and since > slack:
            slack = _guard_slack(max_configs, grp, ended, lanes, step + 1)
            since = 0
            if slack < 0:
                if telem.enabled:
                    _note_frontier(telem, m, step, work, max_configs,
                                   budget_exceeded=True)
                raise BudgetExceededError(
                    f"sweep kernel exceeded max_configs={max_configs}"
                )
        curs = [succ[c] for succ, c in zip(succs, curs)]
        if any_invalid:
            for c in curs:
                if (c < 0).any():
                    raise KernelUnsupported(
                        "lane reached an invalid transition entry; "
                        "the dict solver will surface the live error"
                    )
        step += 1
    if telem.enabled:
        _note_frontier(telem, m, step, work, max_configs,
                       budget_exceeded=False)
    return met, dist, undecided


def _guard_slack(max_configs: int, grp, ended, lanes, steps: int) -> int:
    """Exact per-group spend after ``steps`` frontier steps — one per
    lane entered plus its live steps (``ended`` for decided lanes) —
    turned into the steps every group can still take at its current
    live count (``lanes``) without exceeding ``max_configs``; ``-1``
    once some group has."""
    lived = _np.where(ended >= 0, ended, steps) + 1
    spent = _np.bincount(grp, weights=lived).astype(_np.int64)
    if (spent > max_configs).any():
        return -1
    live = _np.bincount(grp[lanes], minlength=spent.size)
    busy = live > 0
    return int(((max_configs - spent[busy]) // live[busy]).min())


def _note_frontier(
    telem, lanes_entered: int, steps: int, work: int,
    max_configs: Optional[int], *, budget_exceeded: bool,
) -> None:
    """Per-call frontier accounting (outside the hot loop on purpose:
    one event per frontier, never one per step).

    ``work`` is cumulative live-lane steps; ``compaction`` relates it to
    the uncompacted cost ``lanes_entered * steps`` — low means decided
    lanes were dropped early and the gathers touched little dead work.
    """
    telem.count("kernel.frontier.calls")
    telem.count("kernel.frontier.lanes", lanes_entered)
    telem.count("kernel.frontier.steps", steps)
    telem.count("kernel.frontier.lane_steps", work)
    if budget_exceeded:
        telem.count("kernel.frontier.budget_exceeded")
    dense = lanes_entered * steps
    telem.event(
        "kernel.frontier",
        lanes=int(lanes_entered), steps=int(steps), lane_steps=int(work),
        compaction=round(work / dense, 4) if dense else 1.0,
        budget=max_configs, budget_exceeded=budget_exceeded,
    )


# ----------------------------------------------------------------------
# Delay sweeps
# ----------------------------------------------------------------------


def _check_delay_args(tree, prototype, prototype2, pairs, max_delay, sides):
    if not isinstance(prototype, Automaton):
        raise SimulationError("the all-delays solver requires a finite-state Automaton")
    if prototype2 is not None and not isinstance(prototype2, Automaton):
        raise SimulationError("the all-delays solver requires a finite-state Automaton")
    for start1, start2 in pairs:
        if not (0 <= start1 < tree.n and 0 <= start2 < tree.n):
            raise SimulationError("start nodes outside the tree")
    if max_delay < 0:
        raise SimulationError("max_delay must be >= 0")
    for side in sides:
        if side not in (1, 2):
            raise SimulationError("'delayed_sides' entries must be 1 or 2")


def _trivial_sweep(max_delay, sides, zero_side):
    return [
        DelayVerdict(theta, side, True, 0, False)
        for theta in range(max_delay + 1)
        for side in sides
        if theta > 0 or side == zero_side
    ]


def _solo_batch(table: AgentTable, runner_starts, sleeper_starts, max_delay: int):
    """Batched runner solo prefixes in id space — the dict solver's
    prefix (with its early break) for many walks per numpy gather.

    ``rows[t][w]`` is walk ``w``'s runner id after round ``t + 1``;
    ``first_hit[w]`` is the first round the runner steps onto its
    sleeper's start node (0 = no hit within ``max_delay``).  A walk
    freezes once its hit is found, so — exactly like the scalar prefix —
    an invalid successor only raises when some walk genuinely still
    needs that step.
    """
    succ = table.succ
    n, width = table.n, table.width
    starts = _np.asarray(runner_starts, dtype=_np.int64)
    sleep = _np.asarray(sleeper_starts, dtype=_np.int64)
    if starts.size <= 4:  # numpy per-op overhead dwarfs tiny batches
        return _solo_batch_scalar([table] * (max_delay + 1), n, width,
                                  starts, sleep, max_delay)
    cur = table.start_ids[starts].astype(_np.int64)
    fh = _np.where((cur // width) % n == sleep, 1, 0)
    rows = [cur]
    for t in range(2, max_delay + 2):
        active = fh == 0
        if not active.any():
            break
        nxt = succ[cur[active]]
        if (nxt < 0).any():
            raise KernelUnsupported(
                "solo prefix reached an invalid transition entry"
            )
        cur = cur.copy()
        cur[active] = nxt
        if t <= max_delay:
            hit = active & ((cur // width) % n == sleep)
            fh[hit] = t
        rows.append(cur)
    while len(rows) < max_delay + 1:  # frozen tail, never read past first_hit
        rows.append(rows[-1])
    return _np.stack(rows), fh


def _solo_batch_scalar(ops, n: int, width: int, starts, sleep, max_delay: int):
    """Per-walk scalar prefixes (same semantics as the batched pass);
    long single-pair sweeps step one int at a time instead of paying
    numpy dispatch on one-element arrays every round.

    ``ops[t - 1]`` is the table the runner steps with in round ``t``,
    ``None`` where a pause or crash freezes it (an identity step).  The
    runner has no delay, so it starts in its first unfrozen round; until
    then its id is its start node with state 0 and no entry port, as
    the faulted loops hold it."""
    mat = _np.empty((max_delay + 1, starts.size), dtype=_np.int64)
    fh = _np.zeros(starts.size, dtype=_np.int64)
    for w in range(starts.size):
        start, target = int(starts[w]), int(sleep[w])
        cur = start * width
        started = False
        ids = []
        for t, table in enumerate(ops, 1):
            if table is not None:
                cur = int(table.succ[cur] if started else table.start_ids[start])
                started = True
                if cur < 0:
                    raise KernelUnsupported(
                        "solo prefix reached an invalid transition entry"
                    )
            ids.append(cur)
            if t <= max_delay and (cur // width) % n == target:
                fh[w] = t
                break
        mat[:len(ids), w] = ids
        mat[len(ids):, w] = ids[-1]  # frozen tail, never read past first_hit
    return mat, fh


def _faulted_head(rt: _RoundTables, s1, s2, side: int, lo: int, stop: int,
                  round_blk, crash_blk):
    """Choices ``θ in [lo, stop)``, below the plan horizon, through the
    scalar faulted prefix (:func:`~repro.sim.faults._faulted_prefix`).
    A meeting inside the prefix fills its (prefilled met) block cells;
    every other choice becomes a lane entering after round ``horizon +
    1``.  Returns the lanes as ``(scatter, agent-0 ids, agent-1 ids)``."""
    plan = rt.plan
    last_round = plan.horizon + 1
    cols = round_blk.shape[1]
    scatter, ids0, ids1 = [], [], []
    for w in range(len(s1)):
        starts = [int(s1[w]), int(s2[w])]
        for theta in range(lo, stop):
            met_at, entry = _faulted_prefix(
                rt.schedule, plan, rt.compileds, starts,
                [theta, 0] if side == 1 else [0, theta], last_round,
            )
            if met_at is not None:
                round_blk[w, theta - lo] = met_at
                crash_blk[w, theta - lo] = bool(plan.crashed_by(met_at))
                continue
            a, b = rt.ids(entry)
            scatter.append(w * cols + theta - lo)
            ids0.append(a)
            ids1.append(b)
    return (_np.asarray(scatter, dtype=_np.int64),
            _np.asarray(ids0, dtype=_np.int64), _np.asarray(ids1, dtype=_np.int64))


def solve_delay_grid_kernel(
    tree: Tree,
    prototype: Automaton,
    pairs: Sequence[tuple[int, int]],
    *,
    max_delay: int,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
    faults=None,
) -> list[list[DelayVerdict]]:
    """Decide whole delay sweeps for *many* start pairs in one frontier.

    Returns one :func:`repro.sim.compiled.solve_all_delays`-ordered
    verdict list per input pair.  Every undecided (pair, θ, side) lane
    advances in the same vectorized step.  ``max_configs`` guards each
    pair on its own: the grid raises
    :class:`~repro.errors.BudgetExceededError` as soon as one pair's
    lanes overspend, which is exactly when that pair's single-pair call
    would raise (see :func:`_joint_fates`), so a grid that decides
    proves every pair's dict solver would have decided too.

    Under ``faults`` (a :class:`~repro.sim.faults.FaultPlan`) the
    verdicts equal :func:`~repro.sim.faults.solve_all_delays_faulted`'s,
    ``crashed`` included.  The runner's solo walk does not depend on θ,
    so it is stepped once per (pair, side) on round-indexed tables
    (:class:`_RoundTables`).  Choices with θ at or past the plan horizon
    enter the frontier in bulk: the sleeper starts on the final
    labeling, or stays at its node if it crashed.  The few choices with
    θ below the horizon take the scalar faulted prefix.  All lanes then
    run on the post-horizon tables.
    """
    _require_kernel()
    plan = FaultPlan.coerce(faults)
    if plan is not None:
        plan.validate_for(2)
    sides = list(dict.fromkeys(delayed_sides))
    _check_delay_args(tree, prototype, prototype2, pairs, max_delay, sides)
    zero_side = 2 if 2 in sides else sides[0]

    if plan is None:
        t1 = agent_table(prototype, tree)
        t2 = t1 if prototype2 is None else agent_table(prototype2, tree)
        post = (t1, t2)
        horizon = 0
    else:
        rt = _RoundTables(
            tree, plan, (prototype, prototype if prototype2 is None else prototype2)
        )
        post = rt.post
        horizon = plan.horizon

    live = [i for i, (a, b) in enumerate(pairs) if a != b]
    num_live = len(live)
    if num_live == 0:
        return [_trivial_sweep(max_delay, sides, zero_side) for _ in pairs]
    s1 = _np.asarray([pairs[i][0] for i in live], dtype=_np.int64)
    s2 = _np.asarray([pairs[i][1] for i in live], dtype=_np.int64)

    # One solo-prefix pass per delayed side; each side's block holds its
    # walks' verdict slots in (walk, θ) order — lanes where the joint
    # fate is still open, short-circuit cells (θ >= first_hit meets at
    # round first_hit) prefilled.  Lane columns are agent-major.
    lane_ids1, lane_ids2, lane_pairs = [], [], []
    block_meta = []  # (side, lo, met, round, crashed blocks, scatter, entry round)
    for side in sides:
        lo = 0 if side == zero_side else 1
        width_cols = max_delay + 1 - lo
        if width_cols <= 0:
            continue
        runner, sleeper = (0, 1) if side == 2 else (1, 0)
        runner_starts = s1 if side == 2 else s2
        sleeper_starts = s2 if side == 2 else s1
        if plan is None:
            rows, fh = _solo_batch(post[runner], runner_starts, sleeper_starts,
                                   max_delay)
            sleeper_entry = post[sleeper].start_ids[sleeper_starts].astype(_np.int64)
        else:
            rows, fh = _solo_batch_scalar(
                rt.ops(runner, max_delay + 1), rt.n, rt.width,
                runner_starts, sleeper_starts, max_delay,
            )
            # A sleeper crashed by the horizon never starts: it keeps
            # its start node, state 0 and no entry port.
            sleeper_entry = (
                sleeper_starts * rt.width if sleeper in rt.crashed
                else rt.segs[sleeper][-1].start_ids[sleeper_starts].astype(_np.int64)
            )

        bulk_lo = max(lo, horizon)
        hi = _np.where(fh > 0, fh - 1, max_delay)
        counts = _np.maximum(hi - bulk_lo + 1, 0)
        total = int(counts.sum())
        walk = _np.repeat(_np.arange(num_live, dtype=_np.int64), counts)
        offs = _np.cumsum(counts) - counts
        theta = _np.arange(total, dtype=_np.int64) - offs[walk] + bulk_lo
        runner_ids = rows[theta, walk]
        sleeper_ids = sleeper_entry[walk]
        ids1, ids2 = ((runner_ids, sleeper_ids) if side == 2
                      else (sleeper_ids, runner_ids))
        scatter = walk * width_cols + (theta - lo)
        entry_round = theta + 1

        met_blk = _np.ones((num_live, width_cols), dtype=bool)
        round_blk = _np.repeat(fh[:, None], width_cols, axis=1)
        crash_blk = _np.zeros((num_live, width_cols), dtype=bool)
        if plan is not None:
            crash_blk[:] = _np.asarray(
                [bool(plan.crashed_by(int(r))) for r in fh], dtype=bool
            )[:, None]
            if bulk_lo > lo:
                h_scatter, h_ids1, h_ids2 = _faulted_head(
                    rt, s1, s2, side, lo, min(bulk_lo, max_delay + 1),
                    round_blk, crash_blk,
                )
                scatter = _np.concatenate([scatter, h_scatter])
                ids1 = _np.concatenate([ids1, h_ids1])
                ids2 = _np.concatenate([ids2, h_ids2])
                entry_round = _np.concatenate([
                    entry_round,
                    _np.full(len(h_scatter), horizon + 1, dtype=_np.int64),
                ])
        lane_ids1.append(ids1)
        lane_ids2.append(ids2)
        lane_pairs.append(scatter // width_cols)
        block_meta.append((side, lo, met_blk, round_blk, crash_blk,
                           scatter, entry_round))

    met, dist, _und = _joint_fates(
        post, (_np.concatenate(lane_ids1), _np.concatenate(lane_ids2)),
        max_configs=max_configs, groups=_np.concatenate(lane_pairs),
    )

    # Scatter lane fates into the blocks, stitch blocks into the dict
    # solver's θ-major output order, and materialize verdicts in bulk.
    has_crashes = plan is not None and bool(plan.crashes)
    pos = 0
    for _side, _lo, met_blk, round_blk, crash_blk, scatter, entry_round in block_meta:
        m = met[pos:pos + len(scatter)]
        d = dist[pos:pos + len(scatter)]
        pos += len(scatter)
        met_blk.flat[scatter] = m
        round_blk.flat[scatter] = _np.where(m, entry_round + d, -1)
        if has_crashes:
            crash_blk.flat[scatter] = True

    met_cat = _np.concatenate([b[2] for b in block_meta], axis=1)
    round_cat = _np.concatenate([b[3] for b in block_meta], axis=1)
    crash_cat = _np.concatenate([b[4] for b in block_meta], axis=1)
    col_of = {}
    off = 0
    for side, lo, met_blk, *_rest in block_meta:
        for th in range(lo, max_delay + 1):
            col_of[(th, side)] = off + (th - lo)
        off += met_blk.shape[1]
    out_keys = [(0, zero_side)] + [
        (th, side) for th in range(1, max_delay + 1) for side in sides
    ]
    perm = _np.asarray([col_of[k] for k in out_keys], dtype=_np.int64)
    met_flat = met_cat[:, perm].ravel().tolist()
    round_flat = round_cat[:, perm].ravel().tolist()
    crash_flat = crash_cat[:, perm].ravel().tolist()

    keys_tiled = out_keys * num_live
    verdicts = [
        DelayVerdict(th, sd, m, mr if m else None, not m, c)
        for (th, sd), m, mr, c in zip(keys_tiled, met_flat, round_flat, crash_flat)
    ]

    stride = len(out_keys)
    by_live = {
        p_idx: verdicts[q * stride:(q + 1) * stride]
        for q, p_idx in enumerate(live)
    }
    return [
        by_live.get(p_idx) or _trivial_sweep(max_delay, sides, zero_side)
        for p_idx in range(len(pairs))
    ]


def solve_all_delays_kernel(
    tree: Tree,
    prototype: Automaton,
    start1: int,
    start2: int,
    *,
    max_delay: int,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
    faults=None,
) -> list[DelayVerdict]:
    """Vectorized drop-in for :func:`repro.sim.compiled.solve_all_delays`,
    ``faults`` included: every (θ, side) lane of one pair advances per
    step."""
    return solve_delay_grid_kernel(
        tree, prototype, [(start1, start2)],
        max_delay=max_delay, delayed_sides=delayed_sides,
        max_configs=max_configs, prototype2=prototype2, faults=faults,
    )[0]


# ----------------------------------------------------------------------
# Gathering grids
# ----------------------------------------------------------------------


def solve_gathering_kernel(
    tree: Tree,
    prototype: Automaton,
    starts: Sequence[int],
    delay_vectors: Sequence[Sequence[int]],
    *,
    max_configs: int = 4_000_000,
    prototypes: Optional[Sequence[Automaton]] = None,
    faults=None,
) -> list[GatheringVerdict]:
    """Vectorized drop-in for
    :func:`repro.sim.gathering_solver.solve_gathering`, ``faults``
    included.

    Staggered prefixes (agents still waking up) replay per vector; the
    fully-started entry configurations are deduplicated and resolved in
    one k-agent frontier.  Under ``faults`` each prefix is the scalar
    faulted one (:func:`~repro.sim.faults._faulted_prefix`) through
    ``max(max(delays), horizon) + 1``, and the frontier runs on the
    post-horizon tables of :class:`_RoundTables`; the verdicts equal
    :func:`~repro.sim.faults.solve_gathering_faulted`'s, ``crashed``
    included.
    """
    _require_kernel()
    plan = FaultPlan.coerce(faults)
    starts = list(starts)
    protos = list(prototypes) if prototypes is not None else [prototype] * len(starts)
    if len(protos) != len(starts):
        raise SimulationError("'prototypes' must align with 'starts'")
    for p in protos:
        if not isinstance(p, Automaton):
            raise SimulationError(
                "the gathering solver requires finite-state Automaton agents"
            )
    vectors = [list(_validate(tree, starts, vec)) for vec in delay_vectors]
    k = len(starts)
    if plan is None:
        tables = [agent_table(p, tree) for p in protos]
    else:
        plan.validate_for(k)
        rt = _RoundTables(tree, plan, protos)
        tables = rt.post
    n = tree.n

    # Entry dedup: grids share entry configurations heavily (the dict
    # solver's memo exploits the same structure).
    entry_lane: dict[tuple[int, ...], int] = {}
    entry_cols: list[list[int]] = [[] for _ in range(k)]
    # per vector: ("done", verdict) or ("lane", lane_index, first_joint, key)
    items: list[tuple] = []

    for delays in vectors:
        key = tuple(delays)
        if len(set(starts)) == 1:
            items.append(("done", GatheringVerdict(key, True, 0, False)))
            continue
        if plan is not None:
            first_joint = max(max(delays), plan.horizon) + 1
            gathered_at, entry = _faulted_prefix(
                rt.schedule, plan, rt.compileds, starts, delays, first_joint
            )
            ids = None if entry is None else rt.ids(entry)
        else:
            first_joint = max(delays) + 1
            ids = [0] * k
            started = [False] * k
            pos = list(starts)
            gathered_at = None
            for rnd in range(1, first_joint + 1):
                for i in range(k):
                    if started[i]:
                        nxt = int(tables[i].succ[ids[i]])
                        if nxt < 0:
                            raise KernelUnsupported(
                                "prefix reached an invalid transition entry"
                            )
                        ids[i] = nxt
                        pos[i] = (nxt // tables[i].width) % n
                    elif rnd > delays[i]:
                        started[i] = True
                        ids[i] = int(tables[i].start_ids[pos[i]])
                        pos[i] = (ids[i] // tables[i].width) % n
                if all(p == pos[0] for p in pos):
                    gathered_at = rnd
                    break
        if gathered_at is not None:
            crashed = plan is not None and bool(plan.crashed_by(gathered_at))
            items.append(
                ("done", GatheringVerdict(key, True, gathered_at, False, crashed))
            )
            continue
        entry = tuple(ids)
        lane = entry_lane.get(entry)
        if lane is None:
            lane = len(entry_cols[0])
            entry_lane[entry] = lane
            for i in range(k):
                entry_cols[i].append(entry[i])
        items.append(("lane", lane, first_joint, key))

    met, dist, _und = _joint_fates(
        tables, entry_cols, max_configs=max_configs
    )

    has_crashes = plan is not None and bool(plan.crashes)
    out: list[GatheringVerdict] = []
    for item in items:
        if item[0] == "done":
            out.append(item[1])
            continue
        _tag, lane, first_joint, key = item
        if met[lane]:
            out.append(GatheringVerdict(
                key, True, first_joint + int(dist[lane]), False, has_crashes
            ))
        else:
            out.append(GatheringVerdict(key, False, None, True, has_crashes))
    return out


# ----------------------------------------------------------------------
# Batched delay-0 pairs (native automata)
# ----------------------------------------------------------------------


def run_pairs_kernel(
    tree: Tree,
    prototype: Automaton,
    pairs: Sequence[tuple[int, int]],
    *,
    max_rounds: int,
    prototype2: Optional[Automaton] = None,
) -> list[PairVerdict]:
    """Decide delay-0 rendezvous for many start pairs in one frontier.

    Parity with per-pair compiled runs: ``met`` iff the first meeting
    round is ``<= max_rounds``; a lane exhausting its budget before
    meeting or certifying comes back undecided.
    """
    _require_kernel()
    if not isinstance(prototype, Automaton):
        raise SimulationError("compiled backend requires a finite-state Automaton")
    for u, v in pairs:
        if not (0 <= u < tree.n and 0 <= v < tree.n):
            raise SimulationError("start nodes outside the tree")
    t1 = agent_table(prototype, tree)
    t2 = t1 if prototype2 is None else agent_table(prototype2, tree)

    verdicts: list[Optional[PairVerdict]] = [None] * len(pairs)
    lane_idx: list[int] = []
    ids1: list[int] = []
    ids2: list[int] = []
    for j, (u, v) in enumerate(pairs):
        if u == v:
            verdicts[j] = PairVerdict(True, 0, False)
        elif max_rounds < 1:
            verdicts[j] = PairVerdict(False, None, False)
        else:
            lane_idx.append(j)
            ids1.append(int(t1.start_ids[u]))
            ids2.append(int(t2.start_ids[v]))

    # Entry ids sit after round 1, so max_rounds - 1 steps remain.
    budgets = _np.full(len(lane_idx), max_rounds - 1, dtype=_np.int64)
    met, dist, undecided = _joint_fates(
        (t1, t2), (ids1, ids2), max_configs=None, budgets=budgets
    )
    for lane, j in enumerate(lane_idx):
        if met[lane]:
            verdicts[j] = PairVerdict(True, 1 + int(dist[lane]), False)
        elif undecided[lane]:
            verdicts[j] = PairVerdict(False, None, False)
        else:
            verdicts[j] = PairVerdict(False, None, True)
    return verdicts


# ----------------------------------------------------------------------
# Auto dispatch: kernel when it applies, dict solver as the oracle
# ----------------------------------------------------------------------


def solve_delay_grid_auto(
    tree: Tree,
    prototype: Automaton,
    pairs: Sequence[tuple[int, int]],
    *,
    max_delay: int,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
    faults=None,
) -> list[list[DelayVerdict]]:
    """Kernel-dispatched :func:`~repro.sim.compiled.solve_all_delays`
    for many start pairs: one verdict list per pair, in input order.

    All pairs ride one frontier (:func:`solve_delay_grid_kernel`) when
    numpy is available, fault plans included.  If the grid cannot
    decide — disabled kernel, oversized tables, an invalid-transition
    lane, or one pair tripping the per-pair budget guard — each pair
    is re-dispatched on its own, so only the pairs that genuinely need
    it run the dict solver
    (:func:`~repro.sim.faults.solve_all_delays_faulted` under
    ``faults``).  That preserves the dict solver's exact semantics,
    including raising :class:`~repro.errors.BudgetExceededError` only
    when the *dict* solver's guard genuinely trips.
    """
    pairs = list(pairs)
    t = _telemetry()
    if kernel_available():
        try:
            verdicts = solve_delay_grid_kernel(
                tree, prototype, pairs,
                max_delay=max_delay, delayed_sides=delayed_sides,
                max_configs=max_configs, prototype2=prototype2, faults=faults,
            )
            if t.enabled:
                t.count("kernel.dispatch.delays.kernel", len(pairs))
            return verdicts
        except (KernelUnsupported, BudgetExceededError) as exc:
            if t.enabled:
                t.count(f"kernel.fallback.{type(exc).__name__}")
                t.event("kernel.fallback", solver="delays", pairs=len(pairs),
                        reason=type(exc).__name__, detail=str(exc))
            if len(pairs) > 1:
                return [
                    solve_delay_grid_auto(
                        tree, prototype, [pair],
                        max_delay=max_delay, delayed_sides=delayed_sides,
                        max_configs=max_configs, prototype2=prototype2,
                        faults=faults,
                    )[0]
                    for pair in pairs
                ]
    if t.enabled:
        t.count("kernel.dispatch.delays.dict", len(pairs))
    return [
        solve_all_delays(
            tree, prototype, start1, start2,
            max_delay=max_delay, delayed_sides=delayed_sides,
            max_configs=max_configs, prototype2=prototype2, faults=faults,
        )
        for start1, start2 in pairs
    ]


def solve_all_delays_auto(
    tree: Tree,
    prototype: Automaton,
    start1: int,
    start2: int,
    *,
    max_delay: int,
    delayed_sides: Sequence[int] = (1, 2),
    max_configs: int = 4_000_000,
    prototype2: Optional[Automaton] = None,
    faults=None,
) -> list[DelayVerdict]:
    """Kernel-dispatched :func:`~repro.sim.compiled.solve_all_delays`:
    the one-pair case of :func:`solve_delay_grid_auto`."""
    return solve_delay_grid_auto(
        tree, prototype, [(start1, start2)],
        max_delay=max_delay, delayed_sides=delayed_sides,
        max_configs=max_configs, prototype2=prototype2, faults=faults,
    )[0]


def solve_gathering_auto(
    tree: Tree,
    prototype: Automaton,
    starts: Sequence[int],
    delay_vectors: Sequence[Sequence[int]],
    *,
    max_configs: int = 4_000_000,
    prototypes: Optional[Sequence[Automaton]] = None,
    faults=None,
) -> list[GatheringVerdict]:
    """Kernel-dispatched
    :func:`~repro.sim.gathering_solver.solve_gathering` (see
    :func:`solve_delay_grid_auto` for the dispatch rules)."""
    t = _telemetry()
    if kernel_available():
        try:
            verdicts = solve_gathering_kernel(
                tree, prototype, starts, delay_vectors,
                max_configs=max_configs, prototypes=prototypes, faults=faults,
            )
            if t.enabled:
                t.count("kernel.dispatch.gathering.kernel")
            return verdicts
        except (KernelUnsupported, BudgetExceededError) as exc:
            if t.enabled:
                t.count(f"kernel.fallback.{type(exc).__name__}")
                t.event("kernel.fallback", solver="gathering",
                        reason=type(exc).__name__, detail=str(exc))
    if t.enabled:
        t.count("kernel.dispatch.gathering.dict")
    return solve_gathering(
        tree, prototype, starts, delay_vectors,
        max_configs=max_configs, prototypes=prototypes, faults=faults,
    )
