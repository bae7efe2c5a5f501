"""Property tests: vectorized kernel ≡ dict solvers ≡ reference engine.

The dict product-configuration solvers stay the oracle for the
vectorized frontier kernel (:mod:`repro.sim.kernel`), and the reference
engine stays the oracle for both.  On randomized (tree, automaton,
starts) instances:

- delay sweeps: kernel verdict lists equal :func:`solve_all_delays`
  exactly (same objects field-for-field), and spot-checked θ choices
  equal certified reference runs;
- heterogeneous pairs (``prototype2``) and lowered register programs
  (route A automata, route B traced lassos) are held to the same
  equality;
- gathering grids: :func:`solve_gathering_kernel` equals
  :func:`solve_gathering`;
- a ``max_configs`` budget trip never changes semantics: the auto
  wrapper's verdicts equal the dict solver's under the same guard, and
  both raise :class:`~repro.errors.BudgetExceededError` for the same
  genuinely-too-small guards;
- fault plans: the kernel (and the auto wrapper) equals
  :func:`~repro.sim.faults.solve_all_delays_faulted` /
  :func:`~repro.sim.faults.solve_gathering_faulted` field for field,
  ``crashed`` included — choices below and past the plan horizon,
  pauses over the sleeper's start, crashes before it starts, lowered
  register programs, and budget trips;
- many-pair sweeps: ``Backend.sweep_delay_pairs`` on the ``auto`` and
  ``compiled`` backends equals the reference backend's field for field
  (native automata, fault plans, register programs), equals its own
  one-pair calls under ``max_rounds`` budgets that trip a pair, and
  :func:`solve_delay_grid_auto` equals the per-pair dict solvers with a
  heterogeneous ``prototype2``.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fault_parity import fault_plans

from repro.agents import Automaton, alternator, counting_walker
from repro.agents.library import counting_program, pausing_program, pausing_walker
from repro.agents.lowering import lowered_for
from repro.errors import BudgetExceededError
from repro.scenarios.backends import (
    AutoBackend,
    CompiledBackend,
    ReferenceBackend,
    _lowered_for_faults,
)
from repro.sim import (
    CrashFault,
    FaultPlan,
    PauseFault,
    RelabelFault,
    run_rendezvous,
    solve_all_delays,
    solve_all_delays_auto,
    solve_all_delays_faulted,
    solve_all_delays_kernel,
    solve_delay_grid_auto,
    solve_delay_grid_kernel,
    solve_gathering,
    solve_gathering_auto,
    solve_gathering_faulted,
    solve_gathering_kernel,
)
from repro.sim.traced import lasso_automaton, solo_trace
from repro.trees import edge_colored_line, line, random_relabel, random_tree


@st.composite
def automaton_for(draw, tree, max_states=3):
    k = draw(st.integers(1, max_states))
    dmax = tree.max_degree()
    table = {
        (s, ip, d): draw(st.integers(0, k - 1))
        for s in range(k)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    }
    output = [draw(st.integers(-1, 2)) for _ in range(k)]
    return Automaton(k, table, output, draw(st.integers(0, k - 1)))


@st.composite
def instances(draw, max_n=8, max_states=3):
    n = draw(st.integers(2, max_n))
    rng = random.Random(draw(st.integers(0, 2**20)))
    tree = random_relabel(random_tree(n, rng), rng)
    agent = draw(automaton_for(tree, max_states))
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1))
    return tree, agent, u, v


def _heterogeneous(tree, seed):
    """A random second automaton for the ``prototype2`` seam."""
    rng = random.Random(seed)
    k2 = rng.randrange(1, 4)
    dmax = tree.max_degree()
    table2 = {
        (s, ip, d): rng.randrange(k2)
        for s in range(k2)
        for ip in range(-1, dmax)
        for d in range(1, dmax + 1)
    }
    return Automaton(k2, table2, [rng.randrange(-1, 3) for _ in range(k2)])


def decisive_budget(tree, agent, delay):
    period = (tree.n * agent.num_states * (tree.max_degree() + 1)) ** 2
    return 4 * period + delay + 8


@settings(max_examples=50, deadline=None)
@given(instances(), st.integers(0, 6),
       st.sampled_from([(1, 2), (2, 1), (1,), (2,)]))
def test_kernel_equals_dict_solver(instance, max_delay, sides):
    tree, agent, u, v = instance
    dict_v = solve_all_delays(
        tree, agent, u, v, max_delay=max_delay, delayed_sides=sides
    )
    kern_v = solve_all_delays_kernel(
        tree, agent, u, v, max_delay=max_delay, delayed_sides=sides
    )
    assert dict_v == kern_v


@settings(max_examples=15, deadline=None)
@given(instances(max_n=6), st.integers(0, 4))
def test_kernel_matches_reference(instance, max_delay):
    tree, agent, u, v = instance
    budget = decisive_budget(tree, agent, max_delay)
    for dv in solve_all_delays_kernel(tree, agent, u, v, max_delay=max_delay):
        ref = run_rendezvous(
            tree, agent, u, v,
            delay=dv.delay, delayed=dv.delayed, max_rounds=budget, certify=True,
        )
        assert (ref.met, ref.meeting_round, ref.certified_never) == (
            dv.met, dv.meeting_round, dv.certified_never,
        )


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 4))
def test_kernel_heterogeneous_prototype2(instance, max_delay):
    tree, agent, u, v = instance
    other = _heterogeneous(tree, u * 1009 + v)
    dict_v = solve_all_delays(
        tree, agent, u, v, max_delay=max_delay, prototype2=other
    )
    kern_v = solve_all_delays_kernel(
        tree, agent, u, v, max_delay=max_delay, prototype2=other
    )
    assert dict_v == kern_v


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**20), st.integers(0, 3),
       st.booleans())
def test_kernel_lowered_programs(n, seed, max_delay, use_counting):
    rng = random.Random(seed)
    tree = random_relabel(random_tree(n, rng), rng)
    program = counting_program(2) if use_counting else pausing_program(2)
    degrees = {tree.degree(x) for x in range(tree.n)}
    lowered = lowered_for(program, degrees)
    u, v = rng.randrange(n), rng.randrange(n)
    dict_v = solve_all_delays(tree, lowered, u, v, max_delay=max_delay)
    kern_v = solve_all_delays_kernel(tree, lowered, u, v, max_delay=max_delay)
    assert dict_v == kern_v


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**20), st.integers(0, 2))
def test_kernel_traced_lasso_automata(n, seed, max_delay):
    """Route B: per-start lassoed automata through the heterogeneous seam."""
    rng = random.Random(seed)
    tree = random_relabel(random_tree(n, rng), rng)
    program = pausing_program(1)
    u, v = rng.randrange(n), rng.randrange(n)
    if u == v:
        v = (v + 1) % n
    a1 = lasso_automaton(solo_trace(tree, program, u))
    a2 = lasso_automaton(solo_trace(tree, program, v))
    dict_v = solve_all_delays(
        tree, a1, u, v, max_delay=max_delay, prototype2=a2
    )
    kern_v = solve_all_delays_kernel(
        tree, a1, u, v, max_delay=max_delay, prototype2=a2
    )
    assert dict_v == kern_v


@settings(max_examples=20, deadline=None)
@given(instances(max_n=7), st.integers(2, 3), st.integers(0, 2**20))
def test_gathering_kernel_equals_dict_solver(instance, k, seed):
    tree, agent, _u, _v = instance
    rng = random.Random(seed)
    starts = [rng.randrange(tree.n) for _ in range(k)]
    vectors = list(product(range(2), repeat=k))
    dict_v = solve_gathering(tree, agent, starts, vectors)
    kern_v = solve_gathering_kernel(tree, agent, starts, vectors)
    assert dict_v == kern_v


@settings(max_examples=20, deadline=None)
@given(instances(max_n=7), st.integers(0, 4))
def test_budget_trip_preserves_dict_semantics(instance, max_delay):
    """Tiny max_configs: the auto wrapper must behave exactly like the
    dict solver under the same guard — same verdicts when the dict
    solver fits, the dict solver's own BudgetExceededError when not
    (the kernel's internal accounting never leaks through)."""
    tree, agent, u, v = instance
    try:
        expected = solve_all_delays(
            tree, agent, u, v, max_delay=max_delay, max_configs=7
        )
    except BudgetExceededError:
        expected = BudgetExceededError
    try:
        got = solve_all_delays_auto(
            tree, agent, u, v, max_delay=max_delay, max_configs=7
        )
    except BudgetExceededError:
        got = BudgetExceededError
    assert got == expected or (got is expected is BudgetExceededError)


@settings(max_examples=10, deadline=None)
@given(instances(max_n=7), st.integers(0, 3), st.integers(0, 2**20))
def test_grid_kernel_equals_per_pair(instance, max_delay, seed):
    tree, agent, _u, _v = instance
    rng = random.Random(seed)
    pairs = [
        (rng.randrange(tree.n), rng.randrange(tree.n)) for _ in range(5)
    ]
    per_pair = [
        solve_all_delays(tree, agent, u, v, max_delay=max_delay)
        for u, v in pairs
    ]
    grid = solve_delay_grid_kernel(tree, agent, pairs, max_delay=max_delay)
    assert grid == per_pair


# ----------------------------------------------------------------------
# Fault plans: kernel == faulted dict solvers, crashed flags included
# ----------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """Verdicts, or the BudgetExceededError class when the guard trips."""
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError:
        return BudgetExceededError


@settings(max_examples=60, deadline=None)
@given(instances(), fault_plans(), st.integers(0, 10),
       st.sampled_from([(1, 2), (2, 1), (1,), (2,)]))
def test_faulted_kernel_equals_faulted_dict_solver(instance, plan, max_delay, sides):
    """``max_delay`` up to 10 against horizons up to 8: sweeps hold
    choices below the horizon (scalar prefix), at and past it (bulk)."""
    tree, agent, u, v = instance
    dict_v = solve_all_delays_faulted(
        tree, agent, u, v, max_delay=max_delay, faults=plan,
        delayed_sides=sides,
    )
    kern_v = solve_all_delays_kernel(
        tree, agent, u, v, max_delay=max_delay, faults=plan,
        delayed_sides=sides,
    )
    auto_v = solve_all_delays_auto(
        tree, agent, u, v, max_delay=max_delay, faults=plan,
        delayed_sides=sides,
    )
    assert kern_v == dict_v
    assert auto_v == dict_v


@settings(max_examples=30, deadline=None)
@given(instances(), fault_plans(), st.integers(0, 8), st.integers(0, 2**20))
def test_faulted_kernel_heterogeneous_prototype2(instance, plan, max_delay, seed):
    tree, agent, u, v = instance
    other = _heterogeneous(tree, seed)
    dict_v = solve_all_delays_faulted(
        tree, agent, u, v, max_delay=max_delay, faults=plan, prototype2=other
    )
    kern_v = solve_all_delays_auto(
        tree, agent, u, v, max_delay=max_delay, faults=plan, prototype2=other
    )
    assert kern_v == dict_v


@settings(max_examples=30, deadline=None)
@given(instances(max_n=7), st.integers(2, 3), st.integers(0, 2**20),
       st.data())
def test_faulted_gathering_kernel_equals_dict_solver(instance, k, seed, data):
    tree, agent, _u, _v = instance
    plan = data.draw(fault_plans(num_agents=k))
    rng = random.Random(seed)
    starts = [rng.randrange(tree.n) for _ in range(k)]
    vectors = [[rng.randrange(4) for _ in range(k)] for _ in range(6)]
    dict_v = solve_gathering_faulted(tree, agent, starts, vectors, faults=plan)
    kern_v = solve_gathering_kernel(tree, agent, starts, vectors, faults=plan)
    auto_v = solve_gathering_auto(tree, agent, starts, vectors, faults=plan)
    assert kern_v == dict_v
    assert auto_v == dict_v


@settings(max_examples=25, deadline=None)
@given(instances(max_n=7), fault_plans(), st.integers(0, 6),
       st.integers(0, 40))
def test_faulted_budget_trip_preserves_dict_semantics(instance, plan, max_delay, budget):
    """Tiny ``max_configs``: the auto wrapper gives the faulted dict
    solver's verdicts when it fits and its BudgetExceededError when
    not — the kernel's own accounting never leaks through."""
    tree, agent, u, v = instance
    expected = _outcome(
        solve_all_delays_faulted, tree, agent, u, v,
        max_delay=max_delay, faults=plan, max_configs=budget,
    )
    got = _outcome(
        solve_all_delays_auto, tree, agent, u, v,
        max_delay=max_delay, faults=plan, max_configs=budget,
    )
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(instances(max_n=7), st.integers(0, 2**20), st.integers(0, 30),
       st.data())
def test_faulted_gathering_budget_trip(instance, seed, budget, data):
    tree, agent, _u, _v = instance
    plan = data.draw(fault_plans(num_agents=3))
    rng = random.Random(seed)
    starts = [rng.randrange(tree.n) for _ in range(3)]
    vectors = [[rng.randrange(3) for _ in range(3)] for _ in range(4)]
    expected = _outcome(
        solve_gathering_faulted, tree, agent, starts, vectors,
        faults=plan, max_configs=budget,
    )
    got = _outcome(
        solve_gathering_auto, tree, agent, starts, vectors,
        faults=plan, max_configs=budget,
    )
    assert got == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**20), st.integers(0, 8),
       st.booleans(), fault_plans())
def test_faulted_kernel_lowered_programs(n, seed, max_delay, use_counting, plan):
    """Register programs take full behavioral lowering under faults
    (``_lowered_for_faults``) and then the same kernel path."""
    rng = random.Random(seed)
    tree = random_relabel(random_tree(n, rng), rng)
    program = counting_program(2) if use_counting else pausing_program(2)
    lowered = _lowered_for_faults(program, tree)
    u, v = rng.randrange(n), rng.randrange(n)
    dict_v = solve_all_delays_faulted(
        tree, lowered, u, v, max_delay=max_delay, faults=plan
    )
    kern_v = solve_all_delays_kernel(
        tree, lowered, u, v, max_delay=max_delay, faults=plan
    )
    assert kern_v == dict_v


@settings(max_examples=10, deadline=None)
@given(instances(max_n=7), fault_plans(), st.integers(0, 6), st.integers(0, 2**20))
def test_faulted_grid_kernel_equals_per_pair(instance, plan, max_delay, seed):
    tree, agent, _u, _v = instance
    rng = random.Random(seed)
    pairs = [
        (rng.randrange(tree.n), rng.randrange(tree.n)) for _ in range(5)
    ]
    per_pair = [
        solve_all_delays_faulted(
            tree, agent, u, v, max_delay=max_delay, faults=plan
        )
        for u, v in pairs
    ]
    grid = solve_delay_grid_kernel(
        tree, agent, pairs, max_delay=max_delay, faults=plan
    )
    assert grid == per_pair


# Named cases the random plans may or may not hit.
_NAMED_PLANS = {
    # the sweep spans θ < horizon (scalar prefix) and θ >= horizon (bulk)
    "relabels": FaultPlan(relabels=(RelabelFault(3, 1), RelabelFault(6, 2))),
    # sleeper (agent 1 when side 2 sleeps) paused over rounds 2..4, which
    # covers its start round for θ in 1..3 and defers the start
    "pause-over-sleeper-start": FaultPlan(pauses=(PauseFault(1, 2, 3),)),
    # the runner paused at round 1: its own start is deferred
    "pause-over-runner-start": FaultPlan(pauses=(PauseFault(0, 1, 2),)),
    # agent 1 crashes at round 3, before it starts for every θ >= 2
    "crash-before-sleeper-start": FaultPlan(crashes=(CrashFault(1, 3),)),
    # the runner crashes mid-walk, then relabels land
    "crash-runner-then-relabel": FaultPlan(
        crashes=(CrashFault(0, 4),), relabels=(RelabelFault(5, 7),)
    ),
}


@pytest.mark.parametrize("name", sorted(_NAMED_PLANS))
@pytest.mark.parametrize("agent_name", ["alternator", "counting"])
def test_faulted_kernel_named_plans(name, agent_name):
    plan = _NAMED_PLANS[name]
    agent = alternator() if agent_name == "alternator" else counting_walker(2)
    tree = edge_colored_line(11)
    for u, v in [(0, 5), (3, 10), (6, 2)]:
        dict_v = solve_all_delays_faulted(
            tree, agent, u, v, max_delay=2 * plan.horizon + 6, faults=plan
        )
        kern_v = solve_all_delays_kernel(
            tree, agent, u, v, max_delay=2 * plan.horizon + 6, faults=plan
        )
        assert kern_v == dict_v
        assert any(d.delay < plan.horizon for d in kern_v)
        assert any(d.delay >= plan.horizon for d in kern_v)
    if plan.crashes:
        assert any(d.crashed for d in kern_v)
    starts = (0, 2, 7)
    vectors = [(0, 0, 0), (0, 1, 2), (3, 0, 1), (1, 4, 0)]
    assert solve_gathering_kernel(
        line(11), agent, starts, vectors, faults=plan
    ) == solve_gathering_faulted(line(11), agent, starts, vectors, faults=plan)


# ----------------------------------------------------------------------
# Many-pair sweeps: one frontier per tree == the reference engine
# ----------------------------------------------------------------------

_PAIR_BACKENDS = (AutoBackend(), CompiledBackend())


def _random_pairs(tree, seed, count=4):
    rng = random.Random(seed)
    return [(rng.randrange(tree.n), rng.randrange(tree.n)) for _ in range(count)]


def _assert_pairs_equal_reference(tree, agent, pairs, oracle_agent=None,
                                  **kwargs):
    """Unbudgeted sweeps: every exact route equals the reference
    engine's certified per-choice runs of ``oracle_agent`` (default:
    ``agent`` itself), ``crashed`` included."""
    ref = ReferenceBackend().sweep_delay_pairs(
        tree, oracle_agent or agent, pairs, **kwargs
    )
    for backend in _PAIR_BACKENDS:
        assert backend.sweep_delay_pairs(tree, agent, pairs, **kwargs) == ref


def _assert_pairs_equal_one_pair_calls(tree, agent, pairs, **kwargs):
    """Budgeted sweeps: the reference's round budget and the exact
    solvers' configuration guard starve different choices, so the
    oracle is the backend's own one-pair calls — a pair's budget trip
    must not touch its neighbours."""
    for backend in _PAIR_BACKENDS:
        one_pair = [
            backend.sweep_delay_pairs(tree, agent, [pair], **kwargs)[0]
            for pair in pairs
        ]
        assert backend.sweep_delay_pairs(tree, agent, pairs, **kwargs) == one_pair


@settings(max_examples=30, deadline=None)
@given(instances(), st.integers(0, 2**20), st.integers(0, 8),
       st.sampled_from([(1, 2), (2, 1), (1,), (2,)]),
       st.one_of(st.none(), fault_plans()))
def test_sweep_delay_pairs_equals_reference(instance, seed, max_delay,
                                            sides, plan):
    """Native automata, with and without a fault plan."""
    tree, agent, _u, _v = instance
    _assert_pairs_equal_reference(
        tree, agent, _random_pairs(tree, seed),
        max_delay=max_delay, sides=sides, faults=plan,
    )


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**20), st.integers(0, 3),
       st.booleans(), st.one_of(st.none(), fault_plans()))
def test_sweep_delay_pairs_register_programs(n, seed, max_delay,
                                             use_counting, plan):
    """Register programs (traced lowering per pair, or full lowering
    once under faults) give the reference engine's verdicts.  The
    reference engine cannot certify non-meeting for a register program
    (it has no finite ``state``), so it runs the program's behavioral
    lowering instead."""
    rng = random.Random(seed)
    tree = random_relabel(random_tree(n, rng), rng)
    program = counting_program(2) if use_counting else pausing_program(2)
    _assert_pairs_equal_reference(
        tree, program, _random_pairs(tree, seed, count=3),
        oracle_agent=_lowered_for_faults(program, tree),
        max_delay=max_delay, faults=plan,
    )


@settings(max_examples=15, deadline=None)
@given(instances(max_n=7), st.integers(0, 2**20), st.integers(0, 5),
       st.integers(1, 60), st.one_of(st.none(), fault_plans()))
def test_sweep_delay_pairs_budgeted(instance, seed, max_delay, budget, plan):
    """Small ``max_rounds``: budget trips degrade per pair, exactly as
    one-pair calls do, undecided verdicts included."""
    tree, agent, _u, _v = instance
    _assert_pairs_equal_one_pair_calls(
        tree, agent, _random_pairs(tree, seed),
        max_delay=max_delay, max_rounds=budget, faults=plan,
    )


def test_sweep_delay_pairs_budget_trips_one_pair():
    """A budget the heavy pair's solvers overrun while the cheap pairs
    fit: the heavy pair degrades to budgeted per-run execution, the
    cheap ones stay exact."""
    from repro.telemetry import Telemetry, use

    tree = edge_colored_line(31)
    agent = pausing_walker(2)
    # the dict solver needs 1475 configs for (0, 29), 65 for (10, 11)
    pairs = [(0, 29), (10, 11), (10, 11)]
    _assert_pairs_equal_one_pair_calls(
        tree, agent, pairs, max_delay=16, max_rounds=1_000
    )
    telem = Telemetry()
    with use(telem):
        AutoBackend().sweep_delay_pairs(
            tree, agent, pairs, max_delay=16, max_rounds=1_000
        )
    counters = telem.snapshot()["counters"]
    assert counters["backend.dispatch.sweep_delays.per_run"] == 1
    assert counters["backend.dispatch.sweep_delays.exact"] == 2


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 2**20), st.integers(0, 6),
       st.integers(0, 400), st.one_of(st.none(), fault_plans()))
def test_grid_budget_trips_exactly_when_a_pair_would(instance, seed, max_delay,
                                                     budget, plan):
    """The grid's guard is per pair: it raises iff some pair's own
    kernel call raises under the same ``max_configs``, and otherwise
    gives that call's verdicts."""
    tree, agent, _u, _v = instance
    pairs = _random_pairs(tree, seed)
    per_pair = [
        _outcome(solve_all_delays_kernel, tree, agent, u, v,
                 max_delay=max_delay, max_configs=budget, faults=plan)
        for u, v in pairs
    ]
    grid = _outcome(solve_delay_grid_kernel, tree, agent, pairs,
                    max_delay=max_delay, max_configs=budget, faults=plan)
    if BudgetExceededError in per_pair:
        assert grid is BudgetExceededError
    else:
        assert grid == per_pair


@settings(max_examples=20, deadline=None)
@given(instances(), st.integers(0, 2**20), st.integers(0, 6),
       st.one_of(st.none(), fault_plans()))
def test_grid_auto_heterogeneous_prototype2(instance, seed, max_delay, plan):
    tree, agent, _u, _v = instance
    other = _heterogeneous(tree, seed)
    pairs = _random_pairs(tree, seed)
    per_pair = [
        solve_all_delays(tree, agent, u, v, max_delay=max_delay,
                         prototype2=other, faults=plan)
        for u, v in pairs
    ]
    grid = solve_delay_grid_auto(
        tree, agent, pairs, max_delay=max_delay, prototype2=other,
        faults=plan,
    )
    assert grid == per_pair
