"""CLI coverage smoke test (satellite of the unified-scenario PR).

Invokes EVERY registered subcommand on a tiny instance and asserts exit
code 0.  The argv table below is checked against the parser's actual
subcommand list, so adding a CLI command without a smoke entry fails
loudly here.
"""

import argparse

import pytest

from repro.cli import _parser, main

# tiny-instance argv per subcommand; every entry must exit 0
SMOKE_ARGV = {
    "solve": ["--tree", "line:7", "-u", "0", "-v", "4"],
    "baseline": ["--tree", "star:4", "-u", "1", "-v", "3", "--delay", "3"],
    # random:2 @ seed 4 on line:3 meets under every delay choice (rc 0)
    "delays": ["--tree", "line:3", "--agent", "random:2", "--seed", "4",
               "-u", "0", "-v", "1", "--max-delay", "3"],
    "atlas": ["-n", "4"],
    "atlas-programs": [],
    "gap": ["--subdivisions", "0,1"],
    "thm31": ["--max-k", "1"],
    "thm42": ["--max-pause", "1"],
    "thm43": ["--states", "3", "-i", "4"],
    "verify": ["-n", "4"],
    "gather": ["--tree", "spider:2,2,2", "--starts", "1,3,5"],
    "gather-sweep": ["--tree", "line:9", "--agent", "counting:2",
                     "--starts", "0,1,3", "--delays", "0,0,0;1,0,2"],
    "lower": ["baseline", "--tree", "star:4"],
    # the invariant gate itself: src/ must be clean (exit 0) at all times
    "lint-invariants": ["src"],
    "viz": ["--tree", "star:3"],
    # run once, with -o, by the session-scoped cli_report fixture
    "report": None,
    "experiments": ["--quick"],
    "scenarios": ["run", "delays-line"],
    # offline aggregation over a committed sample stream (pytest runs
    # from the repo root, same as the Makefile gates)
    "telemetry": ["report", "tests/telemetry/sample_events.jsonl"],
}


def registered_subcommands() -> set[str]:
    parser = _parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return set(action.choices)


def test_smoke_table_covers_every_subcommand():
    assert registered_subcommands() == set(SMOKE_ARGV)


@pytest.mark.parametrize("command", sorted(SMOKE_ARGV))
def test_subcommand_exits_zero(command, capsys, request):
    if command == "report":
        run = request.getfixturevalue("cli_report")
        rc, out = run.rc, run.stdout
    else:
        rc = main([command, *SMOKE_ARGV[command]])
        out = capsys.readouterr().out
    assert rc == 0, f"{command} exited {rc}:\n{out}"
    assert out.strip(), f"{command} printed nothing"


@pytest.mark.parametrize("name", ["gathering-line-k4", "gathering-spider-k3"])
def test_gathering_scenarios_run_with_backend_parity(name, capsys):
    """`repro scenarios run <gathering>` prints identical outcome tables
    under --backend reference and --backend compiled."""
    tables = {}
    for backend in ("reference", "compiled"):
        rc = main(["scenarios", "run", name, "--backend", backend])
        assert rc == 0
        tables[backend] = capsys.readouterr().out.split("\nscenario=")[0]
    assert tables["reference"] == tables["compiled"]


def test_scenarios_list_names_everything(capsys):
    from repro.scenarios import scenario_names

    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_scenarios_list_shows_backend_eligibility(capsys):
    """The eligibility column distinguishes native automata, lowerable
    register programs, and backend-agnostic analysis kinds."""
    assert main(["scenarios", "list"]) == 0
    lines = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()}
    assert "native" in lines["delays-line"]
    assert "lowerable" in lines["verify-small"]
    assert "lowerable" in lines["success-families"]
    assert "agnostic" in lines["atlas"]
    # specs whose agent string needs executor-supplied parameters fall
    # back to the kind's annotation, never to "?" (thm31-sweep's agent
    # is the bare family name "counting")
    assert "native" in lines["thm31-sweep"]


def test_lower_rejects_malformed_agent_spec_cleanly(capsys):
    # "counting" without its :K parameter: one clean error line, no
    # ValueError traceback (the command promises degrade, never a crash)
    with pytest.raises(SystemExit) as exc:
        main(["lower", "counting", "--tree", "line:5"])
    assert "bad agent spec" in str(exc.value)


def test_lower_reports_states_and_bits(capsys):
    """`repro lower` prints lowered state counts and memory bits for
    route B, and the honest route-A refusal for start-degree-dependent
    programs (the baseline reconstructs from its start)."""
    assert main(["lower", "baseline", "--tree", "star:4"]) == 0
    out = capsys.readouterr().out
    assert "lowerable" in out
    assert "route A" in out and "route B" in out
    assert "states" in out and "bits" in out
    assert "lowered 5/5 starts" in out

    # a native automaton just reports its own size
    assert main(["lower", "counting:2", "--tree", "line:7"]) == 0
    out = capsys.readouterr().out
    assert "native" in out and "K=8" in out
