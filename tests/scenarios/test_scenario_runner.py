"""Tests for the Runner, the registry and the executor contract."""

import pytest

from repro.scenarios import (
    EXECUTORS,
    DelayPolicy,
    Runner,
    ScenarioError,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.runner import format_rows


class TestRegistry:
    def test_every_spec_has_an_executor(self):
        for spec in all_scenarios():
            assert spec.kind in EXECUTORS, spec.name

    def test_every_spec_serializes_and_hashes(self):
        for spec in all_scenarios():
            roundtrip = ScenarioSpec.from_json(spec.to_json())
            assert roundtrip.spec_hash() == spec.spec_hash()

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            get_scenario("nope")

    def test_collision_rejected(self):
        name = scenario_names()[0]
        with pytest.raises(ScenarioError):
            register(get_scenario(name))
        # replace=True is the explicit escape hatch
        register(get_scenario(name), replace=True)

    def test_expected_experiment_coverage(self):
        # the paper's experiment surfaces all have registry entries
        names = set(scenario_names())
        assert {
            "thm31-sweep", "thm42-sweep", "thm43", "delays-line",
            "success-families", "gap-table", "verify-small", "atlas",
            "baseline-delays", "gathering-spider",
        } <= names


class TestRunner:
    def test_delay_sweep_result_shape(self):
        result = Runner().run("delays-line")
        assert result.ok
        assert result.backend == "auto"
        assert len(result.rows) == 33  # θ=0 once + 16 × both sides
        first = result.rows[0]
        assert set(first) == {"pair", "delay", "delayed", "verdict", "round"}
        assert result.summary["met"] + result.summary["certified_never"] == 33
        assert result.elapsed_seconds >= 0

    def test_param_overrides(self):
        result = Runner().run("atlas", params={"n": 5})
        assert len(result.rows) == 3  # 3 non-isomorphic trees on 5 nodes

    def test_backend_override_recorded(self):
        result = Runner(backend="reference").run("thm31-sweep", params={"ks": [1]})
        assert result.backend == "reference"
        assert result.spec.backend == "reference"

    def test_unknown_kind(self):
        spec = ScenarioSpec(name="x", kind="warp_drive")
        with pytest.raises(ScenarioError):
            Runner().run(spec)

    def test_repetitions_relabel(self):
        spec = ScenarioSpec(
            name="rep", kind="delay_sweep", tree="colored:9",
            agent="alternator", pairs=((0, 5),),
            delays=DelayPolicy.sweep(2), repetitions=2,
        )
        result = Runner().run(spec)
        assert {row["rep"] for row in result.rows} == {0, 1}

    def test_backend_agnostic_kind_rejects_backend_hint(self):
        # atlas never consults a backend; a forced hint must not be
        # silently recorded as the executing engine.  (gap-table,
        # success-families and verify-small used to sit here — they are
        # backend-sensitive now that lowering runs their program agents.)
        with pytest.raises(ScenarioError):
            Runner().run("atlas", backend="reference")
        with pytest.raises(ScenarioError):
            Runner(backend="compiled").run("minimization")
        assert Runner().run("atlas", params={"n": 4}).backend == "auto"

    def test_undecided_verdicts_are_not_reported_as_certified(self):
        from repro.scenarios import Backend
        from repro.sim.compiled import DelayVerdict

        class BudgetedStub(Backend):
            name = "auto"  # stands in for a budget-limited auto dispatch

            def run(self, *a, **kw):  # pragma: no cover - not used
                raise AssertionError

            def sweep_delay_pairs(self, tree, prototype, pairs, *,
                                  max_delay, sides=(1, 2), max_rounds=0,
                                  faults=None):
                return [[DelayVerdict(0, 2, False, None, False)] for _ in pairs]

        result = Runner(backend=BudgetedStub()).run("delays-line")
        assert result.rows[0]["verdict"] == "undecided"
        assert result.summary["undecided"] == 1
        assert result.summary["certified_never"] == 0
        assert not result.ok

    def test_payload_schema_fields(self):
        payload = Runner().run("gathering-spider").to_payload()
        assert payload["schema"] == "repro.scenario-result/v1"
        assert payload["spec"]["name"] == "gathering-spider"
        assert payload["environment"]["python"]
        assert payload["timings"]["elapsed_seconds"] >= 0


class TestFormatRows:
    def test_alignment_and_nulls(self):
        text = format_rows(
            [{"a": 1, "b": None}, {"a": 200, "b": "x", "c": True}]
        )
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["a", "b", "c"]
        assert lines[1].split() == ["1", "-", "-"]
        assert lines[2].split() == ["200", "x", "True"]

    def test_empty(self):
        assert format_rows([]) == "(no rows)"
