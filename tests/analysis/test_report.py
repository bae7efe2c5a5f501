"""Tests for the one-shot report generator and small-tree edge cases."""

from repro.analysis import ReportScale, generate_report


class TestReport:
    def test_quick_report_structure(self):
        text = generate_report(
            ReportScale((0, 1), (4, 8), 40, (5, 9), (1, 2))
        )
        for heading in ("E1", "E3a", "E3b", "E4", "E7"):
            assert heading in text
        assert "exponential in bits" in text
        assert "log ℓ shape" in text

    def test_scales(self):
        q = ReportScale.quick()
        f = ReportScale.full()
        assert len(f.subdivisions) > len(q.subdivisions)
        assert max(f.thm31_ks) > max(q.thm31_ks)

    def test_cli_report_to_file(self, cli_report):
        assert cli_report.rc == 0
        assert cli_report.path.exists()
        assert "# Reproduction report" in cli_report.path.read_text()


class TestTinyTreeEdgeCases:
    """The whole public surface on 1- and 2-node trees."""

    def test_one_node_tree(self):
        from repro.trees import Tree, ascii_tree, contract, find_center, tree_to_json, tree_from_json
        from repro.sim import run_rendezvous
        from repro.core import rendezvous_agent

        t = Tree([[]], validate=False)
        assert find_center(t).is_node
        assert contract(t).nu == 1
        assert "(0)" in ascii_tree(t)
        assert tree_from_json(tree_to_json(t)).n == 1
        out = run_rendezvous(t, rendezvous_agent(max_outer=1), 0, 0)
        assert out.met and out.meeting_round == 0

    def test_two_node_tree(self):
        from repro.core import solve
        from repro.errors import InfeasibleRendezvousError
        from repro.trees import line, perfectly_symmetrizable

        t = line(2)
        assert perfectly_symmetrizable(t, 0, 1)
        import pytest

        with pytest.raises(InfeasibleRendezvousError):
            solve(t, 0, 1)
        r = solve(t, 0, 1, check_feasibility=False, max_rounds=5000)
        assert not r.met  # provably impossible (the two ports are both 0)

    def test_two_node_gathering_regime(self):
        from repro.core import classify_gathering
        from repro.trees import line

        regime = classify_gathering(line(2))
        assert regime.kind == "symmetric"
