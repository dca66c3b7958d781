"""End-to-end command line runs through main(argv)."""

import argparse
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structctrl
from structctrl import cli, graph, matching
from structctrl.bench import dedicated_selection_times, loglog_slope
from structctrl.ctrl import is_structurally_controllable
from structctrl.cli import main
from structctrl.demo import two_community_network
from structctrl.generate import random_instance
from structctrl.matching import has_perfect_matching
from structctrl.mincis import (
    brute_force_mincis,
    dedicated_input_selection,
    leader_selection_constrained,
    leader_selection_unconstrained,
    mincis_reduce,
    solve_mincis,
)
from structctrl.setcover import SetCoverInstance
from structctrl.structmat import (
    ProblemInstance,
    StructMatrix,
    identity_pattern,
    parse_instance,
    parse_instance_blocks,
    serialize_instance,
    serialize_struct_matrix,
    transpose,
)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.instance"
    path.write_text(serialize_instance(two_community_network()))
    return str(path)


@pytest.fixture
def stranded_file(tmp_path):
    # second state unreachable and unactuated: infeasible however solved
    inst = ProblemInstance(identity_pattern(2), StructMatrix(2, 1, frozenset({(0, 0)})))
    path = tmp_path / "stranded.instance"
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.fixture
def unmatchable_file(tmp_path):
    # single star (1, 0): controllable from input 0 but no perfect matching
    inst = ProblemInstance(StructMatrix(2, 2, frozenset({(1, 0)})), identity_pattern(2))
    path = tmp_path / "unmatchable.instance"
    path.write_text(serialize_instance(inst))
    return str(path)


class TestCheck:
    def test_two_community_network(self, demo_file, capsys):
        assert main(["check", demo_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert "SCC 4: x1 x2 NON-TOP" in lines
        assert "SCC 7: x3 x4 NON-TOP" in lines
        assert lines[-1] == "CONTROLLABLE, non-top-linked SCCs: 2, Assumption 1: YES"

    def test_negative_verdict(self, stranded_file, capsys):
        assert main(["check", stranded_file]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == (
            "NOT CONTROLLABLE, non-top-linked SCCs: 2, Assumption 1: YES"
        )

    def test_verdict_without_matching(self, unmatchable_file, capsys):
        assert main(["check", unmatchable_file]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("Assumption 1: NO")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.instance"
        path.write_text("2 2\n5 5\n---\n2 1\n")
        assert main(["check", str(path)]) == 2
        assert "out of range line 2" in capsys.readouterr().err


class TestSolve:
    def test_exact(self, demo_file, capsys):
        assert main(["solve", demo_file]) == 0
        assert capsys.readouterr().out == "FEASIBLE 1: 2 [exact]\n"

    def test_greedy(self, demo_file, capsys):
        assert main(["solve", demo_file, "--mode", "greedy"]) == 0
        assert capsys.readouterr().out == "FEASIBLE 1: 2 [greedy]\n"

    def test_brute(self, demo_file, capsys):
        assert main(["solve", demo_file, "--mode", "brute"]) == 0
        assert capsys.readouterr().out == "FEASIBLE 1: 2 [brute-force]\n"

    def test_infeasible(self, stranded_file, capsys):
        assert main(["solve", stranded_file]) == 1
        assert capsys.readouterr().out == "INFEASIBLE\n"

    def test_exact_needs_matching(self, unmatchable_file, capsys):
        assert main(["solve", unmatchable_file]) == 3
        err = capsys.readouterr().err
        assert "no perfect matching" in err
        assert "--mode brute" in err

    def test_brute_needs_no_matching(self, unmatchable_file, capsys):
        assert main(["solve", unmatchable_file, "--mode", "brute"]) == 0
        assert capsys.readouterr().out == "FEASIBLE 1: 1 [brute-force]\n"

    def test_brute_cap(self, demo_file, capsys):
        assert main(["solve", demo_file, "--mode", "brute", "--brute-cap", "3"]) == 2
        assert "enumeration cap" in capsys.readouterr().err

    def test_dual_matches_manual_transpose(self, tmp_path, capsys):
        a = StructMatrix(2, 2, frozenset({(0, 0), (1, 1), (1, 0)}))
        c = StructMatrix(1, 2, frozenset({(0, 1)}))
        measured = tmp_path / "measured.instance"
        measured.write_text(
            serialize_struct_matrix(a) + "---\n" + serialize_struct_matrix(c)
        )
        flipped = tmp_path / "flipped.instance"
        flipped.write_text(
            serialize_instance(ProblemInstance(transpose(a), transpose(c)))
        )
        assert main(["solve", str(measured), "--dual"]) == 0
        via_flag = capsys.readouterr().out
        assert main(["solve", str(flipped)]) == 0
        assert via_flag == capsys.readouterr().out


class TestReduce:
    def test_two_community_network(self, demo_file, capsys):
        assert main(["reduce", demo_file]) == 0
        assert capsys.readouterr().out == "2 4\n0\n0 1\n1\n\n"

    def test_round_trips_through_gen(self, demo_file, tmp_path, capsys):
        main(["reduce", demo_file])
        cover_path = tmp_path / "cover.setcover"
        cover_path.write_text(capsys.readouterr().out)
        assert main(["gen", "--from-setcover", str(cover_path)]) == 0
        lifted = parse_instance(capsys.readouterr().out)
        assert lifted.a == identity_pattern(2)
        assert lifted.p == 4

    def test_needs_matching(self, unmatchable_file, capsys):
        assert main(["reduce", unmatchable_file]) == 3
        assert "reduction precondition" in capsys.readouterr().err

    def test_infeasible(self, stranded_file, capsys):
        assert main(["reduce", stranded_file]) == 1
        assert "actuated by no input" in capsys.readouterr().err


class TestGen:
    def test_from_setcover(self, tmp_path, capsys):
        path = tmp_path / "family.setcover"
        path.write_text("2 4\n0\n0 1\n1\n\n")
        assert main(["gen", "--from-setcover", str(path)]) == 0
        assert capsys.readouterr().out == "2 2\n0 0\n1 1\n---\n2 4\n0 0\n0 1\n1 1\n1 2\n"

    def test_random_is_reproducible(self, capsys):
        argv = ["gen", "--random", "4", "2", "0.5", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        inst = parse_instance(first)
        assert (inst.n, inst.p) == (4, 2)

    def test_assumption1_forces_matching(self, capsys):
        assert main(["gen", "--random", "6", "2", "0.2", "3", "--assumption1"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert has_perfect_matching(inst.a)

    def test_bad_density(self, capsys):
        assert main(["gen", "--random", "4", "2", "1.5", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_numeric_random_arguments(self, capsys):
        assert main(["gen", "--random", "4", "2", "dense", "0"]) == 2
        assert "N P DENSITY SEED" in capsys.readouterr().err

    def test_assumption1_rejected_for_setcover(self, tmp_path, capsys):
        path = tmp_path / "family.setcover"
        path.write_text("1 1\n0\n")
        assert main(["gen", "--from-setcover", str(path), "--assumption1"]) == 2
        assert "--assumption1" in capsys.readouterr().err


class TestProbe:
    def test_agreement_positive(self, demo_file, capsys):
        assert main(["probe", demo_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "structural: CONTROLLABLE"
        assert lines[1] == "numeric: FULL RANK (3 trials, tol 1e-08)"
        assert lines[2] == "AGREE (both true)"

    def test_agreement_negative(self, stranded_file, capsys):
        assert main(["probe", stranded_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "structural: NOT CONTROLLABLE"
        assert lines[1] == "numeric: RANK DEFICIENT (3 trials, tol 1e-08)"
        assert lines[2] == "AGREE (both false)"

    def test_options_flow_through(self, demo_file, capsys):
        assert main(["probe", demo_file, "--trials", "1", "--seed", "5", "--tol", "1e-6"]) == 0
        assert "(1 trials, tol 1e-06)" in capsys.readouterr().out

    def test_tolerance_outside_the_unit_interval_is_bad_input(self, demo_file, capsys):
        for tol in ("nan", "inf", "1", "0"):
            assert main(["probe", demo_file, "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "strictly between 0 and 1" in captured.err


class TestBench:
    def test_smoke(self, capsys):
        assert main(["bench", "--target", "condense", "--sizes", "30,60"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n=30 time=")
        assert lines[1].startswith("n=60 time=")
        assert lines[2].startswith("log-log slope:")

    def test_needs_two_sizes(self, capsys):
        assert main(["bench", "--sizes", "30"]) == 2
        assert "two sizes" in capsys.readouterr().err

    def test_rejects_garbage_sizes(self, capsys):
        assert main(["bench", "--sizes", "a,b"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_rejects_sizes_below_one(self, capsys):
        assert main(["bench", "--target", "condense", "--sizes", "0,10"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_needs_two_different_sizes(self, capsys):
        assert main(["bench", "--target", "condense", "--sizes", "100,100"]) == 2
        assert "not all equal" in capsys.readouterr().err

    def test_slope_needs_two_different_sizes(self):
        with pytest.raises(ValueError, match="different sizes"):
            loglog_slope([(100, 0.1), (100, 0.2)])


class TestOnePatternForm:
    def test_check_and_solve_never_build_star_sets(self, tmp_path, monkeypatch, capsys):
        # every state actuated, so the greedy solve covers and verifies
        a = random_instance(1000, 0, 0.003, 5, full_diagonal=True).a
        b = StructMatrix(1000, 100, [(i, i % 100) for i in range(1000)])
        path = tmp_path / "big.instance"
        path.write_text(serialize_instance(ProblemInstance(a, b)))
        parsed = []

        def recording(text):
            parsed.extend(parse_instance_blocks(text))
            return parsed[-2:]

        monkeypatch.setattr(cli, "parse_instance_blocks", recording)
        main(["check", str(path)])
        main(["solve", str(path), "--mode", "greedy"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("CONTROLLABLE") and lines[-1].startswith("FEASIBLE ")
        assert len(parsed) == 4 and sum(m.csc[1].size for m in parsed[:2]) > 3000
        assert not any("stars" in vars(m) for m in parsed)

    def test_probe_never_builds_star_sets(self, demo_file, monkeypatch, capsys):
        # the probe's dense realisation, unlike check and solve, stays small
        parsed = []

        def recording(text):
            parsed.extend(parse_instance_blocks(text))
            return parsed[-2:]

        monkeypatch.setattr(cli, "parse_instance_blocks", recording)
        assert main(["probe", demo_file]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "AGREE (both true)"
        assert len(parsed) == 2 and not any("stars" in vars(m) for m in parsed)

    def test_leader_selection_never_builds_star_sets(self):
        w = random_instance(60, 0, 0.03, 2, full_diagonal=True).a
        b = StructMatrix(60, 12, [(i, i % 12) for i in range(60)])
        assert leader_selection_unconstrained(w).feasible
        assert leader_selection_constrained(w, b).feasible
        assert "stars" not in vars(w) and "stars" not in vars(b)

    def test_cover_commands_never_build_star_sets_or_set_views(self, tmp_path, monkeypatch, capsys):
        # gen --from-setcover embeds a cover, reduce takes it back out
        text = "4 5\n0 1\n2\n\n1 2 3\n3\n"
        (tmp_path / "family.cover").write_text(text)
        built = []
        for name in ("parse_set_cover", "setcover_to_mincis", "parse_instance_blocks", "mincis_reduce"):
            def recording(*args, kernel=getattr(cli, name)):
                built.append(kernel(*args))
                return built[-1]

            monkeypatch.setattr(cli, name, recording)
        assert main(["gen", "--from-setcover", str(tmp_path / "family.cover")]) == 0
        (tmp_path / "embedded.instance").write_text(capsys.readouterr().out)
        assert main(["reduce", str(tmp_path / "embedded.instance")]) == 0
        assert capsys.readouterr().out == text
        parsed, embedded, blocks, reduced = built
        assert parsed == reduced and isinstance(reduced, SetCoverInstance)
        assert "sets" not in vars(parsed) and "sets" not in vars(reduced)
        assert not any("stars" in vars(m) for m in (embedded.a, embedded.b, *blocks))


def _counted(monkeypatch, module, name: str) -> list:
    """Record the calls of ``module.name`` while the test runs."""
    calls = []
    kernel = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneCondensation:
    """Each pattern is condensed and matched at most once, on first use."""

    @pytest.fixture
    def condensations(self, monkeypatch):
        return _counted(monkeypatch, graph, "connected_components")

    @pytest.fixture
    def matchings(self, monkeypatch):
        return _counted(monkeypatch, matching, "maximum_bipartite_matching")

    def test_solve_mincis(self, condensations):
        for mode in ("exact", "greedy"):
            condensations.clear()
            assert solve_mincis(two_community_network(), mode).feasible
            assert len(condensations) == 1

    def test_dedicated_selection(self, condensations):
        assert dedicated_input_selection(two_community_network().a).objective == 2
        assert len(condensations) == 1

    @pytest.mark.parametrize(
        "argv", [["check"], ["solve", "--mode", "greedy"], ["solve"], ["reduce"]]
    )
    def test_commands(self, argv, demo_file, stranded_file, condensations, capsys):
        for path, code in ((demo_file, 0), (stranded_file, 1)):
            condensations.clear()
            assert main([argv[0], path, *argv[1:]]) == code
            assert len(condensations) == 1

    def test_repeated_calls_on_one_instance(self, condensations):
        inst = two_community_network()
        for _ in range(2):
            assert is_structurally_controllable(inst, [1])
            assert mincis_reduce(inst).universe_size == 2
            assert solve_mincis(inst).chosen == (1,)
            assert brute_force_mincis(inst).chosen == (1,)
        assert len(condensations) == 1

    @pytest.mark.parametrize("argv", [["check"], ["solve", "--mode", "greedy"]])
    def test_one_matching_per_command(self, argv, demo_file, matchings, capsys):
        assert main([argv[0], demo_file, *argv[1:]]) == 0
        assert len(matchings) == 1

    def test_bench_condenses_in_every_timed_run(self, condensations):
        dedicated_selection_times([50, 60])
        assert len(condensations) == 6

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))], ids=["deepcopy", "pickle"]
    )
    def test_copies_carry_no_cache(self, duplicate, condensations):
        a = two_community_network().a
        cond = a.condensation
        assert a.perfectly_matchable
        twin = duplicate(a)
        assert twin == a
        assert "condensation" not in vars(twin) and "perfectly_matchable" not in vars(twin)
        rebuilt = twin.condensation
        assert len(condensations) == 2
        assert rebuilt.scc_count == cond.scc_count
        for name in ("scc_id", "dag_edges", "sources"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(cond, name))


class TestModuleEntryPoint:
    @staticmethod
    def run(module, *argv):
        src = str(Path(structctrl.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_python_dash_m_runs_the_cli(self, demo_file):
        shown = self.run("structctrl.cli", "--help")
        assert shown.returncode == 0 and shown.stdout.startswith("usage: structctrl")
        solved = self.run("structctrl.cli", "solve", demo_file)
        assert (solved.returncode, solved.stdout) == (0, "FEASIBLE 1: 2 [exact]\n")

    def test_python_dash_m_runs_the_package(self, demo_file):
        solved = self.run("structctrl", "solve", demo_file)
        assert (solved.returncode, solved.stdout) == (0, "FEASIBLE 1: 2 [exact]\n")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_gen_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])
        assert exc.value.code == 2


class TestOneParser:
    def test_calls_share_one_parser(self, demo_file, monkeypatch, capsys):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recorded(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
        assert main(["check", demo_file]) == 0
        assert main(["solve", demo_file]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_usage_error_leaves_the_parser_working(self, demo_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", demo_file, "--mode", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["solve", demo_file]) == 0
        assert capsys.readouterr().out == "FEASIBLE 1: 2 [exact]\n"

    @pytest.mark.parametrize("command", [[], ["check"], ["solve"], ["reduce"], ["gen"], ["probe"], ["bench"]])
    def test_help_is_that_of_a_fresh_parser(self, command, demo_file, capsys):
        main(["solve", demo_file])
        capsys.readouterr()
        fresh = cli.build_parser.__wrapped__()
        with pytest.raises(SystemExit):
            fresh.parse_args([*command, "--help"])
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected
