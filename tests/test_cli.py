"""End-to-end command line runs through main(argv)."""

import argparse
import copy
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import structctrl
from structctrl import bench, cli, graph, matching, structmat
from structctrl.bench import condense_times, dedicated_selection_times, loglog_slope
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


@pytest.fixture
def swapped_file(tmp_path):
    # stars (0, 1) and (1, 0): perfectly matchable with no self-loop, one source SCC that input 0 actuates
    path = tmp_path / "swapped.instance"
    path.write_text("2 2\n0 1\n1 0\n---\n2 1\n0 0\n")
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

    def test_undecodable_file(self, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError that is not a ParseError
        path = tmp_path / "latin1.instance"
        path.write_bytes("1 1\n0 0\n---\n1 1\n0 0\n\xe9\n".encode("latin-1"))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


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
        err = capsys.readouterr().err
        assert "reduction precondition" in err
        assert "solve --mode brute" in err

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

    def test_uncoverable_family(self, tmp_path, capsys):
        path = tmp_path / "family.setcover"
        path.write_text("2 1\n0\n")
        assert main(["gen", "--from-setcover", str(path)]) == 2
        assert "uncoverable" in capsys.readouterr().err


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

    def test_takes_a_negative_seed(self, capsys):
        assert main(["bench", "--seed", "-5000", "--sizes", "30,60"]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("log-log slope:")

    def test_needs_two_sizes(self, capsys):
        assert main(["bench", "--sizes", "30"]) == 2
        assert "two sizes" in capsys.readouterr().err

    def test_rejects_garbage_sizes(self, capsys):
        assert main(["bench", "--sizes", "a,b"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_rejects_sizes_below_one(self, capsys):
        assert main(["bench", "--target", "condense", "--sizes", "0,10"]) == 2
        assert "at least 1" in capsys.readouterr().err
        # a bad size anywhere in the list is refused before any size is timed
        assert main(["bench", "--sizes", "30,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err

    def test_needs_two_different_sizes(self, capsys):
        assert main(["bench", "--target", "condense", "--sizes", "100,100"]) == 2
        assert "not all equal" in capsys.readouterr().err

    @pytest.mark.parametrize("timer", [dedicated_selection_times, condense_times])
    @pytest.mark.parametrize("sizes", [[0, 10], [-3, 10], [10, 0]])
    def test_timers_refuse_sizes_below_one(self, timer, sizes, monkeypatch):
        monkeypatch.setattr(bench, "best_time", lambda fn: pytest.fail("timed before refusing"))
        with pytest.raises(ValueError, match="sizes must be at least 1"):
            timer(sizes)

    @pytest.mark.parametrize("timer, degree", [(dedicated_selection_times, 3), (condense_times, 4)])
    def test_timers_refuse_sizes_over_the_memory_budget(self, timer, degree, monkeypatch):
        monkeypatch.setattr(bench, "best_time", lambda fn: pytest.fail("timed before refusing"))
        monkeypatch.setattr(bench, "_sparse_square", lambda *args: pytest.fail("drawn before refusing"))
        fits = structmat._BUDGET_BYTES // (24 * degree)  # 16 bytes a star's pair and 8 its sort key
        assert bench._checked_sizes([10, fits], degree) == [10, fits]
        with pytest.raises(ValueError, match=f"size {fits + 1} needs more than the 1 GiB budget"):
            timer([10, fits + 1])

    def test_cli_refuses_a_size_over_the_memory_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "best_time", lambda fn: pytest.fail("timed before refusing"))
        too_big = structmat._BUDGET_BYTES // 72 + 1
        assert main(["bench", "--sizes", f"100,{too_big}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"size {too_big} needs" in captured.err

    def test_draw_is_seeded(self):
        n = 1000
        for seed in (0, 7, -5000):
            a = bench._sparse_square(n, 3.0, seed)
            assert 2.9 * n <= a.csc[1].size <= 3 * n  # a repeated pair counts once
            assert a == bench._sparse_square(n, 3.0, seed)
        assert len({bench._sparse_square(n, 3.0, seed) for seed in (0, 1, -1, -5000)}) == 4

    def test_draw_costs_stars_not_cells(self):
        # drawing these two patterns by scanning all n^2 cells took about 27 s
        start = time.perf_counter()
        condense_times([10_000, 20_000])
        assert time.perf_counter() - start < 5.0

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

    def test_one_label_sort_per_condensation(self, monkeypatch):
        sorts = _counted(monkeypatch, graph.Condensation.groups, "func")
        inst = two_community_network()
        assert graph.condensation_report(inst.a.condensation).count("NON-TOP") == 2
        assert mincis_reduce(inst).universe_size == 2
        assert dedicated_input_selection(inst.a) == leader_selection_unconstrained(inst.a)
        assert len(sorts) == 1

    @pytest.mark.parametrize("argv", [["check"], ["solve", "--mode", "greedy"]])
    def test_one_matching_per_command(self, argv, swapped_file, demo_file, matchings, capsys):
        # the demo's self-loops are its perfect matching, so it needs no matching kernel
        for path, count in ((swapped_file, 1), (demo_file, 0)):
            matchings.clear()
            assert main([argv[0], path, *argv[1:]]) == 0
            assert len(matchings) == count

    def test_one_self_loop_mask_per_pattern(self, monkeypatch):
        columns = _counted(monkeypatch, structmat, "_star_columns")
        w = two_community_network().a  # a self-loop on every agent
        for count in (1, 0):  # the mask is built on the first selection and read on the second
            columns.clear()
            assert leader_selection_unconstrained(w).objective == 2
            assert len(columns) == count

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
        assert not {"condensation", "perfectly_matchable", "self_looped"} & vars(twin).keys()
        rebuilt = twin.condensation
        assert len(condensations) == 2
        assert rebuilt.scc_count == cond.scc_count
        for name in ("scc_id", "sources"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(cond, name))


class TestModuleEntryPoint:
    src = str(Path(structctrl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    @classmethod
    def run(cls, module, *argv, **options):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=cls.env, timeout=120, **options,
        )

    def test_python_dash_m_runs_the_cli(self, demo_file):
        shown = self.run("structctrl.cli", "--help")
        assert shown.returncode == 0 and shown.stdout.startswith("usage: structctrl")
        solved = self.run("structctrl.cli", "solve", demo_file)
        assert (solved.returncode, solved.stdout) == (0, "FEASIBLE 1: 2 [exact]\n")

    def test_python_dash_m_runs_the_package(self, demo_file):
        solved = self.run("structctrl", "solve", demo_file)
        assert (solved.returncode, solved.stdout) == (0, "FEASIBLE 1: 2 [exact]\n")

    @pytest.mark.skipif(resource is None, reason="the platform has no resource limits")
    def test_too_many_columns_is_bad_input(self, tmp_path):
        # 2**31 - 1 input columns: their arrays would take 24 GiB, so the 4 GiB cap
        # makes an unguarded allocation fail with MemoryError instead of filling the host
        path = tmp_path / "wide.instance"
        path.write_text("1 1\n0 0\n---\n1 2147483647\n")
        cap = 4 << 30
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))  # noqa: E731
        done = self.run("structctrl", "check", str(path), preexec_fn=limit)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: 1x2147483647 pattern needs 24.0 GiB for its column arrays, over the budget of 1 GiB\n"

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_stdout_pipe_ends_quietly(self, tmp_path):
        # a 20,000-line SCC report outgrows the pipe buffer, so the command
        # is still writing when the reader closes the pipe, as `| head -1` does
        path = tmp_path / "identity.instance"
        path.write_text(serialize_instance(ProblemInstance(identity_pattern(20000), identity_pattern(20000))))
        with subprocess.Popen(
            [sys.executable, "-m", "structctrl", "check", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
        ) as proc:
            assert proc.stdout.readline() == b"SCC 1: x1 NON-TOP\n"
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=120)
        assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


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
