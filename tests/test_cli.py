"""CLI tests: subcommand behavior, output schemas, exit codes, interactive
play, and the win-vector cache."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromagame.cli import MAX_NONOPT_K, MAX_SOLVE_WORK, MAX_VERTICES, run, solve_work
from chromagame.core import IllegalMoveError, Partition
from chromagame.harness import all_partitions
from chromagame.solver import _RestrictedSearch


def invoke(argv, stdin_text=""):
    out = io.StringIO()
    inp = io.StringIO(stdin_text)
    code = run(argv, out=out, inp=inp)
    return code, out.getvalue()


class TestSolve:
    def test_human_output(self):
        code, text = invoke(["solve", "3,3,3"])
        assert code == 0
        assert "chi_g(K_{3,3,3}) = 4" in text
        assert "agrees" in text

    def test_json_schema(self):
        code, text = invoke(["solve", "5,5,1", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["partition"] == [5, 5, 1]
        assert payload["chi_g"] == 3
        assert payload["table1"] is None
        ts = [row["t"] for row in payload["win_vector"]]
        assert ts == list(range(3, 12))
        assert all(isinstance(row["alice_wins"], bool) for row in payload["win_vector"])
        sources = {b["source"] for b in payload["bounds"]}
        assert {"table1", "cor_a1", "cor_a2", "cor_a3",
                "cor_b1_main", "cor_b1_2", "cor_b1_3"} == sources

    def test_solve_and_scan_agree(self):
        code, text = invoke(["solve", "3,2,2", "--format", "json"])
        chi_solve = json.loads(text)["chi_g"]
        code, text = invoke(["scan", "--max-n", "7", "--filter", "no-singletons"])
        row = next(l for l in text.splitlines() if l.startswith("3,2,2,"))
        # the partition field absorbs commas; count fixed columns from the end
        assert int(row.split(",")[-6]) == chi_solve == 4


class TestFormulaAndBounds:
    def test_formula_value(self):
        code, text = invoke(["formula", "4,4,4"])
        assert code == 0 and "= 5" in text

    def test_formula_not_applicable(self):
        code, text = invoke(["formula", "4,3,1"])
        assert code == 0
        assert "not applicable" in text and "singleton" in text

    def test_bounds_human_and_json(self):
        code, text = invoke(["bounds", "2,2,2"])
        assert code == 0 and "cor_b1_2" in text
        code, text = invoke(["bounds", "2,2,2", "--format", "json"])
        payload = json.loads(text)
        values = {b["source"]: b for b in payload["bounds"]}
        assert values["cor_b1_2"]["value"] == 5
        assert values["cor_a3"]["applicable"] is False


class TestSimulate:
    def test_transcript_and_exit(self):
        code, text = invoke(
            ["simulate", "3,3,3", "--colors", "4", "--alice", "a2", "--bob", "b1"]
        )
        assert code == 0
        assert "alice_won" in text and "fixing move" in text

    def test_json_round_trip(self):
        code, text = invoke(
            ["simulate", "4,4,4", "--colors", "4", "--alice", "a1", "--bob", "b1",
             "--format", "json"]
        )
        record = json.loads(text)
        assert record["outcome"] == "bob_won"
        assert record["partition"] == [4, 4, 4]
        assert all(
            set(m) == {"index", "mover", "part", "color", "fresh"}
            for m in record["moves"]
        )

    def test_seeded_random_byte_identical(self):
        args = ["simulate", "3,3,2", "--colors", "4", "--alice", "random:7",
                "--bob", "random:7", "--format", "json"]
        assert invoke(args) == invoke(args)

    def test_no_seed_option(self):
        # a random seat's seed is part of its name, `random:<seed>`
        code, _ = invoke(["simulate", "3,3", "--colors", "3", "--alice", "random",
                          "--bob", "random", "--seed", "1"])
        assert code == 2


class TestVerify:
    def test_pass_exit_zero(self):
        code, text = invoke(
            ["verify", "4,4,4", "--colors", "4", "--strategy", "b1"]
        )
        assert code == 0 and text.startswith("PASS: bob playing b1")

    def test_fail_exit_one_with_counterexample(self):
        code, text = invoke(["verify", "4,4,4", "--colors", "4", "--strategy", "a1"])
        assert code == 1
        assert "FAIL" in text and "outcome: bob_won" in text

    def test_universal_flag(self):
        code, text = invoke(
            ["verify", "3,3,3", "--colors", "4", "--strategy", "a2", "--universal"]
        )
        assert code == 0 and "universal" in text

    def test_fail_rendering_literal(self):
        code, text = invoke(["verify", "4,4,4", "--colors", "4", "--strategy", "a1"])
        assert code == 1
        assert text == (
            "FAIL: alice playing a1 does not meet its goal on K_{4,4,4} with 4 colors "
            "(deterministic); counterexample:\n"
            "K_{4,4,4} with 4 colors: a1 (Alice) vs search (Bob)\n"
            "   1. alice part 0 color 1 (fresh)\n"
            "   2. bob   part 0 color 2 (fresh)\n"
            "   3. alice part 1 color 3 (fresh)\n"
            "   4. bob   part 0 color 4 (fresh)\n"
            "outcome: bob_won using 4 colors\n"
        )

    def test_inapplicable_is_usage_error(self, capsys):
        assert invoke(["verify", "5,5,1", "--colors", "3", "--strategy", "a2"]) == (2, "")
        assert capsys.readouterr().err == "error: a2 is not applicable to K_{5,5,1}\n"

    def test_side_mismatch_message_shared_with_simulate(self, capsys):
        # `verify` seats a rule at its own side, so only `simulate` and
        # `play` can put it in the other seat.
        argv = ["simulate", "3,3", "--colors", "3", "--alice", "a1", "--bob", "a1"]
        assert invoke(argv) == (2, "")
        assert capsys.readouterr().err == "error: a1 is a rule for alice; it cannot play as bob\n"

    def test_no_side_option(self, capsys):
        # the rule names its seat
        code, _ = invoke(["verify", "4,4,4", "--colors", "4", "--side", "bob", "--strategy", "b1"])
        assert code == 2
        assert "unrecognized arguments: --side bob" in capsys.readouterr().err

    @pytest.mark.parametrize("name,rule", [("random:3", "random:3"), ("random", "random:0"),
                                           ("human", "human")])
    def test_unanalyzed_seat_is_usage_error(self, name, rule, capsys):
        assert invoke(["verify", "2,2", "--colors", "2", "--strategy", name]) == (2, "")
        assert capsys.readouterr().err == f"error: {rule} is not an analyzed rule\n"


class TestScan:
    def test_csv_to_stdout(self):
        code, text = invoke(["scan", "--max-n", "6", "--filter", "no-singletons"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("partition,n,k,")
        assert any(l.startswith("2,2,2,") for l in lines)

    def test_file_output(self, tmp_path):
        path = tmp_path / "rows.csv"
        code, text = invoke(["scan", "--max-n", "5", "--out", str(path)])
        assert code == 0
        written = path.read_text().strip().splitlines()
        assert written[0].startswith("partition,")
        assert len(written) > 5

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "absent" / "rows.csv"
        assert invoke(["scan", "--max-n", "3", "--out", str(path)]) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("bad", ["out"])
    def test_bad_path_reported_before_the_scan(self, tmp_path, monkeypatch, capsys, bad):
        def no_scan(*args):
            raise AssertionError("scan ran before the path was checked")

        monkeypatch.setattr("chromagame.cli.scan", no_scan)
        path = tmp_path / "absent" / "rows.csv"
        assert invoke(["scan", "--max-n", "18", "--out", str(path)]) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("exists", [True, False])
    def test_scan_ignores_the_cache(self, tmp_path, monkeypatch, exists):
        path = tmp_path / "wins.cache"
        monkeypatch.setenv("CHROMA_CACHE", str(path))
        if exists:
            assert invoke(["solve", "3,3,3"])[0] == 0
            before = (path.read_bytes(), path.stat().st_mtime_ns)
        assert invoke(["scan", "--max-n", "4"])[0] == 0
        if exists:
            assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        assert [p.name for p in tmp_path.iterdir()] == (["wins.cache"] if exists else [])


class TestConjectures:
    def test_b1p_small(self):
        code, text = invoke(["conjecture", "b1p", "--max-n", "6"])
        assert code == 0
        assert "0 violations" in text

    def test_nonopt_k6(self):
        code, text = invoke(["conjecture", "nonopt", "--k", "6"])
        assert code == 0
        assert "PASS" in text and "acomposite" in text

    def test_nonopt_requires_k(self):
        code, _ = invoke(["conjecture", "nonopt"])
        assert code == 2


# Boards of the K_{2,2}, 3-color game in which a1 opens part 0, Bob also
# colors part 0 fresh, and a1 then starts part 1.
BOARD_EMPTY = (
    "  part 0: 0/2 colored, colors [-]\n"
    "  part 1: 0/2 colored, colors [-]\n"
    "  colors used 0/3\n"
)
BOARD_PART_0_FULL = (
    "  part 0: 2/2 colored, colors [1,2] started by alice\n"
    "  part 1: 0/2 colored, colors [-]\n"
    "  colors used 2/3\n"
)
BOARD_FIXED = (
    "  part 0: 2/2 colored, colors [1,2] started by alice\n"
    "  part 1: 1/2 colored, colors [3] started by alice\n"
    "  colors used 3/3\n"
)
BOARD_FINAL = (
    "  part 0: 2/2 colored, colors [1,2] started by alice\n"
    "  part 1: 2/2 colored, colors [3] started by alice\n"
    "  colors used 3/3\n"
)


class TestPlay:
    def test_scripted_human_loses_to_anchor(self):
        # Human plays Bob with first legal move each turn; the anchor rule
        # wins with 4 colors on K_{3,3,3} whatever the human does.
        feed = "0\n" * 20
        code, text = invoke(
            ["play", "3,3,3", "--colors", "4", "--alice", "a2", "--bob", "human"],
            stdin_text=feed,
        )
        assert code == 0
        assert "outcome: alice_won" in text
        assert "fixing move" in text

    def test_invalid_then_valid_input(self):
        feed = "banana\n99\n²\n0\n" + "0\n" * 20
        code, text = invoke(
            ["play", "2,2", "--colors", "3", "--alice", "a1", "--bob", "human"],
            stdin_text=feed,
        )
        assert code == 0
        assert "invalid input" in text
        assert "invalid input '²'; try again" in text  # a digit that int() rejects

    def test_same_names_same_game_as_simulate(self):
        # `random` is `random:0` in both commands, whatever the seat
        game = ["4,3,3", "--colors", "4", "--alice", "random", "--bob", "random"]
        code, text = invoke(["simulate", *game, "--format", "json"])
        assert code == 0
        simulated = [(m["part"], m["color"], m["fresh"]) for m in json.loads(text)["moves"]]
        code, text = invoke(["play", *game])
        assert code == 0
        played = [
            (int(part), int(color), action == "fresh")
            for part, color, action in re.findall(
                r"plays part (\d+) with color (\d+) \((fresh|reuse)\)", text
            )
        ]
        assert played == simulated

    def test_eof_aborts_with_usage_exit(self):
        code, text = invoke(
            ["play", "3,3", "--colors", "3", "--alice", "human", "--bob", "b1"],
            stdin_text="",
        )
        assert code == 2
        assert "aborted" in text

    def test_human_session_literal(self):
        code, text = invoke(
            ["play", "2,2", "--colors", "3", "--alice", "a1", "--bob", "human"],
            stdin_text="banana\n99\n0\n0\n",
        )
        assert code == 0
        prompt = (
            "legal moves:\n"
            "  [0] part 0 fresh\n"
            "  [1] part 0 reuse\n"
            "  [2] part 1 fresh\n"
            "bob to move; enter a move index:\n"
        )
        assert text == (
            "K_{2,2} with 3 colors\n"
            + BOARD_EMPTY
            + "alice plays part 0 with color 1 (fresh)\n"
            "  part 0: 1/2 colored, colors [1] started by alice\n"
            "  part 1: 0/2 colored, colors [-]\n"
            "  colors used 1/3\n"
            + prompt
            + "invalid input 'banana'; try again\n"
            + prompt
            + "invalid input '99'; try again\n"
            + prompt
            + "bob plays part 0 with color 2 (fresh)\n"
            + BOARD_PART_0_FULL
            + "alice plays part 1 with color 3 (fresh)\n"
            ">>> fixing move: every part is now started <<<\n"
            + BOARD_FIXED
            + "legal moves:\n"
            "  [0] part 1 reuse\n"
            "bob to move; enter a move index:\n"
            "bob plays part 1 with color 3 (reuse)\n"
            + BOARD_FINAL
            + "fixing move was move 3\n"
            "outcome: alice_won using 3 colors\n"
        )

    def test_two_engines_literal(self):
        code, text = invoke(
            ["play", "2,2", "--colors", "3", "--alice", "a1", "--bob", "b1"]
        )
        assert code == 0
        assert text == (
            "K_{2,2} with 3 colors\n"
            + BOARD_EMPTY
            + "alice plays part 0 with color 1 (fresh)\n"
            "  part 0: 1/2 colored, colors [1] started by alice\n"
            "  part 1: 0/2 colored, colors [-]\n"
            "  colors used 1/3\n"
            "bob plays part 0 with color 2 (fresh)\n"
            + BOARD_PART_0_FULL
            + "alice plays part 1 with color 3 (fresh)\n"
            ">>> fixing move: every part is now started <<<\n"
            + BOARD_FIXED
            + "bob plays part 1 with color 3 (reuse)\n"
            + BOARD_FINAL
            + "fixing move was move 3\n"
            "outcome: alice_won using 3 colors\n"
        )

    def test_two_engines_render_board(self):
        code, text = invoke(
            ["play", "2,2", "--colors", "3", "--alice", "a1", "--bob", "b1"]
        )
        assert code == 0
        assert "part 0:" in text and "colors used" in text


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "banana"],
            ["solve", "0,2"],
            ["simulate", "3,3", "--colors", "3", "--alice", "a9", "--bob", "b1"],
            ["verify", "3,3", "--colors", "0", "--strategy", "a1"],
            ["nosuchcommand"],
            [],
            ["simulate", "3,3", "--colors", "0", "--alice", "a1", "--bob", "b1"],
            ["play", "3,3", "--colors", "0", "--alice", "a1", "--bob", "b1"],
            ["verify", "2,2", "--colors", "2", "--strategy", "random:0"],
            ["scan", "--max-n", "6", "--jobs", "2"],
            ["scan", "--max-n", "-3"],
            ["scan", "--max-n", "0"],
            ["conjecture", "b1p", "--max-n", "-3"],
            ["conjecture", "b1p", "--max-n", "0"],
            ["conjecture", "b1p", "--max-n", "6", "--k", "7"],
            ["conjecture", "nonopt", "--k", "6", "--universal"],
            ["conjecture", "nonopt", "--k", "6", "--max-n", "5"],
            ["conjecture", "nonopt", "--k", str(MAX_NONOPT_K + 1)],
            ["solve", "3_0"],  # int() reads "3_0" as 30
            ["solve", "\u0663"],  # an Arabic-Indic three, which int() reads as 3
            ["solve", "+3"],
            ["solve", "9" * 5000],  # more digits than int() converts
            # random seeds follow the same digits-only rule
            ["simulate", "3,3", "--colors", "3", "--alice", "random:\u0663", "--bob", "b1"],
            ["simulate", "3,3", "--colors", "3", "--alice", "random:+5", "--bob", "b1"],
            ["simulate", "3,3", "--colors", "3", "--alice", "random:3_0", "--bob", "b1"],
            ["simulate", "3,3", "--colors", "3", "--alice", "random: 5", "--bob", "b1"],
            ["simulate", "3,3", "--colors", "3", "--alice", "random:" + "9" * 5000, "--bob", "b1"],
            ["scan", "--max-n", "2", "--out", ""],  # an empty path is a path
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        code, _ = invoke(argv)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "play"])
    def test_budget_above_n_is_usage_error(self, command, capsys):
        # `play` refuses before it prints its header
        argv = [command, "3,3,3", "--colors", "10", "--alice", "a1", "--bob", "b1"]
        assert invoke(argv) == (2, "")
        assert capsys.readouterr().err == "error: budget must be in 1..9\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "3,3,3", "--colors", "4", "--strategy", "a2"],
            ["conjecture", "nonopt", "--k", "6"],
        ],
    )
    def test_program_fault_is_not_a_usage_error(self, argv, monkeypatch):
        def planted(*_args):
            raise IllegalMoveError("planted fault")

        monkeypatch.setattr(_RestrictedSearch, "refutation", planted)
        with pytest.raises(IllegalMoveError, match="planted fault"):
            invoke(argv)

    def test_unknown_strategy_lists_every_name(self, capsys):
        code, _ = invoke(["simulate", "3,3", "--colors", "3", "--alice", "zzz", "--bob", "b1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown strategy 'zzz'; expected one of a1, a1p, a2, a2p, a3, a3p, "
            "acomposite, b1, b1p, random:<seed>, human\n"
        )


class TestVertexCap:
    def test_huge_partition_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert invoke(["solve", "99999999999"]) == (2, "")
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: '99999999999' has 99999999999 vertices; at most {MAX_VERTICES} are accepted\n"
        )

    def test_huge_nonopt_k_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert invoke(["conjecture", "nonopt", "--k", "1000000000"]) == (2, "")
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: --k 1000000000 is too large; at most {MAX_NONOPT_K} is accepted\n"
        )

    def test_partition_at_the_cap_is_solved(self):
        code, text = invoke(["solve", str(MAX_VERTICES)])
        assert code == 0
        assert text.startswith(f"chi_g(K_{{{MAX_VERTICES}}}) = 1\n")


class TestSolveWorkGuard:
    def test_staircase_is_refused_at_once(self, capsys):
        text = ",".join(str(r) for r in range(15, 0, -1))  # n = 120
        start = time.perf_counter()
        assert invoke(["solve", text]) == (2, "")
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: '{text}' is too large to solve: ")
        assert err.endswith(f"is 58982400; at most {MAX_SOLVE_WORK} is accepted\n")

    def test_every_shape_the_suite_solves_is_admitted(self):
        """Every shape of `scan --max-n 22`, the non-optimality shapes the
        suite solves (up to k = 10) and the deep and capped shapes."""
        shapes = all_partitions(22) + [
            Partition((4,) + (3,) * (k - 3) + (1, 1)) for k in range(6, 11)
        ]
        shapes += [Partition((600, 600)), Partition((600, 600, 1)), Partition((MAX_VERTICES,))]
        assert max(solve_work(p) for p in shapes) <= MAX_SOLVE_WORK


class TestClosedStdout:
    def test_exits_one_without_a_traceback(self):
        """`main` run with its stdout pipe already closed by the reader."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        env.pop("CHROMA_CACHE", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "chromagame.cli", "solve", "5,5,1,1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""


def test_import_loads_no_dataclasses():
    """The records are named tuples, so importing the package and its
    command line loads no `dataclasses`, which builds each class's methods
    with `exec` at import. `-I -S` keeps the environment and site's `.pth`
    imports out of the fresh interpreter; `sys.path` names only `src`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import chromagame, chromagame.cli; "
        "print(chromagame.__file__); print('dataclasses' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    path, loaded = proc.stdout.splitlines()
    assert path.startswith(src)
    assert loaded == "False"


SEAT_NAMES = st.sampled_from(
    ["a1", "a2", "a3", "a1p", "a2p", "a3p", "acomposite", "b1", "b1p",
     "random", "random:3", "random:x", "human", "a9", "", "-x"]
)
# Small shapes only: solve and verify on a large shape can run for minutes.
SMALL_PARTITION = st.lists(st.integers(-1, 3), max_size=4).map(
    lambda sizes: ",".join(map(str, sizes))
)


class TestArbitraryInput:
    """Whatever the arguments, `run` returns 0, 1 or 2 and raises nothing."""

    @given(command=st.sampled_from(["formula", "bounds"]), text=st.text(max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_partition_text(self, command, text):
        code, _ = invoke([command, text])
        assert code in (0, 1, 2)

    @given(
        command=st.sampled_from(["simulate", "play", "verify"]),
        partition=SMALL_PARTITION,
        colors=st.integers(-1, 8),
        seats=st.tuples(SEAT_NAMES, SEAT_NAMES),
        universal=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_game_commands(self, command, partition, colors, seats, universal):
        argv = [command, partition, "--colors", str(colors)]
        if command == "verify":
            argv += ["--strategy", seats[0]]
            argv += ["--universal"] if universal else []
        else:
            argv += ["--alice", seats[0], "--bob", seats[1]]
        code, _ = invoke(argv, stdin_text="0\n" * 12)
        assert code in (0, 1, 2)


class TestCache:
    def test_cache_written_and_reused(self, tmp_path, monkeypatch):
        path = tmp_path / "wins.cache"
        monkeypatch.setenv("CHROMA_CACHE", str(path))
        code, first = invoke(["solve", "3,3,3"])
        assert code == 0
        content = path.read_text()
        assert content.startswith("3,3,3;4;")
        code, second = invoke(["solve", "3,3,3"])
        assert code == 0
        assert first == second
        # corrupting the stored value is caught on reload
        path.write_text("3,3,3;9;0111111\n")
        with pytest.raises(ValueError):
            from chromagame.solver import load_cache

            load_cache(str(path))
        code, _ = invoke(["solve", "3,3,3"])
        assert code == 2  # CLI reports the corrupt cache as a usage error

    def test_hit_leaves_file_untouched(self, tmp_path, monkeypatch):
        path = tmp_path / "wins.cache"
        monkeypatch.setenv("CHROMA_CACHE", str(path))
        for shape in ("3,3,3", "1", "2", "1,1"):
            assert invoke(["solve", shape])[0] == 0
        assert path.read_text() == "1;1;1\n1,1;2;1\n2;1;11\n3,3,3;4;0111111\n"
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        assert invoke(["solve", "3,3,3"])[0] == 0
        assert invoke(["solve", "1,1"])[0] == 0
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        assert [p.name for p in tmp_path.iterdir()] == ["wins.cache"]

    @pytest.mark.parametrize(
        "line",
        [
            "2,1;3;01",  # well formed, but the table says chi_g(K_{2,1}) = 2
            "3,1,1;3;110",  # no table value; Alice must win with n = 5 colors
            "5,5,1,1;8;000011111",  # no table value; Alice must win with 2k - 1 = 7
            "3,2,1,1;4;1011",  # no table value; bits are not a threshold
        ],
    )
    def test_inconsistent_record_is_usage_error(self, tmp_path, monkeypatch, capsys, line):
        path = tmp_path / "wins.cache"
        path.write_text(line + "\n")
        monkeypatch.setenv("CHROMA_CACHE", str(path))
        code, text = invoke(["solve", "2,1"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith(f"error: bad cache file {path}")

    @pytest.mark.parametrize("line", ["5,5,1,1;4;111111111", "5,5,1,1;6;001111111"])
    def test_record_the_search_refutes_is_usage_error(self, tmp_path, monkeypatch, capsys, line):
        """Both records pass the load-time checks; chi_g(K_{5,5,1,1}) is 5."""
        path = tmp_path / "wins.cache"
        path.write_text(line + "\n")
        monkeypatch.setenv("CHROMA_CACHE", str(path))
        assert invoke(["solve", "5,5,1,1"]) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: bad cache file {path}: ")
        assert path.read_text() == line + "\n"
        path.write_text("")
        assert invoke(["solve", "5,5,1,1"])[1].startswith("chi_g(K_{5,5,1,1}) = 5\n")

    def test_malformed_record_names_the_line(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "wins.cache"
        path.write_text("3,3;3\n")
        monkeypatch.setenv("CHROMA_CACHE", str(path))
        assert invoke(["solve", "3,3"]) == (2, "")
        assert capsys.readouterr().err == f"error: bad cache file {path}: bad cache line: '3,3;3'\n"

    @pytest.mark.parametrize("where,action", [("", "read"), ("absent/wins.cache", "write")])
    def test_unusable_path_is_usage_error(self, tmp_path, monkeypatch, capsys, where, action):
        path = tmp_path / where  # a directory, or a file in a missing directory
        monkeypatch.setenv("CHROMA_CACHE", str(path))
        assert invoke(["solve", "3,3"]) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: cannot {action} cache file {path}: ")
        assert list(tmp_path.iterdir()) == []
