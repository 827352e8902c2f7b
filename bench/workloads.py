"""The benchmark's three workloads: fixed inputs, one callable per op, and
the checks that judge the ops' outputs.

Every workload's inputs depend only on its size constants below, never on
the seed; the seed only shuffles the order in which the ops run. The checks
compare against the closed-form table (`table1_chi_g`), the bounds
(`best_bounds`), the paper's guarantees and the vertex-explicit oracle in
`tests/oracle.py`, never against a stored copy of earlier output.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

ALICE_RULES = ("a1", "a2", "a3", "a1p", "a2p", "a3p", "acomposite")
BOB_RULES = ("b1", "b1p")
ORACLE_MAX_N = 6  # sweep shapes also solved by the vertex oracle

# Input sizes: (full run, --quick).
SWEEP_MAX_N = (11, 6)
GUARANTEE_MAX_N = (13, 8)
B1P_MAX_N = (10, 6)
SESSION_MAX_N = (9, 5)


@dataclass
class Workload:
    ops: list[tuple[str, Callable[[], Any]]]
    check: Callable[[list[Any], Any], list[str]]  # (round-0 outputs, oracle) -> problems
    cleanup: Callable[[], None] = lambda: None
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared checks


def chi_g_problems(pkg, partition, chi) -> list[str]:
    """chi_g against the table (where it applies) and the best bounds."""
    problems = []
    table = pkg.formulas.table1_chi_g(partition)
    if partition.sizes[-1] >= 2 and table is None:
        problems.append(f"{partition}: table1 does not apply to a shape without singletons")
    if table is not None and table != chi:
        problems.append(f"{partition}: chi_g {chi} but table1 {table}")
    lower, upper = pkg.formulas.best_bounds(partition)
    if (lower is not None and chi < lower) or (upper is not None and chi > upper):
        problems.append(f"{partition}: chi_g {chi} outside bounds [{lower}, {upper}]")
    return problems


def replay(oracle, sizes, budget, moves) -> tuple[str, list[str]]:
    """Replay (mover, part, color, fresh) moves in the vertex oracle.

    Each move must be the oracle's mover, color the part's first uncolored
    vertex with a color legal there and within the budget, and be marked
    fresh exactly when its color is new to the board. The game must not have
    ended before the last move. Returns the final outcome by the oracle's
    reading ("alice_won": every vertex colored; "bob_won": an unstarted part
    faces a budget used up elsewhere; else "ongoing") and any problems.
    """
    game = oracle.VertexGame(sizes, budget)
    board = game.initial()
    seen: set[int] = set()
    for i, (mover, part, color, fresh) in enumerate(moves):
        if _outcome(board, budget, seen) != "ongoing":
            return "ended", [f"move {i} played after the game ended"]
        if mover != game.mover(board):
            return "bad", [f"move {i}: {mover} moved, oracle expects {game.mover(board)}"]
        if oracle.UNCOLORED not in board[part]:
            return "bad", [f"move {i}: part {part} is full"]
        vertex = board[part].index(oracle.UNCOLORED)
        if (part, vertex, color) not in game.legal_vertex_moves(board):
            return "bad", [f"move {i}: color {color} is illegal in part {part}"]
        if fresh != (color not in seen):
            return "bad", [f"move {i}: fresh flag {fresh} disagrees with color {color}"]
        board = game.play(board, part, vertex, color)
        seen.add(color)
    return _outcome(board, budget, seen), []


def _outcome(board, budget, seen) -> str:
    if all(c for part in board for c in part):
        return "alice_won"
    if len(seen) >= budget and any(not any(part) for part in board):
        return "bob_won"
    return "ongoing"


# ---------------------------------------------------------------------------
# sweep: one unrestricted win vector per shape


def sweep(pkg, quick: bool, workdir: str) -> Workload:
    shapes = pkg.harness.all_partitions(SWEEP_MAX_N[quick])
    solver = pkg.solver

    def op(partition):
        return lambda: solver.win_vector(partition)

    def check(vectors, oracle):
        problems = []
        for partition, vec in zip(shapes, vectors):
            chi = vec.chi_g
            problems += chi_g_problems(pkg, partition, chi)
            if partition.n <= ORACLE_MAX_N:
                if not oracle.VertexGame(partition.sizes, chi).alice_wins():
                    problems.append(f"{partition}: oracle says Alice loses at chi_g {chi}")
                if chi > 1 and oracle.VertexGame(partition.sizes, chi - 1).alice_wins():
                    problems.append(f"{partition}: oracle says Alice wins at {chi - 1}")
        return problems

    return Workload(
        ops=[(f"win_vector {p}", op(p)) for p in shapes],
        check=check,
        info={"shapes": len(shapes), "max_n": SWEEP_MAX_N[quick]},
    )


# ---------------------------------------------------------------------------
# verify: strategy-pinned searches


def guarantee_cases(partitions):
    """The cases `harness.guarantee_suite` runs, as (label, partition,
    budget, side, strategy), enumerated here so the inputs stay fixed."""
    cases = []
    for p in partitions:
        k, n, sizes = p.k, p.n, p.sizes
        cap = sum((r + 1) // 2 for r in sizes)
        triple = 3 in sizes
        rows = [("alice_fresh_starter", 2 * k - 1, "alice", "a1")]
        if k >= 3 and triple:
            rows.append(("alice_triple_anchor", 2 * k - 2, "alice", "a2"))
        if n % 2 == 1:
            rows.append(("alice_odd_opener", cap, "alice", "a3"))
        if sizes[-1] >= 4:
            rows.append(("bob_echo_large_parts", 2 * k - 2, "bob", "b1"))
        if k >= 3 and not triple:
            rows.append(("bob_echo_no_triples", min(2 * k - 2, cap - 1), "bob", "b1"))
            if n % 2 == 0:
                rows.append(("bob_echo_no_triples_even", 2 * k - 2, "bob", "b1"))
        if k >= 3 and triple:
            rows.append(("bob_echo_with_triple", min(2 * k - 3, cap - 1), "bob", "b1"))
            if n % 2 == 0:
                rows.append(("bob_echo_with_triple_even", 2 * k - 3, "bob", "b1"))
        cases += [(label, p, b, side, s) for label, b, side, s in rows if 1 <= b <= n]
    return cases


def verify(pkg, quick: bool, workdir: str) -> Workload:
    harness, solver = pkg.harness, pkg.solver
    modes = (solver.DETERMINISTIC, solver.UNIVERSAL)
    cases = guarantee_cases(harness.all_partitions(GUARANTEE_MAX_N[quick], "no-singletons"))
    b1p_shapes = harness.all_partitions(B1P_MAX_N[quick])
    chis = [solver.win_vector(p).chi_g for p in b1p_shapes]
    b1p_cases = [(p, b) for p, chi in zip(b1p_shapes, chis) for b in range(1, chi)]

    def guarantee_op(case, mode):
        _label, p, b, side, strategy = case
        return lambda: harness.verify_guarantee(p, b, side, strategy, mode)

    def b1p_op(p, b):
        return lambda: solver.refute_restricted(p, b, "bob", "b1p", solver.DETERMINISTIC)

    ops = [
        (f"{mode} {case[0]} {case[1]} t={case[2]}", guarantee_op(case, mode))
        for mode in modes
        for case in cases
    ]
    ops += [(f"b1p {p} t={b}", b1p_op(p, b)) for p, b in b1p_cases]

    def check(outputs, oracle):
        problems = []
        for p, chi in zip(b1p_shapes, chis):
            problems += chi_g_problems(pkg, p, chi)
        n_guarantee = len(modes) * len(cases)
        for (label, _op), res in zip(ops[:n_guarantee], outputs[:n_guarantee]):
            if not res.passed or res.counterexample is not None:
                problems.append(f"guarantee fails: {label}")
        for (p, b), line in zip(b1p_cases, outputs[n_guarantee:]):
            if line is None:
                continue
            # A refutation is a line on which b1p loses at a budget below chi_g:
            # it must replay as a legal game that ends fully colored.
            where = f"b1p refutation {p} t={b}"
            try:
                record = harness.record_playout(p, b, line, "search", "b1p").to_dict()
            except ValueError as exc:  # core.IllegalMoveError
                problems.append(f"{where}: {exc}")
                continue
            problems += record_problems(oracle, p, where, record)
            if record["outcome"] != "alice_won":
                problems.append(f"{where} ends {record['outcome']}, not in an Alice win")
        if quick:
            for mode in modes:
                suite = harness.guarantee_suite(GUARANTEE_MAX_N[quick], mode)
                listed = [(c.label, c.partition, c.budget, c.side, c.strategy) for c in suite]
                if listed != cases:
                    problems.append(f"guarantee_suite ({mode}) runs other cases than the benchmark")
        return problems

    return Workload(
        ops=ops,
        check=check,
        info={"guarantee_cases_per_mode": len(cases), "b1p_cases": len(b1p_cases)},
    )


# ---------------------------------------------------------------------------
# session: CLI commands against a filled cache


def run_cli(cli, argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


def session(pkg, quick: bool, workdir: str) -> Workload:
    solver, cli, strategies = pkg.solver, pkg.cli, pkg.strategies
    shapes = pkg.harness.all_partitions(SESSION_MAX_N[quick])
    cache = {str(p): solver.win_vector(p) for p in shapes}
    path = os.path.join(workdir, "session-cache.txt")
    solver.save_cache(path, cache)
    with open(path, "rb") as fh:
        snapshot = fh.read()
    previous = os.environ.get(cli.CACHE_ENV)
    os.environ[cli.CACHE_ENV] = path

    commands = []  # (partition, argv)
    for p in shapes:
        chi = cache[str(p)].chi_g
        commands.append((p, ["solve", str(p), "--format", "json"]))
        commands.append((p, ["bounds", str(p), "--format", "json"]))
        for alice in ALICE_RULES:
            for bob in BOB_RULES:
                if not (
                    strategies.is_applicable(alice, p) and strategies.is_applicable(bob, p)
                ):
                    continue
                for t in (chi, chi - 1):
                    if t >= 1:
                        commands.append((p, ["simulate", str(p), "--colors", str(t),
                                             "--alice", alice, "--bob", bob, "--format", "json"]))

    def op(argv):
        return lambda: run_cli(cli, argv)

    def check(outputs, oracle):
        problems = []
        solved = {}
        for (p, argv), (code, text) in zip(commands, outputs):
            if code != 0:
                problems.append(f"{' '.join(argv)}: exit code {code}")
                continue
            payload = json.loads(text)
            if payload["partition"] != list(p.sizes):
                problems.append(f"{' '.join(argv)}: partition {payload['partition']}")
            elif argv[0] == "solve":
                solved[p] = payload["chi_g"]
                problems += solve_problems(pkg, p, payload)
        for (p, argv), (code, text) in zip(commands, outputs):
            if code != 0 or argv[0] == "solve":
                continue
            payload = json.loads(text)
            if argv[0] == "bounds":
                problems += bounds_problems(p, solved.get(p), payload["bounds"])
            else:
                problems += simulate_problems(oracle, p, argv, payload)
        with open(path, "rb") as fh:
            if fh.read() != snapshot:
                problems.append("the cache file changed under hit-only commands")
        return problems

    def cleanup():
        if previous is None:
            os.environ.pop(cli.CACHE_ENV, None)
        else:
            os.environ[cli.CACHE_ENV] = previous
        if os.path.exists(path):
            os.remove(path)

    kinds = [argv[0] for _p, argv in commands]
    return Workload(
        ops=[(" ".join(argv), op(argv)) for _p, argv in commands],
        check=check,
        cleanup=cleanup,
        info={
            "shapes": len(shapes),
            "cache_bytes": len(snapshot),
            **{kind: kinds.count(kind) for kind in ("solve", "bounds", "simulate")},
        },
    )


def solve_problems(pkg, p, payload) -> list[str]:
    chi = payload["chi_g"]
    problems = chi_g_problems(pkg, p, chi)
    if payload["table1"] != pkg.formulas.table1_chi_g(p):
        problems.append(f"solve {p}: table1 field {payload['table1']}")
    rows = payload["win_vector"]
    if [r["t"] for r in rows] != list(range(p.k, p.n + 1)):
        problems.append(f"solve {p}: win vector budgets {[r['t'] for r in rows]}")
    elif next((r["t"] for r in rows if r["alice_wins"]), None) != chi:
        problems.append(f"solve {p}: chi_g {chi} is not the first winning budget")
    return problems


def bounds_problems(p, chi, reports) -> list[str]:
    if chi is None:
        return [f"bounds {p}: no solve output to compare with"]
    problems = []
    for r in reports:
        if not r["applicable"]:
            continue
        v = r["value"]
        if (r["kind"] == "exact" and v != chi) or (r["kind"] == "upper" and v < chi) or (
            r["kind"] == "lower" and v > chi
        ):
            problems.append(f"bounds {p}: {r['source']} {r['kind']} {v} vs chi_g {chi}")
    return problems


def simulate_problems(oracle, p, argv, record) -> list[str]:
    where = " ".join(argv)
    budget = int(argv[argv.index("--colors") + 1])
    alice = argv[argv.index("--alice") + 1]
    bob = argv[argv.index("--bob") + 1]
    if (record["budget"], record["alice"], record["bob"]) != (budget, alice, bob):
        return [f"{where}: header {record['budget']} {record['alice']} {record['bob']}"]
    problems = record_problems(oracle, p, where, record)
    if alice == "a1" and budget == 2 * p.k - 1 and record["outcome"] != "alice_won":
        problems.append(f"{where}: a1 loses with 2k - 1 colors")
    return problems


def record_problems(oracle, p, where, record) -> list[str]:
    """Replay a `GameRecord.to_dict()` transcript in the vertex oracle and
    check its outcome, `colors_used` and `fixing_index` against the replay."""
    moves = [(m["mover"], m["part"], m["color"], m["fresh"]) for m in record["moves"]]
    if [m["index"] for m in record["moves"]] != list(range(len(moves))):
        return [f"{where}: move indices are not 0..{len(moves) - 1}"]
    outcome, problems = replay(oracle, p.sizes, record["budget"], moves)
    if problems:
        return [f"{where}: {x}" for x in problems]
    if outcome != record["outcome"]:
        return [f"{where}: outcome {record['outcome']}, oracle replay gives {outcome}"]
    if record["colors_used"] != len({m[2] for m in moves}):
        problems.append(f"{where}: colors_used {record['colors_used']}")
    started: set[int] = set()
    fixing = None
    for i, m in enumerate(moves):
        started.add(m[1])
        if fixing is None and len(started) == p.k:
            fixing = i
    if record["fixing_index"] != fixing:
        problems.append(f"{where}: fixing_index {record['fixing_index']}, expected {fixing}")
    return problems


WORKLOADS = {"sweep": sweep, "verify": verify, "session": session}
