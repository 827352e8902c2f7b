"""Command-line front end.

Subcommands: solve, formula, bounds, simulate, play, verify, scan,
conjecture. Exit codes: 0 = success or pass, 1 = a verification failed or a
counterexample was found (it is printed), 2 = usage error, an `InputError`
raised by the library or by a check here; `run` is the one place that
turns it into exit 2. The CHROMA_CACHE environment variable names an
optional win-vector cache file. Only solve uses it: solve always solves,
reads the cache only to refuse a record that contradicts its answer, and
writes a record on a miss.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from typing import Optional

from .core import (
    GameState,
    InputError,
    Move,
    Partition,
    check_budget,
    fixing_move_played,
)
from .formulas import bounds, table1_chi_g, table1_report
from .harness import (
    FILTERS,
    GameRecord,
    MoveRecord,
    check_b1p_conjecture,
    check_nonoptimality_theorem,
    record_game,
    scan,
    scan_csv,
    seat_picker,
    simulate,
    verify_guarantee,
)
from .solver import (
    DETERMINISTIC,
    UNIVERSAL,
    WinVector,
    load_cache,
    pinned_side,
    save_cache,
    win_vector,
)
from .strategies import HumanPlayer, Strategy, get_strategy

CACHE_ENV = "CHROMA_CACHE"
MAX_VERTICES = 100_000  # the largest partition any command accepts
MAX_SOLVE_WORK = 1_000_000  # the largest `solve_work` that solve searches
MAX_NONOPT_K = 18  # the largest `conjecture nonopt --k`; about 3 s on 2 CPUs


def _partition(text: str) -> Partition:
    partition = Partition.parse(text)
    if partition.n > MAX_VERTICES:
        raise InputError(f"{text!r} has {partition.n} vertices; at most {MAX_VERTICES} are accepted")
    return partition


def solve_work(partition: Partition) -> int:
    """A conservative estimate of `win_vector`'s cost: the number of
    multisets of unstarted parts (the product over distinct part sizes of
    their count + 1), times n, times k. Timed on 2 CPUs (CPython 3.11) at
    0.5-3.7 s per million on the shapes with 2 to 40 parts tried, and at
    no measurable time on two or three parts of tens of thousands."""
    return math.prod(m + 1 for m in Counter(partition.sizes).values()) * partition.n * partition.k


def _load_cache_checked(path: str):
    try:
        return load_cache(path)
    except OSError as exc:
        raise InputError(f"cannot read cache file {path}: {exc.strerror}") from None
    except ValueError as exc:  # a bad record, or bytes that are not UTF-8
        raise InputError(f"bad cache file {path}: {exc}") from None


def _save_cache_checked(path: str, cache: dict[str, WinVector]) -> None:
    try:
        save_cache(path, cache)
    except OSError as exc:
        raise InputError(f"cannot write cache file {path}: {exc.strerror}") from None


def _emit(out, text: str) -> None:
    print(text, file=out)


def _solve_payload(partition: Partition, vec: WinVector) -> dict:
    return {
        "partition": list(partition.sizes),
        "chi_g": vec.chi_g,
        "win_vector": [
            {"t": t, "alice_wins": vec.alice_wins(t)}
            for t in range(partition.k, partition.n + 1)
        ],
        "table1": table1_chi_g(partition),
        "bounds": [r.to_dict() for r in bounds(partition)],
        "monotone": True,  # always, by the argument on `solver.win_vector`
    }


def cmd_solve(args, out, inp) -> int:
    partition = _partition(args.partition)
    work = solve_work(partition)
    if work > MAX_SOLVE_WORK:
        raise InputError(
            f"{args.partition!r} is too large to solve: its work estimate (the product of "
            f"each distinct part size's count + 1, times n, times k) is {work}; "
            f"at most {MAX_SOLVE_WORK} is accepted"
        )
    cache_path = os.environ.get(CACHE_ENV)
    cache = _load_cache_checked(cache_path) if cache_path else {}
    vec = win_vector(partition)
    cached = cache.get(str(partition))
    if cached is not None and cached != vec:
        raise InputError(
            f"bad cache file {cache_path}: the search refutes {cached.to_cache_line()!r}"
        )
    if cached is None and cache_path:
        cache[str(partition)] = vec
        _save_cache_checked(cache_path, cache)
    payload = _solve_payload(partition, vec)
    if args.format == "json":
        _emit(out, json.dumps(payload))
        return 0
    _emit(out, f"chi_g({partition.label()}) = {payload['chi_g']}")
    _emit(out, f"win vector (t = {partition.k}..{partition.n}): {vec.bitstring()}")
    table = table1_report(partition)
    if table.applicable:
        agrees = "agrees" if table.value == payload["chi_g"] else "DISAGREES"
        _emit(out, f"table formula: {table.value} ({agrees})")
    else:
        _emit(out, f"table formula: not applicable ({table.reason})")
    return 0


def cmd_formula(args, out, inp) -> int:
    partition = _partition(args.partition)
    report = table1_report(partition)
    if args.format == "json":
        _emit(out, json.dumps({"partition": list(partition.sizes), **report.to_dict()}))
        return 0
    if report.applicable:
        _emit(out, f"table chi_g({partition.label()}) = {report.value}")
    else:
        _emit(out, f"not applicable for {partition.label()}: {report.reason}")
    return 0


def cmd_bounds(args, out, inp) -> int:
    partition = _partition(args.partition)
    reports = bounds(partition)
    if args.format == "json":
        _emit(
            out,
            json.dumps(
                {
                    "partition": list(partition.sizes),
                    "bounds": [r.to_dict() for r in reports],
                }
            ),
        )
        return 0
    _emit(out, f"bounds for {partition.label()}:")
    for r in reports:
        if r.applicable:
            _emit(out, f"  {r.source:12s} {r.kind:5s} {r.value}")
        else:
            _emit(out, f"  {r.source:12s} -     not applicable: {r.reason}")
    return 0


def _render_record(record: GameRecord, out) -> None:
    _emit(out, f"{record.partition.label()} with {record.budget} colors: "
               f"{record.alice} (Alice) vs {record.bob} (Bob)")
    for m in record.moves:
        fixing = "   <- fixing move" if m.index == record.fixing_index else ""
        _emit(
            out,
            f"  {m.index + 1:2d}. {m.mover:5s} part {m.part} "
            f"color {m.color} ({'fresh' if m.fresh else 'reuse'}){fixing}",
        )
    _emit(out, f"outcome: {record.outcome} using {record.colors_used} colors")


def _game_args(args) -> tuple[Partition, Strategy, Strategy]:
    """The board and both seats of a simulate or play command."""
    partition = _partition(args.partition)
    check_budget(partition, args.colors)
    return partition, get_strategy(args.alice), get_strategy(args.bob)


def cmd_simulate(args, out, inp) -> int:
    partition, alice, bob = _game_args(args)
    record = simulate(partition, args.colors, alice, bob)
    if args.format == "json":
        _emit(out, json.dumps(record.to_dict()))
    else:
        _render_record(record, out)
    return 0


def _render_board(state: GameState, played: list[MoveRecord], out) -> None:
    for i, (size, colored) in enumerate(zip(state.partition.sizes, state.colored)):
        moves = [m for m in played if m.part == i]
        colors = ",".join(str(m.color) for m in moves if m.fresh) or "-"
        starter = f" started by {moves[0].mover}" if moves else ""
        _emit(out, f"  part {i}: {colored}/{size} colored, colors [{colors}]{starter}")
    _emit(out, f"  colors used {state.used}/{state.budget}")


def _prompt_move(state: GameState, moves: list[Move], inp, out) -> Move:
    while True:
        _emit(out, "legal moves:")
        for i, m in enumerate(moves):
            _emit(out, f"  [{i}] part {m.part} {m.action}")
        _emit(out, f"{state.turn} to move; enter a move index:")
        line = inp.readline()
        if line == "":
            raise EOFError
        choice = line.strip()
        if choice.isdecimal() and int(choice) < len(moves):
            return moves[int(choice)]
        _emit(out, f"invalid input {choice!r}; try again")


def cmd_play(args, out, inp) -> int:
    partition, alice, bob = _game_args(args)
    human = HumanPlayer(lambda state, moves: _prompt_move(state, moves, inp, out))
    alice, bob = (human if isinstance(seat, HumanPlayer) else seat for seat in (alice, bob))
    seats = seat_picker(partition, alice, bob)
    played: list[MoveRecord] = []

    def pick(state: GameState) -> Optional[Move]:
        _render_board(state, played, out)
        return seats(state)

    def on_move(record: MoveRecord, before: GameState, after: GameState) -> None:
        played.append(record)
        action = "fresh" if record.fresh else "reuse"
        _emit(out, f"{record.mover} plays part {record.part} with color {record.color} ({action})")
        if not fixing_move_played(before) and fixing_move_played(after):
            _emit(out, ">>> fixing move: every part is now started <<<")

    _emit(out, f"{partition.label()} with {args.colors} colors")
    try:
        record = record_game(partition, args.colors, pick, alice.id, bob.id, on_move)
    except EOFError:
        _emit(out, "aborted (end of input)")
        return 2
    if record.fixing_index is not None:
        _emit(out, f"fixing move was move {record.fixing_index + 1}")
    _emit(out, f"outcome: {record.outcome} using {record.colors_used} colors")
    return 0


def cmd_verify(args, out, inp) -> int:
    partition = _partition(args.partition)
    strategy = get_strategy(args.strategy)
    side = pinned_side(strategy)
    mode = UNIVERSAL if args.universal else DETERMINISTIC
    result = verify_guarantee(partition, args.colors, side, strategy, mode)
    if result.passed:
        _emit(
            out,
            f"PASS: {side} playing {strategy.id} meets its goal on "
            f"{partition.label()} with {args.colors} colors ({mode})",
        )
        return 0
    _emit(
        out,
        f"FAIL: {side} playing {strategy.id} does not meet its goal on "
        f"{partition.label()} with {args.colors} colors ({mode}); counterexample:",
    )
    _render_record(result.counterexample, out)
    return 1


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _check_max_n(max_n: int) -> None:
    if max_n < 1:
        raise InputError(f"--max-n must be at least 1, got {max_n}")


def cmd_scan(args, out, inp) -> int:
    _check_max_n(args.max_n)
    if args.out is not None:
        _write_out(args.out, "")  # a bad path is reported before the scan
    rows = scan(args.max_n, args.filter)
    csv_text = scan_csv(rows)
    if args.out is not None:
        _write_out(args.out, csv_text)
        _emit(out, f"wrote {len(rows)} rows to {args.out}")
    else:
        _emit(out, csv_text.rstrip("\n"))
    disagreements = [r for r in rows if r.table1 is not None and not r.agrees]
    for r in disagreements:
        vec = r.vector
        _emit(out, f"DISAGREEMENT: {vec.partition.label()} solver {vec.chi_g} table {r.table1}")
    return 1 if disagreements else 0


def cmd_conjecture_b1p(args, out, inp) -> int:
    _check_max_n(args.max_n)
    mode = UNIVERSAL if args.universal else DETERMINISTIC
    report = check_b1p_conjecture(args.max_n, mode)
    _emit(
        out,
        f"b1p optimality check up to n = {report.max_n} ({report.mode}): "
        f"{report.partitions_checked} partitions, {report.cases_checked} cases, "
        f"{len(report.violations)} violations",
    )
    for v in report.violations:
        _emit(out, f"counterexample on {v.partition.label()} with {v.budget} colors:")
        _render_record(v.counterexample, out)
    return 0 if report.passed else 1


def cmd_conjecture_nonopt(args, out, inp) -> int:
    if args.k > MAX_NONOPT_K:  # checked before K_{4,3^(k-3),1,1} is built
        raise InputError(f"--k {args.k} is too large; at most {MAX_NONOPT_K} is accepted")
    report = check_nonoptimality_theorem(args.k)
    _emit(out, f"non-optimality check on {report.partition.label()} at {report.budget} colors:")
    _emit(out, f"  optimal play wins: {report.solver_upper_ok}")
    _emit(out, f"  acomposite wins:   {report.composite_ok}")
    for rule, won in report.rule_results.items():
        verdict = "wins (unexpected!)" if won else "loses (as required)"
        _emit(out, f"  {rule:4s} {verdict}")
    _emit(out, "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromagame",
        description="Exact solver and strategy harness for the coloring game "
        "on complete multipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("solve", help="exact game chromatic number and win vector")
    p.set_defaults(handler=cmd_solve)
    p.add_argument("partition")
    add_format(p)

    p = sub.add_parser("formula", help="closed-form table value")
    p.set_defaults(handler=cmd_formula)
    p.add_argument("partition")
    add_format(p)

    p = sub.add_parser("bounds", help="all bounds with applicability")
    p.set_defaults(handler=cmd_bounds)
    p.add_argument("partition")
    add_format(p)

    p = sub.add_parser("simulate", help="play two strategies against each other")
    p.set_defaults(handler=cmd_simulate)
    p.add_argument("partition")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--alice", required=True)
    p.add_argument("--bob", required=True)
    add_format(p)

    p = sub.add_parser("play", help="interactive game (use strategy 'human')")
    p.set_defaults(handler=cmd_play)
    p.add_argument("partition")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--alice", required=True)
    p.add_argument("--bob", required=True)

    p = sub.add_parser("verify", help="verify a strategy guarantee")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("partition")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--universal", action="store_true")

    p = sub.add_parser("scan", help="solve all shapes up to a vertex count")
    p.set_defaults(handler=cmd_scan)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--filter", choices=FILTERS, default="all")
    p.add_argument("--out")

    p = sub.add_parser("conjecture", help="run a conjecture check")
    checks = p.add_subparsers(dest="which", required=True)
    c = checks.add_parser("b1p", help="b1p wins for Bob wherever optimal play does")
    c.set_defaults(handler=cmd_conjecture_b1p)
    c.add_argument("--max-n", type=int, default=12)
    c.add_argument("--universal", action="store_true")
    c = checks.add_parser(
        "nonopt", help="at 2k-4 colors on K_{4,3^(k-3),1,1}, acomposite wins, simpler rules lose"
    )
    c.set_defaults(handler=cmd_conjecture_nonopt)
    c.add_argument("--k", type=int, required=True)

    return parser


def run(argv: Optional[list[str]] = None, out=None, inp=None) -> int:
    """Programmatic entry point; returns the exit code."""
    out = out if out is not None else sys.stdout
    inp = inp if inp is not None else sys.stdin
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args, out, inp)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so that the flush at
        # exit cannot fail again (the recipe in the `signal` module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
