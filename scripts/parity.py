"""Output-parity fingerprint of the program's exact results.

Prints one line per surface, `<surface> <records> <sha256>`, where the hash
covers every record the surface produces, in a fixed order. Run it on two
checkouts and compare the lines: a refactor that keeps every exact output
prints the same lines.

    python3 scripts/parity.py    # a few seconds

The package is imported from the `src/` directory of the checkout this
script sits in, and `CHROMA_CACHE` is unset so that no cache file is read
or written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
os.environ.pop("CHROMA_CACHE", None)

from chromagame import cli  # noqa: E402
from chromagame.core import (  # noqa: E402
    GameStatus,
    Partition,
    apply_move,
    initial_state,
    legal_moves,
    status,
)
from chromagame.harness import NONOPT_ALICE_RULES, all_partitions, guarantee_suite  # noqa: E402
from chromagame.solver import (  # noqa: E402
    DETERMINISTIC,
    UNIVERSAL,
    alice_wins,
    refute_restricted,
)
from chromagame.strategies import get_strategy  # noqa: E402

RULES = ("a1", "a1p", "a2", "a2p", "a3", "a3p", "acomposite", "b1", "b1p")
ALICE_SEATS = ("a1", "a1p", "a2", "a2p", "a3", "a3p", "acomposite", "random:1")
BOB_SEATS = ("b1", "b1p", "random:2")
MODES = (DETERMINISTIC, UNIVERSAL)


def cli_record(argv: list[str]) -> str:
    """The argv, exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out)
    return json.dumps([argv, code, out.getvalue(), err.getvalue()])


def shape_budgets(max_n: int):
    for partition in all_partitions(max_n):
        for budget in range(1, partition.n + 1):
            yield partition, budget


def refutations():
    cases = [
        (partition, budget, name, mode)
        for partition, budget in shape_budgets(9)
        for name in RULES
        if get_strategy(name).is_applicable(partition)
        for mode in MODES
    ]
    for k, modes in ((6, MODES), (7, MODES), (8, (DETERMINISTIC,))):
        partition = Partition((4,) + (3,) * (k - 3) + (1, 1))
        for budget in range(1, partition.n + 1):
            cases += [(partition, budget, "acomposite", mode) for mode in modes]
    return refutation_records(cases)


def refutation_records(cases):
    for partition, budget, name, mode in cases:
        side = get_strategy(name).side
        line = refute_restricted(partition, budget, side, name, mode)
        moves = None if line is None else [[m.part, m.fresh] for m in line]
        yield json.dumps([str(partition), budget, name, mode, moves])


def refutation_lines():
    """Refutations from searches larger than those of `refutations`: every
    applicable simple Alice rule on K_{4,3^(k-3),1,1}, k = 6..11, at 2k - 4
    and 2k - 3 colors, in both modes."""
    cases = []
    for k in range(6, 12):
        partition = Partition((4,) + (3,) * (k - 3) + (1, 1))
        cases += [
            (partition, budget, name, mode)
            for budget in (2 * k - 4, 2 * k - 3)
            for name in NONOPT_ALICE_RULES
            if get_strategy(name).is_applicable(partition)
            for mode in MODES
        ]
    return refutation_records(cases)


def conjectures():
    for universal in ([], ["--universal"]):
        yield cli_record(["conjecture", "b1p", "--max-n", "12"] + universal)
    for k in range(6, 11):
        yield cli_record(["conjecture", "nonopt", "--k", str(k)])


def suite():
    for mode in MODES:
        for case in guarantee_suite(12, mode):
            record = case.counterexample and case.counterexample.to_dict()
            yield json.dumps(
                [mode, case.label, str(case.partition), case.budget, case.side,
                 case.strategy, case.passed, record],
                sort_keys=True,
            )


def verify():
    """Each analyzed rule, at its own seat, and the seatless `random:1` and
    `human`, which `verify` refuses, at every budget of every shape with
    n <= 7, in both modes."""
    for partition, budget in shape_budgets(7):
        for name in RULES + ("random:1", "human"):
            for universal in ([], ["--universal"]):
                yield cli_record(
                    ["verify", str(partition), "--colors", str(budget), "--strategy", name]
                    + universal
                )


def games(command: str, *options: str):
    """`command` (simulate or play) for every seat pair of `ALICE_SEATS` x
    `BOB_SEATS` at every budget of every shape with n <= 7."""
    for partition, budget in shape_budgets(7):
        for alice in ALICE_SEATS:
            for bob in BOB_SEATS:
                yield cli_record(
                    [command, str(partition), "--colors", str(budget), "--alice", alice,
                     "--bob", bob, *options]
                )


def simulate():
    return games("simulate", "--format", "json")


def play():
    return games("play")


def rules():
    """Each analyzed rule on every applicable shape with n <= 7, and
    acomposite on K_{4,3,3,3,1,1}, at every budget: every position reachable
    when the rule's seat plays any admissible move and the other seat any
    legal move. A position is a (state, rule value) pair. At each position
    of the rule's seat, the record holds the position, the rule's admissible
    moves, its choice and its anchor part: what the rule does, not how its
    value is written."""
    cases = [
        (partition, budget, name)
        for partition, budget in shape_budgets(7)
        for name in RULES
        if get_strategy(name).is_applicable(partition)
    ]
    composite = Partition((4, 3, 3, 3, 1, 1))
    cases += [(composite, budget, "acomposite") for budget in range(1, composite.n + 1)]
    for partition, budget, name in cases:
        start = (initial_state(partition, budget), get_strategy(name))
        seen, stack = {start}, [start]
        while stack:
            state, rule = stack.pop()
            if status(state) is not GameStatus.ONGOING:
                continue
            if state.turn == rule.side:
                moves = rule.admissible(state)
                yield json.dumps(
                    [str(partition), budget, name, state.colored, state.used, state.last_move,
                     moves, moves and rule.choose(state), rule.anchor_part(state)]
                )
            else:
                moves = legal_moves(state)
            for move in moves:
                after = apply_move(state, move)
                child = (after, rule.advance(after))
                if child not in seen:
                    seen.add(child)
                    stack.append(child)


def scan(max_n: int = 14):
    """The scan CSV without its last (`ms`) column, then the exit code."""
    out = io.StringIO()
    code = cli.run(["scan", "--max-n", str(max_n)], out=out)
    for row in out.getvalue().splitlines():
        yield row.rsplit(",", 1)[0]
    yield f"exit {code}"


def winvectors():
    """The scan surface to n <= 18, where most budgets are from 2k - 1 up.
    Those are won by a1, and bits below chi_g - 1 follow from the
    monotonicity argument on `solver.win_vector`, which searches only the
    budgets from min(n, 2k - 1) - 1 down to chi_g - 1."""
    return scan(18)


def alice_wins_surface():
    """The one-budget search at every budget of every shape with n <= 12,
    budgets below k and from 2k - 1 up included."""
    for partition, budget in shape_budgets(12):
        yield json.dumps([str(partition), budget, alice_wins(partition, budget)])


def solve():
    for partition in all_partitions(9):
        yield cli_record(["solve", str(partition), "--format", "json"])


def bounds():
    """`bounds` and `formula`, human and JSON, on every shape with n <= 12."""
    for partition in all_partitions(12):
        for command in ("bounds", "formula"):
            for fmt in ("human", "json"):
                yield cli_record([command, str(partition), "--format", fmt])


SURFACES = {
    "refute_restricted": refutations,
    "conjecture": conjectures,
    "guarantee_suite": suite,
    "verify": verify,
    "simulate": simulate,
    "scan": scan,
    "solve": solve,
    "bounds": bounds,
    "rules": rules,
    "winvectors": winvectors,
    "refutation_lines": refutation_lines,
    "alice_wins": alice_wins_surface,
    "play": play,
}


def main() -> None:
    for name, records in SURFACES.items():
        digest, count = hashlib.sha256(), 0
        for record in records():
            digest.update(record.encode() + b"\n")
            count += 1
        print(f"{name} {count} {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
