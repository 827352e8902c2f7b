"""Exact solver, strategy library, and verification harness for the
two-player coloring game on complete multipartite graphs."""

from .core import (
    ALICE,
    BOB,
    GameState,
    GameStatus,
    IllegalMoveError,
    InputError,
    Move,
    Partition,
    apply_move,
    fixing_move_played,
    initial_state,
    legal_moves,
    status,
)
from .formulas import (
    BoundReport,
    bounds,
    ceil_half_sum,
    table1_chi_g,
)
from .harness import (
    GameRecord,
    ScanRow,
    check_b1p_conjecture,
    check_nonoptimality_theorem,
    guarantee_suite,
    scan,
    simulate,
    verify_guarantee,
)
from .solver import (
    WinVector,
    alice_wins,
    canonicalize,
    chi_g,
    restricted_value,
    win_vector,
)
from .strategies import (
    InapplicableStrategyError,
    Strategy,
    admissible_moves,
    choose_move,
    get_strategy,
    is_applicable,
)

__version__ = "0.1.0"

__all__ = [
    "ALICE",
    "BOB",
    "BoundReport",
    "GameRecord",
    "GameState",
    "GameStatus",
    "IllegalMoveError",
    "InapplicableStrategyError",
    "InputError",
    "Move",
    "Partition",
    "ScanRow",
    "Strategy",
    "WinVector",
    "admissible_moves",
    "alice_wins",
    "apply_move",
    "bounds",
    "canonicalize",
    "ceil_half_sum",
    "check_b1p_conjecture",
    "check_nonoptimality_theorem",
    "chi_g",
    "choose_move",
    "fixing_move_played",
    "get_strategy",
    "guarantee_suite",
    "initial_state",
    "is_applicable",
    "legal_moves",
    "restricted_value",
    "scan",
    "simulate",
    "status",
    "table1_chi_g",
    "verify_guarantee",
    "win_vector",
]
