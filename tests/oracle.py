"""Independent vertex-explicit reference simulator for the coloring game.

This oracle deliberately shares nothing with the count-based engine: it
tracks an explicit color per labeled vertex, computes legality from raw
adjacency (two vertices are adjacent iff they sit in different parts), and
ends the game lazily, exactly by the original rule: play stops when the
graph is fully colored (Alice wins) or when no uncolored vertex has any
legal color left (Bob wins). No eager loss declaration, no count
bookkeeping. Its one reduction is the relabeling of vertices and colors
that `alice_wins` keys its memo by, argued in `canonical`, and the tests
check it against the unreduced minimax.

Intended for tests only.
"""

from __future__ import annotations

from collections import Counter

UNCOLORED = 0


class VertexGame:
    """Coloring game on K_{r1,...,rk} with labeled vertices and colors 1..t."""

    def __init__(self, sizes, budget):
        self.sizes = tuple(sizes)
        self.budget = budget

    def initial(self):
        return tuple(tuple(UNCOLORED for _ in range(r)) for r in self.sizes)

    def colors_elsewhere(self, assignment, part):
        used = set()
        for q, verts in enumerate(assignment):
            if q == part:
                continue
            used.update(c for c in verts if c != UNCOLORED)
        return used

    def legal_vertex_moves(self, assignment):
        """All (part, vertex, color) triples legal in this position."""
        moves = []
        for part, verts in enumerate(assignment):
            forbidden = self.colors_elsewhere(assignment, part)
            allowed = [c for c in range(1, self.budget + 1) if c not in forbidden]
            for v, c in enumerate(verts):
                if c != UNCOLORED:
                    continue
                for color in allowed:
                    moves.append((part, v, color))
        return moves

    def play(self, assignment, part, vertex, color):
        verts = list(assignment[part])
        if verts[vertex] != UNCOLORED:
            raise ValueError("vertex already colored")
        if color in self.colors_elsewhere(assignment, part):
            raise ValueError("color used in another part")
        verts[vertex] = color
        return assignment[:part] + (tuple(verts),) + assignment[part + 1 :]

    def colored_count(self, assignment):
        return sum(1 for verts in assignment for c in verts if c != UNCOLORED)

    def mover(self, assignment):
        """Alice moves first; every move colors exactly one vertex."""
        return "alice" if self.colored_count(assignment) % 2 == 0 else "bob"

    def result(self, assignment):
        """'alice_won', 'bob_won', or None while the game is still live."""
        if all(c != UNCOLORED for verts in assignment for c in verts):
            return "alice_won"
        if not self.legal_vertex_moves(assignment):
            return "bob_won"
        return None

    def canonical(self, assignment):
        """One representative of the assignments with the same game value:
        colors relabeled 1, 2, ... part by part, within a part by descending
        multiplicity, then each part's vertices sorted.

        The value is unchanged by two kinds of relabeling. Vertices of one
        part have the same neighbors (every vertex of every other part), so
        permuting them within their part maps legal moves to legal moves.
        The rules read colors only through equality and the range 1..t, so
        a permutation of 1..t does the same, and maps full colorings to
        full colorings. A color used in one part is illegal in every other,
        so each part holds its own colors, and an assignment is fixed up to
        these two relabelings by the list of color multiplicities of each
        part. That list is all this representative depends on, and it is
        reached from the assignment by the two relabelings.
        """
        relabel, parts = {}, []
        for verts in assignment:
            counts = Counter(c for c in verts if c != UNCOLORED)
            for color, _count in counts.most_common():
                relabel[color] = len(relabel) + 1
            parts.append(tuple(sorted(relabel.get(c, UNCOLORED) for c in verts)))
        return tuple(parts)

    def alice_wins(self, assignment=None, _memo=None, reduce=True):
        """Brute-force minimax value: can Alice force a full coloring?

        Same rule as `result`, with the memo read first and the legal moves
        listed once per position. With `reduce`, each position is replaced
        by its `canonical` form first, so the memo holds one entry per
        class of equal-valued positions; without it, every labeled position
        is searched.
        """
        if assignment is None:
            assignment = self.initial()
        if _memo is None:
            _memo = {}
        if reduce:
            assignment = self.canonical(assignment)
        if assignment in _memo:
            return _memo[assignment]
        if all(c != UNCOLORED for verts in assignment for c in verts):
            value = True
        else:
            moves = self.legal_vertex_moves(assignment)
            children = (self.play(assignment, part, v, c) for part, v, c in moves)
            if not moves:
                value = False
            elif self.mover(assignment) == "alice":
                value = any(self.alice_wins(ch, _memo, reduce) for ch in children)
            else:
                value = all(self.alice_wins(ch, _memo, reduce) for ch in children)
        _memo[assignment] = value
        return value

    def completion_reachable(self, assignment, _memo=None):
        """True iff some continuation (any play, cooperative) colors everything."""
        if _memo is None:
            _memo = {}
        if all(c != UNCOLORED for verts in assignment for c in verts):
            return True
        if assignment in _memo:
            return _memo[assignment]
        _memo[assignment] = False  # cycle-safe; game is acyclic anyway
        value = any(
            self.completion_reachable(self.play(assignment, part, v, c), _memo)
            for part, v, c in self.legal_vertex_moves(assignment)
        )
        _memo[assignment] = value
        return value


def project_counts(assignment):
    """Project a vertex assignment to per-part (colored, distinct) counts."""
    return tuple(
        (
            sum(1 for c in verts if c != UNCOLORED),
            len({c for c in verts if c != UNCOLORED}),
        )
        for verts in assignment
    )


def project_moves(game, assignment):
    """Project vertex moves to the count-level {(part, fresh)} move set."""
    used_anywhere = {
        c for verts in assignment for c in verts if c != UNCOLORED
    }
    projected = set()
    for part, _v, color in game.legal_vertex_moves(assignment):
        projected.add((part, color not in used_anywhere))
    return projected


def realize(sizes, counts, budget):
    """Build a concrete vertex assignment with the given per-part counts.

    Parts receive pairwise-disjoint color blocks, which is the only way a
    legal position can look on this graph class.
    """
    total_distinct = sum(d for _c, d in counts)
    if total_distinct > budget:
        raise ValueError("more distinct colors than the budget allows")
    assignment = []
    base = 0
    for size, (colored, distinct) in zip(sizes, counts):
        verts = [UNCOLORED] * size
        for i in range(colored):
            verts[i] = base + min(i + 1, distinct)
        base += distinct
        assignment.append(tuple(verts))
    return tuple(assignment)
