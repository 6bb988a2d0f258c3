"""Sliding-tile puzzle domain: states, operators, heuristic, instance generation.

States are row-major tile permutations with 0 as the blank.  Operators move
the blank (Up/Down/Left/Right); all moves cost 1, so path cost equals path
length.  The 3x3 (Eight) and 4x4 (Fifteen) boards are the shipped domains;
the 2x2 board is supported for exhaustive testing.  ``moves_after`` is the one
move table: its ``_ROOT`` row lists every legal move from a cell, and its other
rows hold the rule that random walks, IDA* and Minimin's lookahead trees share:
never undo the move just made.  ``delta_moves`` owns the h step of every search
over tiles.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from math import isqrt
from typing import Sequence


class Op(IntEnum):
    """Movement of the blank.  Enum order is the deterministic tie-break order."""

    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3

    @property
    def letter(self) -> str:
        return "UDLR"[self]


_INVERSE = (1, 0, 3, 2)
_ROW_DELTA = (-1, 1, 0, 0)
_COL_DELTA = (0, 0, -1, 1)
_ROOT = 4  # the arrival index of a first move in ``moves_after``: no move to leave out


@lru_cache(maxsize=None)
def moves_after(width: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """``[b][last]``: the (op, new blank) moves from blank cell ``b``, in op order,
    but the one undoing ``last``, the op the blank arrived by; ``[b][_ROOT]`` is every move.
    """
    table = []
    for b in range(width * width):
        r, c = divmod(b, width)
        moves = [(op, b + _ROW_DELTA[op] * width + _COL_DELTA[op]) for op in range(4)
                 if 0 <= r + _ROW_DELTA[op] < width and 0 <= c + _COL_DELTA[op] < width]
        table.append(tuple(
            tuple((op, j) for op, j in moves if last == _ROOT or op != _INVERSE[last])
            for last in range(_ROOT + 1)
        ))
    return tuple(table)


@dataclass(frozen=True, slots=True)
class State:
    """A board configuration: row-major tiles, 0 for the blank."""

    tiles: tuple[int, ...]
    width: int

    def __post_init__(self) -> None:
        n = self.width * self.width
        if self.width < 2:
            raise ValueError(f"width must be >= 2, got {self.width}")
        if len(self.tiles) != n or sorted(self.tiles) != list(range(n)):
            raise ValueError(
                f"tiles must be a permutation of 0..{n - 1}, got {self.tiles!r}"
            )

    @property
    def blank(self) -> int:
        return self.tiles.index(0)

    def __str__(self) -> str:
        return format_state(self)


def make_state(tiles: Sequence[int]) -> State:
    """Build a State from a flat tile sequence; width inferred from length."""
    width = isqrt(len(tiles))
    if width * width != len(tiles):
        raise ValueError(f"tile count {len(tiles)} is not a perfect square")
    return State(tuple(int(t) for t in tiles), width)


@lru_cache(maxsize=None)
def goal_state(width: int) -> State:
    """The default goal: tiles in ascending order with the blank last.

    One State per width, shared by every caller: a State is frozen.
    """
    return State(tuple(range(1, width * width)) + (0,), width)


def parse_state(text: str) -> State:
    """Parse the text format: row-major space-separated labels, 0 = blank.

    Width is implied by the token count.  Rejects non-permutations.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty state text")
    if not all(re.fullmatch("[0-9]+", t) for t in tokens):
        raise ValueError(f"tile labels must be decimal digits 0-9: {text!r}")
    return make_state([int(t) for t in tokens])


def format_state(s: State) -> str:
    return " ".join(str(t) for t in s.tiles)


@lru_cache(maxsize=128)
def dist_table(width: int, goal_tiles: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """table[tile][index] = |row delta| + |col delta| from index to tile's goal cell."""
    n = width * width
    pos_of = {t: i for i, t in enumerate(goal_tiles)}
    table = []
    for tile in range(n):
        gr, gc = divmod(pos_of[tile], width)
        row = []
        for idx in range(n):
            r, c = divmod(idx, width)
            row.append(abs(r - gr) + abs(c - gc))
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=128)
def delta_moves(width: int, goal_tiles: tuple[int, ...]):
    """``moves_after``'s rows, each move as (op, new blank, delta row).

    ``delta[t]`` is the change in Manhattan distance to ``goal_tiles`` when tile
    ``t`` slides from the new blank cell into the old one (0 for the blank).
    """
    dists = dist_table(width, goal_tiles)
    cells = range(width * width)
    rows = []
    for b, moves in enumerate(moves_after(width)):
        delta = {j: tuple(dists[t][b] - dists[t][j] if t else 0 for t in cells) for _, j in moves[_ROOT]}
        rows.append(tuple(tuple((op, j, delta[j]) for op, j in row) for row in moves))
    return tuple(rows)


def manhattan(s: State, goal: State) -> int:
    """Sum over non-blank tiles of grid distance to their goal cells."""
    if s.width != goal.width:
        raise ValueError("states have different widths")
    table = dist_table(s.width, goal.tiles)
    total = 0
    for idx, tile in enumerate(s.tiles):
        if tile:
            total += table[tile][idx]
    return total


def _state_key(tiles: tuple[int, ...]) -> tuple[int, int, int]:
    """A state's blank cell, and the k and inversion parity of its tile order.

    The order is read row-major with tile t as t - 1; its Lehmer rank is 2k or 2k + 1.
    """
    n = len(tiles) - 1
    rank = inversions = seen = 0  # bit t of seen set once tile t is read
    for t in tiles:
        if t:
            # Tiles after this one that are smaller: t - 1 minus those before it.
            smaller = t - 1 - (seen & ((1 << t) - 1)).bit_count()
            rank = rank * n + smaller
            inversions += smaller
            seen |= 1 << t
            n -= 1
    return tiles.index(0), rank >> 1, inversions & 1


@lru_cache(maxsize=128)
def _reachable_parity(goal: tuple[int, ...], blank: int) -> int:
    """The tile-order parity of the states with the blank at ``blank`` that reach ``goal``.

    A horizontal move keeps the order; a vertical one carries one tile past
    width - 1 others.  So each row the blank lies from the goal's flips the
    parity on boards of even width and keeps it on odd ones.  Moves reach every
    state with that parity and no other.  Cached, so a goal's key is read once
    per blank cell, not once per ``ProblemInstance``.
    """
    width = isqrt(len(goal))
    goal_blank, _, goal_parity = _state_key(goal)
    return goal_parity ^ ((width - 1) * (blank // width - goal_blank // width) & 1)


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    """An initial state plus its goal; both must be in the same parity class.

    ``k`` is the initial state's k (``_state_key``), which a 2x2 or 3x3 run
    starts from, so no run computes it.  The same key's parity decides
    reachability, against ``_reachable_parity`` for its blank cell.
    """

    initial: State
    goal: State
    k: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.initial.width != self.goal.width:
            raise ValueError("initial and goal have different widths")
        blank, k, odd = _state_key(self.initial.tiles)
        if odd != _reachable_parity(self.goal.tiles, blank):
            raise ValueError("initial state is not reachable from the goal")
        object.__setattr__(self, "k", k)

    @property
    def width(self) -> int:
        return self.initial.width


@dataclass(frozen=True)
class SolutionPath:
    """An ordered operator sequence; length equals cost under unit move costs."""

    moves: tuple[Op, ...]

    @property
    def length(self) -> int:
        return len(self.moves)

    @property
    def letters(self) -> str:
        return "".join(op.letter for op in self.moves)


def random_walk(goal: State, steps: int, seed: int) -> State:
    """Scramble by a seeded random walk that never immediately backtracks (``moves_after``).

    The result's true optimal depth is at most ``steps`` and has the same
    parity as ``steps``.  Each step draws its move as ``random.Random(seed).choice``
    would, inline: ``getrandbits`` of the move count's bit length, redrawn
    until below the count.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    getrandbits = random.Random(seed).getrandbits
    after = moves_after(goal.width)
    tiles = list(goal.tiles)
    blank = goal.blank
    last = _ROOT
    for _ in range(steps):
        moves = after[blank][last]
        n = len(moves)
        bits = n.bit_length()
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        last, j = moves[i]
        tiles[blank], tiles[j] = tiles[j], tiles[blank]
        blank = j
    return State(tuple(tiles), goal.width)
