"""The sample host application: a grid of coloured tiles with a tap hook.

Tapping a tile dispatches through the ``onTileTapped`` hook. The baseline
block ``DestroyTile(x, y);`` destroys the tapped tile; gravity then compacts
each column so no empty cell sits below an occupied one (gravity-normal
form). Swapping the hook's delegate is the single integration point for
replacement mechanics: ``tap`` (one tap) and ``tap_moves`` (every tap, for
the solver: every hook, one marker pass; a host behavior is a reader) read
the hook table and run one tap body, ``_run_tap``. ``_settle`` is the one
place that knows the column rule; ``tap_moves`` also folds it into each
tabulated gather. The solver asks ``later(key)``, from ``tap_moves``, for a
board's children: it gets ``(taps, children)``, each child already settled
(or None: the tap raised), and how a child is made stays in this module.
For a tabulated hook, ``tap_moves`` also summarises each gather without a
goal (``_summary``), and, as gravity acts per column, splits the taps into
parts that share no column (``_parts``), which the solver counts apart
when no summary can win.

``build_game_registry`` publishes the design space for this game: the Colour
enum, the read-only board dimensions, tile manipulation methods with
coordinate bounds, and arithmetic/comparison builtins, each declaring
whether it reads the board. The builtins and the fields return the runtime's
shared values (``runtime.int_value``, ``TRUE`` and ``FALSE``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from operator import is_, itemgetter, ne
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .lang import Signature, parse
from .registry import (
    BOOL,
    INT,
    VOID,
    EnumDef,
    FieldDescriptor,
    MethodDescriptor,
    Registry,
    enum_type,
)
from .runtime import (
    FALSE,
    TRUE,
    UNIT,
    ExecBudget,
    ExecutionError,
    GeneratedDelegate,
    HookTable,
    HostError,
    IntV,
    Probe,
    Runner,
    Value,
    WorldRead,
    int_value,
    invoke,  # unused here; the benchmark's tracer wraps ``game.invoke`` by name
    prepare,
)

COLOURS = ("R", "G", "B", "Y")
ON_TILE_TAPPED = "onTileTapped"


class OutOfBounds(Exception):
    pass


Cell = Optional[str]  # a colour name, or None for empty


class Board:
    """width x height grid: an immutable value whose cells are one flat,
    column-major tuple.

    Cell (x, y) is ``cells[x * height + y]``, with y=0 the bottom row, so
    column x is the slice ``cells[x * height:(x + 1) * height]``, bottom
    first. The cells are the board's key (``key()``): the solver keeps
    boards as keys and maps a parent's key to its child's. A board never
    changes after it is built, which copies ``cells``; a tap changes a
    ``GameState``. Two boards are equal when their shape and cells are.
    """

    def __init__(self, width: int, height: int, cells: Optional[Sequence[Cell]] = None):
        if width < 1 or height < 1:
            raise ValueError("board dimensions must be >= 1")
        cells = (None,) * (width * height) if cells is None else tuple(cells)
        if len(cells) != width * height:
            raise ValueError(f"a {width}x{height} board needs {width * height} cells")
        self.width = width
        self.height = height
        self.cells: Tuple[Cell, ...] = cells

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "Board":
        """Build from text rows, top row first; '.' marks an empty cell."""
        height = len(rows)
        width = len(rows[0]) if rows else 0
        cells: List[Cell] = [None] * (width * height)
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError("all rows must have equal length")
            for x, ch in enumerate(row):
                if ch == ".":
                    continue
                if ch not in COLOURS:
                    raise ValueError(f"unknown tile character {ch!r}")
                cells[x * height + height - 1 - r] = ch
        return cls(width, height, cells)

    def to_rows(self) -> List[str]:
        """Text rows, top row first; '.' marks an empty cell."""
        h = self.height
        return ["".join(c or "." for c in self.cells[y::h]) for y in reversed(range(h))]

    def clone(self) -> "Board":
        """The board itself, as a board never changes. The benchmark's
        oracle still calls it on a state's board before tapping a copy."""
        return self

    def key(self) -> Tuple[Cell, ...]:
        return self.cells

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Board)
            and self.width == other.width
            and self.height == other.height
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        return f"Board({'|'.join(self.to_rows())})"


def _settle(cells: List[Cell], h: int) -> None:
    """Compact each column of a board ``h`` cells tall (or of a gather's
    picks) downward in place, preserving vertical order: the column rule of
    gravity. Only the columns with an empty cell under a tile are rewritten."""
    for lo in range(0, len(cells), h):
        hi = lo + h
        col = cells[lo:hi]
        if None in col:
            empty = col.count(None)
            if col.index(None) != h - empty:
                cells[lo:hi] = [c for c in col if c is not None] + [None] * empty


def apply_gravity(board: Board) -> Board:
    """Compact each column downward, preserving vertical order; idempotent.

    Returns a new board, settled from a list copy of ``board``'s cells.
    """
    cells = list(board.cells)
    _settle(cells, board.height)
    return Board(board.width, board.height, cells)


class GameState:
    """The one mutable world: a board's size, its cells as a list that hosts
    and ``tap`` change in place (cell (x, y) is ``cells[x * height + y]``,
    as in a ``Board``), and the tap counter. ``GameState(board)`` copies
    the board's cells; ``board`` is a snapshot of them."""

    def __init__(self, board: Board, taps_used: int = 0):
        self.width = board.width
        self.height = board.height
        self.cells: List[Cell] = list(board.cells)
        self.taps_used = taps_used

    @property
    def board(self) -> Board:
        return Board(self.width, self.height, self.cells)

    def clone(self) -> "GameState":
        return GameState(self.board, self.taps_used)

    # Field access for generated code; both game fields are read-only.
    def read_field(self, name: str) -> Value:
        if name == "Width":
            return int_value(self.width)
        if name == "Height":
            return int_value(self.height)
        raise HostError(f"unknown game field '{name}'")

    def write_field(self, name: str, value: Value) -> None:
        raise HostError(f"game field '{name}' is read-only")


def _run_tap(run: Runner, args: Tuple[IntV, IntV], state: GameState) -> None:
    """The body of one tap, which ``tap`` and the general move share: run
    the prepared hook on ``state`` with a fresh budget, then restore
    gravity-normal form in place. A full board costs one C-level scan, as
    colours are non-empty names, so only an empty cell is false. Errors
    from the hook propagate and may leave the cells partially modified."""
    run(args, state, ExecBudget())
    cells = state.cells
    if not all(cells):
        _settle(cells, state.height)


# ``later(key)``: the moves of the board whose cells are ``key``: the taps
# that change it, in (y, x) order, and a fresh list of each tap's child, its
# gravity-normal cells as a tuple, or None when the tap raised an ExecutionError.
_Moves = Tuple[Tuple[Tuple[int, int], ...], List[Optional[Tuple[Cell, ...]]]]
Later = Callable[[Tuple[Cell, ...]], _Moves]
# A tabulated tap: ``gather(key + _CONSTANTS)`` is the child of the board
# whose cells are ``key``, or None when the tap raises on every board.
Gather = Callable[[Tuple[Cell, ...]], Optional[Tuple[Cell, ...]]]

# What a block that does not read the board can write into a cell besides a
# cell of the board: emptiness or a colour. A gather picks from ``key + _CONSTANTS``.
_CONSTANTS: Tuple[Cell, ...] = (None, *COLOURS)

# ``tap_moves``'s view of a tabulated hook: raising cells, summaries, parts.
Tabulated = Tuple[int, List[Tuple[FrozenSet[str], int]], List[Later]]

_Cells = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[IntV, IntV], ...], Dict[Any, int]]


@lru_cache(maxsize=64)
def _cells(width: int, height: int) -> _Cells:
    """What every solve on one board size needs, built once per size: each
    cell ``(x, y)``, bottom row first and in (y, x) order; the hook's
    argument values for each; and where a gather finds each value a marker
    run can leave in a cell (marker ``i`` at ``i``, then ``None`` and the
    colours after the ``n`` cells). Callers only read the result."""
    xs = [IntV(x) for x in range(width)]
    ys = [IntV(y) for y in range(height)]
    taps = tuple((x, y) for y in range(height) for x in range(width))
    n = width * height
    index: Dict[Any, int] = dict(zip(range(n), range(n)))
    index.update((c, n + i) for i, c in enumerate(_CONSTANTS))
    return taps, tuple((xs[x], ys[y]) for x, y in taps), index


@lru_cache(maxsize=64)
def _groups(width: int, height: int, read: FrozenSet[int]) -> Tuple[Tuple[int, ...], ...]:
    """Each cell's group, in ``_cells``'s order: its coordinates at the
    parameter indices ``read`` (0 is x, 1 is y), so cells whose taps pass
    the same values there are one group. Callers only read the result."""
    at = sorted(read)
    return tuple(tuple(xy[i] for i in at) for xy in _cells(width, height)[0])


def tap_moves(hooks: HookTable, board: Board) -> Tuple[Later, Optional[Tabulated]]:
    """The children of every tap on a board of ``board``'s size, with the
    hook resolved once, and a goal-free summary of a tabulated hook.

    Returns ``later`` and ``tabulated`` (below). ``later(key)``
    returns ``(taps, children)`` for the board whose cells are ``key``:
    ``taps`` holds the taps that change it, bottom row first, in (y, x)
    order, and ``children`` is a fresh list of the gravity-normal cells,
    as a tuple, that each tap leaves, or None when it raises an
    ExecutionError. A later rebinding of the hook does not reach
    ``later``. ``board`` is the root, gravity-normal as a challenge's is:
    only its size matters, as the scratch state starts from it and every
    run refills its cells first.

    Every hook, one marker pass; a host behavior is a reader. Each tap of a
    hook is tabulated, or each takes the general path. The hook runs under
    a ``Probe`` on a board of position markers ``0..n-1``, once per group
    of cells that agree on the parameters it reads (``params_read``, grouped
    by ``_groups``): the marker pass. Until a run calls a method declared
    ``reads_world``, nothing it does depends on the cells (the other methods
    promise it; the game's fields are the board's size and cannot be
    written) or on a parameter it does not read, so a run that reaches no
    reader fixes the tap's outcome for every cell of the group on every
    board of this size. Each cell is still listed as its own tap, so error
    counts and witnesses are those of one run per cell:

    - It raises: the cell's child is None on every board. A budget overrun
      is fixed too, because control flow cannot depend on the board.
    - It leaves the markers in place: the cell is no tap of ``later``, as
      its child is its parent on every gravity-normal board.
    - Otherwise the tap is a gather: its child, before gravity, picks its
      cells from ``key + _CONSTANTS`` at the indices the marker run left.

    A run that reaches a reader (a host behavior's first run does), or
    leaves a value no gather can pick (a variant that is no tile colour, if
    the registry declares one), sends the hook down the general path
    (``_general``): on each parent, ``later`` runs ``tap``'s body
    (``_run_tap``) once per group, for its first cell, on the scratch state
    refilled with ``key``. The other cells of the group take that run's
    child, or its None: the cells of a group pass equal values for every
    parameter the block can read, dead branches included, and each run has
    a fresh budget, so the child, the error and any budget overrun are the
    group's. Each cell is still its own tap, so error counts and witnesses
    do not change. The marker runs and the general runs share that one
    scratch state per call.

    Gravity after a gather depends only on which picks are empty, which the
    parent's empty cells (its mask) fix, so the two together are again a
    gather (``_settled_gather``), made for each mask on first use, in a dict
    kept for the solve. A settled gather that is the identity (a NOOP on a
    settled board, say) is dropped: its child is the parent, already seen.

    ``tabulated`` is None on the general path. Else it is ``(raising,
    summaries, parts)``: the number of cells that raise on every board; one
    summary ``(writes, unpicked)`` per other gather (``_summary``: the
    colours it picks as constants, and how many board cells it does not
    pick), on which ``evaluate.Goal.can_win`` rules; and the other taps
    split into parts, each a ``later`` over its own taps (``_parts``). A
    union-find over columns joins the columns whose cells a gather changes
    with the columns those cells pick from; a constant pick joins nothing.
    On a gravity-normal board a part's taps then change only its columns,
    and whether each has a move, and what it does, depends only on the cells
    of those columns: gravity acts per column, and a column no pick changes
    is already settled. So taps of different parts commute, and a count
    takes each part on its own (``evaluate._count_levels``).
    """
    n, h = len(board.cells), board.height
    delegate = hooks.delegate(ON_TILE_TAPPED)
    run = prepare(delegate, (INT, INT))
    state = GameState(board)  # the scratch state marker runs and general moves tap; each run refills it
    table = _marker_pass(run, board, delegate.params_read, state)
    if table is None:  # the general path
        return _general(run, board.width, h, delegate.params_read, state), None
    gathers = [row for row in table if row[1] is not None]
    summaries = [_summary(picks) for _, picks in gathers]
    parts = [_later(part, h) for part in _parts(gathers, n, h)]
    return _later(table, h), (len(table) - len(gathers), summaries, parts)


def _general(run: Runner, width: int, h: int, read: FrozenSet[int], state: GameState) -> Later:
    """``later`` for a hook on the general path (``tap_moves``): on each
    parent, the tap body runs on the scratch ``state`` once per group, for
    the group's first cell, and every cell of the group takes that child."""
    taps, cell_args, _ = _cells(width, h)
    runs: Dict[Tuple[int, ...], int] = {}  # each group's run, in the order of its first cell
    at = [runs.setdefault(group, len(runs)) for group in _groups(width, h, read)]
    firsts = [cell_args[at.index(i)] for i in range(len(runs))]
    cells = state.cells

    def later(key: Tuple[Cell, ...]) -> _Moves:
        children: List[Optional[Tuple[Cell, ...]]] = []
        for args in firsts:
            cells[:] = key
            try:
                _run_tap(run, args, state)
            except ExecutionError:
                children.append(None)
            else:
                children.append(tuple(cells))
        return taps, [children[i] for i in at]

    return later


_Table = List[Tuple[Tuple[int, int], Optional[Tuple[int, ...]]]]


def _later(table: _Table, h: int) -> Later:
    """``later`` over the rows of ``table`` (``tap_moves``): each gather
    settled for the parent's mask, made on the mask's first use and kept
    for the solve with the taps it keeps, called on ``key + _CONSTANTS``."""
    by_mask: Dict[Tuple[bool, ...], Tuple[Tuple[Tuple[int, int], ...], List[Gather]]] = {}

    def later(key: Tuple[Cell, ...]) -> _Moves:
        mask = tuple(map(is_, key, repeat(None)))
        row = by_mask.get(mask)
        if row is None:  # settle each gather; drop it if it is the identity
            taps, gathers = [], []
            for xy, picks in table:
                gather = _raised if picks is None else _settled_gather(picks, mask, h)
                if gather is not None:
                    taps.append(xy)
                    gathers.append(gather)
            row = by_mask[mask] = tuple(taps), gathers
        taps, gathers = row
        src = key + _CONSTANTS
        return taps, [gather(src) for gather in gathers]

    return later


def _parts(gathers: _Table, n: int, h: int) -> List[_Table]:
    """``gathers``, tabulated taps of a gravity-normal root of ``n`` cells
    ``h`` tall, none of which raises or is a NOOP, split into parts that
    share no column: a union-find over columns joins the column of each cell
    a gather changes with the column that cell picks from (a constant joins
    nothing). Each column's label is the least column of its part. Once
    every column is joined, the gathers left join the one part unread."""
    label = list(range(n // h))
    left = len(label)  # the number of parts so far
    firsts = []  # the column of each gather's first changed cell
    for _, picks in gathers:
        if left == 1:  # every column is joined: the rest join the one part
            return [gathers]
        changed = list(compress(range(n), map(ne, picks, range(n))))
        columns = {label[i // h] for i in changed}
        columns.update(label[p // h] for p in map(picks.__getitem__, changed) if p < n)
        if len(columns) > 1:
            least = min(columns)
            label = [least if c in columns else c for c in label]
            left -= len(columns) - 1
        firsts.append(changed[0] // h)
    parts: Dict[int, _Table] = {}
    for row, first in zip(gathers, firsts):
        parts.setdefault(label[first], []).append(row)
    return list(parts.values())


def _marker_pass(run: Runner, board: Board, read: FrozenSet[int], marked: GameState) -> Optional[_Table]:
    """The tabulated taps of ``board``'s size with their gathers' picks (None:
    it raises), from one marker run per group (``tap_moves``) on the scratch
    state ``marked``, NOOPs left out; None when the hook takes the general path."""
    width, h = board.width, board.height
    taps, cell_args, index = _cells(width, h)
    groups = _groups(width, h, read)
    markers = list(range(len(board.cells)))
    outcomes: Dict[Tuple[int, ...], Optional[Tuple[int, ...]]] = {}  # () for a NOOP
    for args, group in zip(cell_args, groups):
        if group not in outcomes:  # the group's marker run
            marked.cells[:] = markers
            try:
                run(args, marked, Probe())
            except WorldRead:
                return None
            except ExecutionError:
                outcomes[group] = None
            else:
                after = marked.cells
                if after == markers:  # its child is its parent
                    outcomes[group] = ()
                else:
                    try:
                        outcomes[group] = tuple(map(index.__getitem__, after))
                    except (KeyError, TypeError):  # a value no gather can pick
                        return None
    return [(xy, outcomes[group]) for xy, group in zip(taps, groups) if outcomes[group] != ()]


@lru_cache(maxsize=1024)
def _settled_gather(picks: Tuple[int, ...], mask: Tuple[bool, ...], h: int) -> Optional[Gather]:
    """The gather of ``picks`` then gravity on a board whose empty cells are
    ``mask``, or None when that is the identity: ``_settle`` compacts the
    picks, with None for each pick of the ``None`` constant or of an empty
    cell, which then picks the constant. Kept across solves, as many blocks
    share a gather."""
    n = len(mask)
    unmoved = [None if empty else i for i, empty in enumerate(mask)]  # the identity, marked
    marked = [None if p == n or p < n and mask[p] else p for p in picks]
    if None in marked:
        _settle(marked, h)
        picks = tuple(n if p is None else p for p in marked)
    return None if marked == unmoved else _items(picks)


@lru_cache(maxsize=1024)
def _summary(picks: Tuple[int, ...]) -> Tuple[FrozenSet[str], int]:
    """A gather's goal-free summary (``tap_moves``): the colours ``picks``
    takes as constants, and how many board cells it does not take."""
    n = len(picks)
    return frozenset(_CONSTANTS[p - n] for p in picks if p > n), n - len({p for p in picks if p < n})


def _raised(src: Tuple[Cell, ...]) -> None:
    """The gather of a tap that raises on every board."""
    return None


def _items(picks: Sequence[int]) -> Gather:
    """``itemgetter(*picks)``, but a tuple even for one pick."""
    if len(picks) == 1:
        return itemgetter(slice(picks[0], picks[0] + 1))
    return itemgetter(*picks)


def tap(state: GameState, x: int, y: int, hooks: HookTable) -> GameState:
    """One tap: dispatch the hook, restore gravity-normal form, count the tap.

    This is the bounds check, then the tap body (``_run_tap``) that the
    solver's general moves (``tap_moves``) share, so binding a generated
    delegate to ``onTileTapped`` swaps the mechanic for both. Gravity is
    restored in place on ``state.cells``. Errors from the hook propagate
    and may leave the cells partially modified, so searchers tap a copy of
    the state (``GameState(board)`` copies a board's cells).
    """
    if not (0 <= x < state.width and 0 <= y < state.height):
        raise OutOfBounds(f"tap at ({x}, {y}) outside {state.width}x{state.height}")
    _run_tap(prepare(hooks.delegate(ON_TILE_TAPPED), (INT, INT)), (IntV(x), IntV(y)), state)
    state.taps_used += 1
    return state


# --------------------------------------------------------------------------
# Host method implementations (arguments arrive constraint-checked)


def _host_destroy_tile(world: GameState, args: Sequence[Value]) -> Value:
    world.cells[args[0].value * world.height + args[1].value] = None  # type: ignore[union-attr]
    return UNIT


def _host_set_tile(world: GameState, args: Sequence[Value]) -> Value:
    world.cells[args[0].value * world.height + args[1].value] = args[2].variant  # type: ignore[union-attr]
    return UNIT


def _host_swap_tiles(world: GameState, args: Sequence[Value]) -> Value:
    h = world.height
    i = args[0].value * h + args[1].value  # type: ignore[union-attr]
    j = args[2].value * h + args[3].value  # type: ignore[union-attr]
    cells = world.cells
    cells[i], cells[j] = cells[j], cells[i]
    return UNIT


def _host_count_colour(world: GameState, args: Sequence[Value]) -> Value:
    return int_value(world.cells.count(args[0].variant))  # type: ignore[union-attr]


def _host_is_occupied(world: GameState, args: Sequence[Value]) -> Value:
    cell = world.cells[args[0].value * world.height + args[1].value]  # type: ignore[union-attr]
    return FALSE if cell is None else TRUE


def _host_add(world: GameState, args: Sequence[Value]) -> Value:
    return int_value(args[0].value + args[1].value)  # type: ignore[union-attr]


def _host_sub(world: GameState, args: Sequence[Value]) -> Value:
    return int_value(args[0].value - args[1].value)  # type: ignore[union-attr]


def _host_less(world: GameState, args: Sequence[Value]) -> Value:
    return TRUE if args[0].value < args[1].value else FALSE  # type: ignore[union-attr]


def _host_equal(world: GameState, args: Sequence[Value]) -> Value:
    return TRUE if args[0].value == args[1].value else FALSE  # type: ignore[union-attr]


def _host_do_nothing(world: GameState, args: Sequence[Value]) -> Value:
    return UNIT


def build_game_registry(
    width: int = 3,
    height: int = 3,
    usable: Optional[Set[str]] = None,
) -> Registry:
    """The design space for a ``width`` x ``height`` game.

    Every coordinate parameter is bounded to ``(0, dimension - 1)``.
    Every method except ``IsOccupied`` and ``CountColour`` is declared
    ``reads_world=False``: it never looks at the cells, so the solver can
    tabulate a block whose marker runs call only such methods (``tap_moves``).
    When ``usable`` is given, fields and methods outside that set are
    declared with ``usable=False``, narrowing the searchable scope the way
    a designer would with annotations.
    """
    colour = enum_type("Colour")

    def is_usable(name: str) -> bool:
        return usable is None or name in usable

    xs, ys = (0, width - 1), (0, height - 1)
    methods = [
        MethodDescriptor(
            "DestroyTile",
            (("x", INT), ("y", INT)),
            VOID,
            usable=is_usable("DestroyTile"),
            bounds={"x": xs, "y": ys},
            host_impl=_host_destroy_tile,
            reads_world=False,
        ),
        MethodDescriptor(
            "SetTile",
            (("x", INT), ("y", INT), ("c", colour)),
            VOID,
            usable=is_usable("SetTile"),
            bounds={"x": xs, "y": ys},
            host_impl=_host_set_tile,
            reads_world=False,
        ),
        MethodDescriptor(
            "SwapTiles",
            (("x1", INT), ("y1", INT), ("x2", INT), ("y2", INT)),
            VOID,
            usable=is_usable("SwapTiles"),
            bounds={"x1": xs, "y1": ys, "x2": xs, "y2": ys},
            host_impl=_host_swap_tiles,
            reads_world=False,
        ),
        MethodDescriptor(
            "CountColour",
            (("c", colour),),
            INT,
            usable=is_usable("CountColour"),
            host_impl=_host_count_colour,
        ),
        MethodDescriptor(
            "IsOccupied",
            (("x", INT), ("y", INT)),
            BOOL,
            usable=is_usable("IsOccupied"),
            bounds={"x": xs, "y": ys},
            host_impl=_host_is_occupied,
        ),
        MethodDescriptor("Add", (("a", INT), ("b", INT)), INT, usable=is_usable("Add"),
                         host_impl=_host_add, reads_world=False),
        MethodDescriptor("Sub", (("a", INT), ("b", INT)), INT, usable=is_usable("Sub"),
                         host_impl=_host_sub, reads_world=False),
        MethodDescriptor("Less", (("a", INT), ("b", INT)), BOOL, usable=is_usable("Less"),
                         host_impl=_host_less, reads_world=False),
        MethodDescriptor("Equal", (("a", INT), ("b", INT)), BOOL, usable=is_usable("Equal"),
                         host_impl=_host_equal, reads_world=False),
        MethodDescriptor("DoNothing", (), VOID, usable=is_usable("DoNothing"),
                         host_impl=_host_do_nothing, reads_world=False),
    ]
    return Registry(
        enums=[EnumDef("Colour", COLOURS)],
        fields=[
            FieldDescriptor("Width", INT, usable=is_usable("Width"), writable=False),
            FieldDescriptor("Height", INT, usable=is_usable("Height"), writable=False),
        ],
        methods=methods,
    )


# One shared value (a Signature is frozen) that every hook table compares against.
TAP_SIGNATURE = Signature(ON_TILE_TAPPED, (("x", INT), ("y", INT)), VOID)


def on_tile_tapped_signature() -> Signature:
    return TAP_SIGNATURE


# The baseline tap. No bounds: a hook table has no board size, and every tap is in bounds.
_BASELINE = GeneratedDelegate(TAP_SIGNATURE, parse("DestroyTile(x, y);", ("x", "y")), Registry(methods=[
    MethodDescriptor("DestroyTile", TAP_SIGNATURE.params, VOID, host_impl=_host_destroy_tile, reads_world=False)]))


def build_hook_table() -> HookTable:
    """Hook table whose default binding is the baseline tap, the checked
    block ``DestroyTile(x, y);`` (a no-op on an empty cell), which the solver
    tabulates: every hook, one marker pass; a host behavior is a reader."""
    table = HookTable()
    table.declare(ON_TILE_TAPPED, _BASELINE)
    return table
