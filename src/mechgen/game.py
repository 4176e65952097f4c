"""The sample host application: a grid of coloured tiles with a tap hook.

Tapping a tile dispatches through the ``onTileTapped`` hook. The baseline
block ``DestroyTile(x, y);`` destroys the tapped tile; gravity then compacts
each column so no empty cell sits below an occupied one (gravity-normal
form). Swapping the hook's delegate is the single integration point for
replacement mechanics: ``tap`` (one tap) and ``tap_moves`` (every tap, for
the solver: every hook, one marker pass; a host behavior is a reader) read
the hook table and run one tap body, ``_run_tap``. ``_settle`` is the one
place that knows the column rule; ``tap_moves`` also folds it into each
tabulated gather, so every move the solver gets returns a settled child.
As gravity acts per column, ``tap_moves`` also splits the taps of a solve
that no move can win into parts that share no column (``_parts``), which
the solver counts apart.

``build_game_registry`` publishes the design space for this game: the Colour
enum, the read-only board dimensions, tile manipulation methods with
coordinate bounds, and arithmetic/comparison builtins, each declaring
whether it reads the board.
"""

from __future__ import annotations

from functools import lru_cache, partial
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
    UNIT,
    BoolV,
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
    invoke,  # unused here; the benchmark's tracer wraps ``game.invoke`` by name
    prepare,
    wrap64,
)

COLOURS = ("R", "G", "B", "Y")
ON_TILE_TAPPED = "onTileTapped"


class OutOfBounds(Exception):
    pass


Cell = Optional[str]  # a colour name, or None for empty


class Board:
    """width x height grid stored as one flat, column-major list.

    Cell (x, y) is ``cells[x * height + y]``, with y=0 the bottom row, so
    column x is the slice ``cells[x * height:(x + 1) * height]``, bottom
    first. The board's value is ``key()``, the tuple of its cells: the
    solver keeps boards as keys and maps a parent's key to its child's.
    Two boards are equal when their shape and cells are.
    """

    def __init__(self, width: int, height: int, cells: Optional[List[Cell]] = None):
        if width < 1 or height < 1:
            raise ValueError("board dimensions must be >= 1")
        if cells is None:
            cells = [None] * (width * height)
        elif len(cells) != width * height:
            raise ValueError(f"a {width}x{height} board needs {width * height} cells")
        self.width = width
        self.height = height
        self.cells = cells

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "Board":
        """Build from text rows, top row first; '.' marks an empty cell."""
        height = len(rows)
        width = len(rows[0]) if rows else 0
        board = cls(width, height)
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError("all rows must have equal length")
            for x, ch in enumerate(row):
                if ch == ".":
                    continue
                if ch not in COLOURS:
                    raise ValueError(f"unknown tile character {ch!r}")
                board.cells[x * height + height - 1 - r] = ch
        return board

    def to_rows(self) -> List[str]:
        """Text rows, top row first; '.' marks an empty cell."""
        h = self.height
        return ["".join(c or "." for c in self.cells[y::h]) for y in reversed(range(h))]

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def get(self, x: int, y: int) -> Cell:
        return self.cells[x * self.height + y]

    def set(self, x: int, y: int, colour: Cell) -> None:
        self.cells[x * self.height + y] = colour

    def count(self, colour: str) -> int:
        return self.cells.count(colour)

    def is_gravity_normal(self) -> bool:
        """Whether gravity leaves this board as it is (``apply_gravity``): it
        is full, or no column has an empty cell among its lowest
        ``height - empty`` cells."""
        h, cells = self.height, self.cells
        return None not in cells or not any(None in cells[lo:lo + h - cells[lo:lo + h].count(None)]
                                            for lo in range(0, len(cells), h))

    def clone(self) -> "Board":
        return Board(self.width, self.height, self.cells[:])

    def key(self) -> Tuple[Cell, ...]:
        return tuple(self.cells)

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

    Returns a new board; ``board`` is left unchanged.
    """
    out = board.clone()
    _settle(out.cells, out.height)
    return out


class GameState:
    """A board plus the tap counter."""

    def __init__(self, board: Board, taps_used: int = 0):
        self.board = board
        self.taps_used = taps_used

    def clone(self) -> "GameState":
        return GameState(self.board.clone(), self.taps_used)

    # Field access for generated code; both game fields are read-only.
    def read_field(self, name: str) -> Value:
        if name == "Width":
            return IntV(self.board.width)
        if name == "Height":
            return IntV(self.board.height)
        raise HostError(f"unknown game field '{name}'")

    def write_field(self, name: str, value: Value) -> None:
        raise HostError(f"game field '{name}' is read-only")


def _run_tap(run: Runner, args: Tuple[IntV, IntV], state: GameState) -> None:
    """The body of one tap, which ``tap`` and the general move share: run
    the prepared hook on ``state`` with a fresh budget, then restore
    gravity-normal form in place. A full board costs one C-level scan, as
    colours are non-empty names, so only an empty cell is false. Errors
    from the hook propagate and may leave the board partially modified."""
    run(args, state, ExecBudget())
    cells = state.board.cells
    if not all(cells):
        _settle(cells, state.board.height)


# A move maps ``src``, the parent's key followed by ``_CONSTANTS``, to the
# child's cells as a tuple, already gravity-normal, or to None when the tap
# raised an ExecutionError.
MoveFn = Callable[[Tuple[Cell, ...]], Optional[Tuple[Cell, ...]]]
Move = Tuple[Tuple[int, int], MoveFn]
# ``later(key)``: the moves of a board whose cells are ``key``.
Later = Callable[[Tuple[Cell, ...]], List[Move]]

# What a block that does not read the board can write into a cell besides a
# cell of the board: emptiness or a colour. A gather reads ``key + _CONSTANTS``.
_CONSTANTS: Tuple[Cell, ...] = (None, *COLOURS)

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


def tap_moves(
    hooks: HookTable, board: Board, present: Optional[str] = None, forbidden: Sequence[str] = ()
) -> Tuple[Later, Optional[Tuple[int, List[Later]]]]:
    """Every tap of a board of ``board``'s size as a ``(tap, move)`` pair,
    with the hook resolved once, and whether no move can meet the goal.

    ``move(key + _CONSTANTS)`` returns the gravity-normal cells, as a tuple,
    that the tap leaves on the board whose cells are ``key``, or None when
    the tap raises an ExecutionError. Returns ``later`` and the count
    decision (below): ``later(key)`` is the list of moves of a board whose
    cells are ``key``. Taps come bottom row first,
    in (y, x) order; a later rebinding of the hook does not reach the
    moves. ``board`` is the root, gravity-normal as a challenge's is: only
    its size is read.

    Every hook, one marker pass; a host behavior is a reader. Each tap of a
    hook is tabulated, or each takes the general path. The hook runs under
    a ``Probe`` on a board of position markers ``0..n-1``, once per group
    of cells that agree on the parameters it reads (``params_read``, grouped
    by ``_groups``): the marker pass. Until a run calls a method declared
    ``reads_world``, nothing it does depends on the cells (the other methods
    promise it; the game's fields are the board's size and cannot be
    written) or on a parameter it does not read, so a run that reaches no
    reader fixes the tap's outcome for every cell of the group on every
    board of this size. Each cell is still listed on its own, so the moves,
    error counts and witnesses are those of one run per cell:

    - It raises: every move of the cell returns None. A budget overrun is
      fixed too, because control flow cannot depend on the board.
    - It leaves the markers in place: the cell has no move, as its child is
      its parent on every gravity-normal board.
    - Otherwise the tap is a gather: its child, before gravity, picks its
      cells from ``key + _CONSTANTS`` at the indices the marker run left.

    A run that reaches a reader (a host behavior's first run does), or
    leaves a value no gather can pick (a variant that is no tile colour, if
    the registry declares one), sends the hook down the general path: each
    move refills a scratch board with ``key`` and runs ``tap``'s body
    (``_run_tap``). The marker runs and the general moves share one scratch
    state per call, as each run refills its cells first.

    Gravity after a gather depends only on which picks are empty, which the
    parent's empty cells (its mask) fix, so the two together are again a
    gather (``_settled_gather``), made for each mask on first use, in a dict
    kept for the solve. A settled gather that is the identity (a NOOP on a
    settled board, say) is dropped: its child is the parent, already seen.

    One rule says whether a gather can make a child meet a goal its parent
    fails (``wins``). ``present`` is the colour of a COLOUR_PRESENT goal,
    which a child can hold only if its gather picks that constant. None
    stands for a goal met by clearing tiles, which a child can meet only if
    its gather picks none of the colours in ``forbidden`` (every colour for
    CLEARED, ``c`` for COLOUR_CLEARED c: a picked colour stays on the board)
    and misses an occupied cell (else the child keeps every tile of its
    parent). The count decision is None when some move can meet the goal:
    the hook takes the general path, or a gather can on a full board. Else
    it is ``(raising, parts)``: the number of cells that raise, on every
    board, and the other taps split into parts, each a ``later`` over its own
    taps (``_parts``). A union-find over columns joins the columns whose
    cells a gather changes with the columns those cells pick from; a
    constant pick joins nothing. On a gravity-normal board a part's taps
    then change only its columns, and whether each has a move, and what it
    does, depends only on the cells of those columns: gravity acts per
    column, and a column no pick changes is already settled. So taps of
    different parts commute, and the count takes each part on its own
    (``evaluate._count_levels``).
    """
    n, h = len(board.cells), board.height
    delegate = hooks.delegate(ON_TILE_TAPPED)
    run = prepare(delegate, (INT, INT))
    taps, cell_args, index = _cells(board.width, h)
    state = GameState(Board(board.width, h))  # the scratch state marker runs and general moves tap
    table = _marker_pass(run, board, delegate.params_read, state)
    if table is None:  # the general path
        cells = state.board.cells

        def runs(args: Tuple[IntV, IntV], src: Tuple[Cell, ...]) -> Optional[Tuple[Cell, ...]]:
            cells[:] = src
            del cells[n:]  # drop the constants after the key; cheaper than src[:n]
            try:
                _run_tap(run, args, state)
            except ExecutionError:
                return None
            return tuple(cells)

        moves = [(xy, partial(runs, args)) for xy, args in zip(taps, cell_args)]
        return lambda key: moves, None

    every = set(range(n))
    wanted = None if present is None else index[present]  # the colour's pick
    banned = {index[colour] for colour in forbidden}  # the forbidden colours' picks

    def wins(picks: Tuple[int, ...]) -> bool:
        if wanted is not None:
            return wanted in picks
        return banned.isdisjoint(picks) and not every.issubset(picks)

    later = _later(table, h)
    if any(picks is not None and wins(picks) for _, picks in table):
        return later, None
    gathers = [row for row in table if row[1] is not None]
    return later, (len(table) - len(gathers), [_later(part, h) for part in _parts(gathers, n, h)])


_Table = List[Tuple[Tuple[int, int], Optional[Tuple[int, ...]]]]


def _later(table: _Table, h: int) -> Later:
    """``later`` over the rows of ``table`` (``tap_moves``): the moves of a
    board whose cells are ``key``, each gather settled for the board's mask,
    made on the mask's first use and kept for the solve."""
    by_mask: Dict[Tuple[bool, ...], List[Move]] = {}

    def later(key: Tuple[Cell, ...]) -> List[Move]:
        mask = tuple(map(is_, key, repeat(None)))
        moves = by_mask.get(mask)
        if moves is None:  # settle each gather; drop it if it is the identity
            moves = by_mask[mask] = []
            for xy, picks in table:
                move = _raised if picks is None else _settled_gather(picks, mask, h)
                if move is not None:
                    moves.append((xy, move))
        return moves

    return later


def _parts(gathers: _Table, n: int, h: int) -> List[_Table]:
    """``gathers``, tabulated taps of a gravity-normal root of ``n`` cells
    ``h`` tall, none of which raises or is a NOOP, split into parts that
    share no column: a union-find over columns joins the column of each cell
    a gather changes with the column that cell picks from (a constant joins
    nothing). Each column's label is the least column of its part."""
    label = list(range(n // h))
    firsts = []  # the column of each gather's first changed cell
    for _, picks in gathers:
        changed = list(compress(range(n), map(ne, picks, range(n))))
        columns = {label[i // h] for i in changed}
        columns.update(label[p // h] for p in map(picks.__getitem__, changed) if p < n)
        if len(columns) > 1:
            least = min(columns)
            label = [least if c in columns else c for c in label]
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
            marked.board.cells[:] = markers
            try:
                run(args, marked, Probe())
            except WorldRead:
                return None
            except ExecutionError:
                outcomes[group] = None
            else:
                after = marked.board.cells
                if after == markers:  # its child is its parent
                    outcomes[group] = ()
                else:
                    try:
                        outcomes[group] = tuple(map(index.__getitem__, after))
                    except (KeyError, TypeError):  # a value no gather can pick
                        return None
    return [(xy, outcomes[group]) for xy, group in zip(taps, groups) if outcomes[group] != ()]


@lru_cache(maxsize=1024)
def _settled_gather(picks: Tuple[int, ...], mask: Tuple[bool, ...], h: int) -> Optional[MoveFn]:
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


def _raised(src: Tuple[Cell, ...]) -> None:
    """The move of a tap that raises on every board."""
    return None


def _items(picks: Sequence[int]) -> MoveFn:
    """``itemgetter(*picks)``, but a tuple even for one pick."""
    if len(picks) == 1:
        return itemgetter(slice(picks[0], picks[0] + 1))
    return itemgetter(*picks)


def tap(state: GameState, x: int, y: int, hooks: HookTable) -> GameState:
    """One tap: dispatch the hook, restore gravity-normal form, count the tap.

    This is the bounds check, then the tap body (``_run_tap``) that the
    solver's general moves (``tap_moves``) share, so binding a generated
    delegate to ``onTileTapped`` swaps the mechanic for both. Gravity is
    restored in place on ``state.board``. Errors from the hook propagate
    and may leave the board partially modified, so searchers tap a copy of
    the state.
    """
    board = state.board
    if not board.in_bounds(x, y):
        raise OutOfBounds(f"tap at ({x}, {y}) outside {board.width}x{board.height}")
    _run_tap(prepare(hooks.delegate(ON_TILE_TAPPED), (INT, INT)), (IntV(x), IntV(y)), state)
    state.taps_used += 1
    return state


# --------------------------------------------------------------------------
# Host method implementations (arguments arrive constraint-checked)


def _host_destroy_tile(world: GameState, args: Sequence[Value]) -> Value:
    world.board.set(args[0].value, args[1].value, None)  # type: ignore[union-attr]
    return UNIT


def _host_set_tile(world: GameState, args: Sequence[Value]) -> Value:
    world.board.set(args[0].value, args[1].value, args[2].variant)  # type: ignore[union-attr]
    return UNIT


def _host_swap_tiles(world: GameState, args: Sequence[Value]) -> Value:
    board = world.board
    h = board.height
    i = args[0].value * h + args[1].value  # type: ignore[union-attr]
    j = args[2].value * h + args[3].value  # type: ignore[union-attr]
    cells = board.cells
    cells[i], cells[j] = cells[j], cells[i]
    return UNIT


def _host_count_colour(world: GameState, args: Sequence[Value]) -> Value:
    return IntV(world.board.count(args[0].variant))  # type: ignore[union-attr]


def _host_is_occupied(world: GameState, args: Sequence[Value]) -> Value:
    return BoolV(world.board.get(args[0].value, args[1].value) is not None)  # type: ignore[union-attr]


def _host_add(world: GameState, args: Sequence[Value]) -> Value:
    return IntV(wrap64(args[0].value + args[1].value))  # type: ignore[union-attr]


def _host_sub(world: GameState, args: Sequence[Value]) -> Value:
    return IntV(wrap64(args[0].value - args[1].value))  # type: ignore[union-attr]


def _host_less(world: GameState, args: Sequence[Value]) -> Value:
    return BoolV(args[0].value < args[1].value)  # type: ignore[union-attr]


def _host_equal(world: GameState, args: Sequence[Value]) -> Value:
    return BoolV(args[0].value == args[1].value)  # type: ignore[union-attr]


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
