"""The sample host application: a grid of coloured tiles with a tap hook.

Tapping a tile dispatches through the ``onTileTapped`` hook. The baseline
behavior destroys the tapped tile; gravity then compacts each column so no
empty cell sits below an occupied one (gravity-normal form). Swapping the
hook's delegate is the single integration point for replacement mechanics:
``tap_step`` reads the hook table and nothing else needs to change.

``build_game_registry`` publishes the design space for this game: the Colour
enum, the read-only board dimensions, tile manipulation methods with
coordinate bounds, and arithmetic/comparison builtins.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from .lang import Signature
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
    HookTable,
    HostDelegate,
    HostError,
    IntV,
    Value,
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
    solver keeps boards as keys and refills one scratch board from them.
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

    def contains(self, colour: str) -> bool:
        return colour in self.cells

    def tile_count(self) -> int:
        return len(self.cells) - self.cells.count(None)

    def is_gravity_normal(self) -> bool:
        cells, h = self.cells, self.height
        for lo in range(0, len(cells), h):
            col = cells[lo:lo + h]
            empty = col.count(None)
            if empty and col.index(None) != h - empty:  # an empty cell under a tile
                return False
        return True

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


def _settle(board: Board) -> None:
    """Compact each column downward in place, preserving vertical order.

    A full board costs one C-level scan: colours are non-empty names, so
    only an empty cell is false. Otherwise only the columns with an empty
    cell under a tile are rewritten.
    """
    cells = board.cells
    if all(cells):
        return
    h = board.height
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
    _settle(out)
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


def baseline_on_tile_tapped(world: GameState, x: int, y: int) -> None:
    """Default tap logic: destroy the tapped tile (a no-op on empty cells)."""
    world.board.set(x, y, None)


TapStep = Callable[[GameState, int, int], GameState]


def tap_step(hooks: HookTable, width: int, height: int) -> TapStep:
    """The tap of a ``width`` x ``height`` board, with the hook resolved once.

    The ``onTileTapped`` delegate is looked up and prepared here, and the
    argument values of every cell are built here. The returned step then
    runs that delegate on the state with a fresh budget, restores
    gravity-normal form in place on ``state.board`` and counts the tap. It
    does no bounds check, and a later rebinding of the hook does not reach
    it. Errors from the hook propagate and may leave the board partially
    modified, so searchers tap a copy of the state.
    """
    run = prepare(hooks.delegate(ON_TILE_TAPPED), (INT, INT))
    xs = [IntV(x) for x in range(width)]
    ys = [IntV(y) for y in range(height)]
    cell_args = [[(xv, yv) for yv in ys] for xv in xs]

    def step(state: GameState, x: int, y: int) -> GameState:
        run(cell_args[x][y], state, ExecBudget())
        _settle(state.board)
        state.taps_used += 1
        return state

    return step


def tap(state: GameState, x: int, y: int, hooks: HookTable) -> GameState:
    """One tap: dispatch the hook, restore gravity-normal form, count the tap.

    This is the bounds check, then one ``tap_step`` for the board: the
    dispatch-and-settle path the solver runs on every tap, so binding a
    generated delegate to ``onTileTapped`` swaps the mechanic for both.
    Gravity is restored in place on ``state.board``. Errors from the hook
    propagate and may leave the board partially modified, so searchers tap a
    copy of the state. A caller that taps one board size many times builds
    the step once instead.
    """
    board = state.board
    if not board.in_bounds(x, y):
        raise OutOfBounds(f"tap at ({x}, {y}) outside {board.width}x{board.height}")
    return tap_step(hooks, board.width, board.height)(state, x, y)


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
    """The sealed design space for a ``width`` x ``height`` game.

    Every coordinate parameter is bounded to ``(0, dimension - 1)``.
    When ``usable`` is given, fields and methods outside that set are
    registered with ``usable=False``, narrowing the searchable scope the way
    a designer would with annotations.
    """
    colour = enum_type("Colour")

    def is_usable(name: str) -> bool:
        return usable is None or name in usable

    reg = Registry()
    reg.register_enum(EnumDef("Colour", COLOURS))
    reg.register_field(FieldDescriptor("Width", INT, usable=is_usable("Width"), writable=False))
    reg.register_field(FieldDescriptor("Height", INT, usable=is_usable("Height"), writable=False))

    xs, ys = (0, width - 1), (0, height - 1)
    methods = [
        MethodDescriptor(
            "DestroyTile",
            (("x", INT), ("y", INT)),
            VOID,
            usable=is_usable("DestroyTile"),
            bounds={"x": xs, "y": ys},
            host_impl=_host_destroy_tile,
        ),
        MethodDescriptor(
            "SetTile",
            (("x", INT), ("y", INT), ("c", colour)),
            VOID,
            usable=is_usable("SetTile"),
            bounds={"x": xs, "y": ys},
            host_impl=_host_set_tile,
        ),
        MethodDescriptor(
            "SwapTiles",
            (("x1", INT), ("y1", INT), ("x2", INT), ("y2", INT)),
            VOID,
            usable=is_usable("SwapTiles"),
            bounds={"x1": xs, "y1": ys, "x2": xs, "y2": ys},
            host_impl=_host_swap_tiles,
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
        MethodDescriptor("Add", (("a", INT), ("b", INT)), INT,
                         usable=is_usable("Add"), host_impl=_host_add),
        MethodDescriptor("Sub", (("a", INT), ("b", INT)), INT,
                         usable=is_usable("Sub"), host_impl=_host_sub),
        MethodDescriptor("Less", (("a", INT), ("b", INT)), BOOL,
                         usable=is_usable("Less"), host_impl=_host_less),
        MethodDescriptor("Equal", (("a", INT), ("b", INT)), BOOL,
                         usable=is_usable("Equal"), host_impl=_host_equal),
        MethodDescriptor("DoNothing", (), VOID,
                         usable=is_usable("DoNothing"), host_impl=_host_do_nothing),
    ]
    for m in methods:
        reg.register_method(m)
    return reg.seal()


def on_tile_tapped_signature() -> Signature:
    return Signature(ON_TILE_TAPPED, (("x", INT), ("y", INT)), VOID)


def _baseline_hook(world: GameState, args: Sequence[Value]) -> Value:
    baseline_on_tile_tapped(world, args[0].value, args[1].value)  # type: ignore[union-attr]
    return UNIT


def build_hook_table() -> HookTable:
    """Hook table with the baseline tap behavior as the default binding."""
    table = HookTable()
    table.declare(ON_TILE_TAPPED, HostDelegate(on_tile_tapped_signature(), _baseline_hook))
    return table
