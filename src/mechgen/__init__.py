"""mechgen: generate, type-check, execute, and evaluate tile-game mechanics.

The pipeline: a Registry describes the design space a host game exposes;
the synthesis module draws random well-typed code blocks for a target
signature; the runtime hot-swaps those blocks into named hooks and runs
them compiled to closures; the evaluate module decides, by exhaustive search, whether a candidate
mechanic makes a challenge level solvable.
"""

from .evaluate import (
    Challenge,
    EvalResult,
    Rejected,
    Solved,
    Unsolvable,
    evaluate_candidate,
    load_challenge,
    parse_challenge,
    search_mechanics,
    solve,
)
from .game import Board, GameState, apply_gravity, build_game_registry, build_hook_table, tap
from .lang import (
    CodeBlock,
    ParseError,
    Signature,
    TypeCheckError,
    parse,
    parse_mechanic,
    pretty,
    typecheck,
)
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
from .runtime import ExecBudget, GeneratedDelegate, HookTable, HostDelegate, compile_block, invoke
from .synthesis import (
    GenerationConfig,
    GenerationError,
    Scope,
    StatementKind,
    generate_block,
    generate_expression,
    generate_statement,
    load_config,
    load_config_file,
)

__version__ = "0.1.0"
