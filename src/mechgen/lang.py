"""AST, scope rule, pretty-printer, and parser for the generated language.

Type checking is part of compilation: constructing a
``runtime.GeneratedDelegate`` checks its block, and ``typecheck`` here is that
construction, raising the first ``TypeCheckError``.

The language is a loop-free imperative subset: four statement kinds plus a
terminal return. Operators do not exist at the syntax level; arithmetic and
comparison are ordinary registry methods, so every computation is a call.

Surface grammar (``pretty`` emits exactly this shape, one statement header per
line with 4-space indentation; ``parse`` accepts arbitrary whitespace)::

    block    := line*
    line     := vardecl | assign | callstmt | ifelse | return
    vardecl  := type ident "=" expr ";"
    assign   := lvalue "=" expr ";"
    callstmt := ident "(" [expr ("," expr)*] ")" ";"
    ifelse   := "if" "(" expr ")" "{" block "}" ["else" "{" block "}"]
    return   := "return" [expr] ";"
    expr     := intlit | "true" | "false" | ident "." ident | ident
              | ident "(" [expr ("," expr)*] ")"
    type     := "int" | "bool" | ident

Surface syntax spells both locals and fields as bare identifiers, so the
parser classifies a name as a local reference when it is a parameter or was
declared by an earlier ``vardecl`` in a visible frame, and as a field
reference otherwise. Round-tripping therefore requires parameter names to be
supplied (``parse(text, params=...)``) and assumes field names do not collide
with visible local names; generated code guarantees both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from .registry import (
    BOOL,
    INT,
    VOID,
    Registry,
    TypeId,
    enum_type,
)

if TYPE_CHECKING:
    from .runtime import GeneratedDelegate

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_DECIMAL_RE = re.compile(r"-?[0-9]+")


def decimal_int(text: str) -> int:
    """``text`` read as an integer written the way the language writes one:
    ASCII ``-?[0-9]+``. Anything else (a ``+`` sign, ``_`` separators,
    non-ASCII digits, spaces) raises ValueError, although ``int`` would
    accept it."""
    if _DECIMAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


# --------------------------------------------------------------------------
# AST


class Expression:
    pass


@dataclass(frozen=True)
class IntLit(Expression):
    value: int


@dataclass(frozen=True)
class BoolLit(Expression):
    value: bool


@dataclass(frozen=True)
class EnumLit(Expression):
    enum: str
    variant: str


@dataclass(frozen=True)
class LocalRef(Expression):
    name: str


@dataclass(frozen=True)
class FieldRef(Expression):
    name: str


@dataclass(frozen=True)
class Call(Expression):
    method: str
    args: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class LValue:
    name: str


@dataclass(frozen=True)
class LocalTarget(LValue):
    pass


@dataclass(frozen=True)
class FieldTarget(LValue):
    pass


class Statement:
    pass


@dataclass(frozen=True)
class VarDecl(Statement):
    type: TypeId
    name: str
    init: Expression


@dataclass(frozen=True)
class Assign(Statement):
    target: LValue
    value: Expression


@dataclass(frozen=True)
class ExprStmt(Statement):
    call: Call


@dataclass(frozen=True)
class Return(Statement):
    value: Optional[Expression] = None


@dataclass(frozen=True)
class CodeBlock:
    statements: Tuple[Statement, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", tuple(self.statements))


@dataclass(frozen=True)
class IfElse(Statement):
    cond: Expression
    then_block: CodeBlock
    else_block: Optional[CodeBlock] = None


@dataclass(frozen=True)
class Signature:
    """Name, parameters, and return type of a hook or delegate."""

    name: str
    params: Tuple[Tuple[str, TypeId], ...]
    return_type: TypeId

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(tuple(p) for p in self.params))
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"signature '{self.name}' repeats a parameter name")
        for _, t in self.params:
            if t.is_void:
                raise ValueError(f"signature '{self.name}' has a void parameter")

    def format(self) -> str:
        params = ", ".join(f"{n}:{t.display()}" for n, t in self.params)
        return f"{self.name}({params}) -> {self.return_type.display()}"


# --------------------------------------------------------------------------
# Scopes

V = TypeVar("V")


def lookup(frames: Sequence[Mapping[str, V]], name: str) -> Optional[V]:
    """The binding of ``name`` in the innermost frame that has it, else None.

    ``frames`` lists one mapping per enclosing block, outermost (the
    signature's parameters) first. This is the language's one scope rule:
    the parser (name to True), the compiler, which also checks types (name
    to frame slot and type), and the generator's ``Scope`` all resolve names
    through it.
    """
    for frame in reversed(frames):
        if name in frame:
            return frame[name]
    return None


# --------------------------------------------------------------------------
# Type checking


class TypeCheckError(Exception):
    """A static check failure, with enough context to locate it."""

    def __init__(
        self,
        message: str,
        stmt_index: Optional[int] = None,
        path: str = "",
        expected: Optional[TypeId] = None,
        found: Optional[TypeId] = None,
    ):
        where = f"stmt {stmt_index}" if stmt_index is not None else "block"
        if path:
            where += f": {path}"
        super().__init__(f"{where}: {message}")
        self.stmt_index = stmt_index
        self.path = path
        self.expected = expected
        self.found = found


def typecheck(block: CodeBlock, sig: Signature, registry: Registry) -> GeneratedDelegate:
    """Raise TypeCheckError unless ``block`` is a valid body for ``sig``;
    otherwise return the checked delegate, its program already built.

    Checks: every expression's type matches its context, every local is a
    parameter or declared earlier in a visible frame (no redeclaration of a
    visible name), field/method references are usable and type-correct,
    assignment targets are writable, branch-local declarations do not escape,
    and a final ``return`` of the right type closes non-void bodies.

    This is ``runtime.GeneratedDelegate(sig, block, registry)``: the
    compiler infers each node's type as it builds the node's code, so one
    walk both checks and compiles.
    """
    from .runtime import GeneratedDelegate  # runtime imports this module

    return GeneratedDelegate(sig, block, registry)


# --------------------------------------------------------------------------
# Pretty-printing


def pretty(block: CodeBlock) -> str:
    """Render a block in the canonical surface form, one newline per line."""
    return "".join(line + "\n" for line in _stmt_lines(block, 0))


def pretty_expr(expr: Expression) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, EnumLit):
        return f"{expr.enum}.{expr.variant}"
    if isinstance(expr, (LocalRef, FieldRef)):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.method}({', '.join(pretty_expr(a) for a in expr.args)})"
    raise ValueError(f"cannot print expression {expr!r}")


def _stmt_lines(block: CodeBlock, depth: int) -> List[str]:
    pad = "    " * depth
    out: List[str] = []
    for st in block.statements:
        if isinstance(st, VarDecl):
            out.append(f"{pad}{st.type.display()} {st.name} = {pretty_expr(st.init)};")
        elif isinstance(st, Assign):
            out.append(f"{pad}{st.target.name} = {pretty_expr(st.value)};")
        elif isinstance(st, ExprStmt):
            out.append(f"{pad}{pretty_expr(st.call)};")
        elif isinstance(st, Return):
            if st.value is None:
                out.append(f"{pad}return;")
            else:
                out.append(f"{pad}return {pretty_expr(st.value)};")
        elif isinstance(st, IfElse):
            out.append(f"{pad}if ({pretty_expr(st.cond)}) {{")
            out.extend(_stmt_lines(st.then_block, depth + 1))
            if st.else_block is None:
                out.append(f"{pad}}}")
            else:
                out.append(f"{pad}}} else {{")
                out.extend(_stmt_lines(st.else_block, depth + 1))
                out.append(f"{pad}}}")
        else:
            raise ValueError(f"cannot print statement {st!r}")
    return out


# --------------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: Sequence[str] = ()):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


_KEYWORDS = frozenset({"if", "else", "return", "true", "false", "int", "bool"})

# How deep call argument lists and if/else blocks may nest in parsed text.
# Every later stage recurses on the tree, so this keeps each of them far from
# Python's recursion limit; generated blocks nest only a few levels.
MAX_PARSE_DEPTH = 100

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<number>-?[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[(){};,.=])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "ident", a keyword, a punctuation char, or "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str, first_line: int = 1) -> List[_Token]:
    tokens: List[_Token] = []
    line = first_line
    col = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup or ""
        if kind != "ws":
            if kind == "ident" and lexeme in _KEYWORDS:
                kind = lexeme
            elif kind == "punct":
                kind = lexeme
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    if tokens:
        # position end-of-input at the end of the last real token, so errors
        # about unfinished statements point at their own line
        last = tokens[-1]
        tokens.append(_Token("eof", "", last.line, last.col + len(last.text)))
    else:
        tokens.append(_Token("eof", "", line, col))
    return tokens


class _BlockParser:
    def __init__(self, tokens: List[_Token], params: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.frames: List[Dict[str, bool]] = [dict.fromkeys(params, True)]
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                expected=(kind,),
            )
        return self.advance()

    def nest(self, tok: _Token) -> None:
        """Open one nesting level at ``tok``; ParseError past the limit."""
        if self.depth == MAX_PARSE_DEPTH:
            raise ParseError(
                f"calls and if blocks nest deeper than {MAX_PARSE_DEPTH} levels",
                tok.line,
                tok.col,
            )
        self.depth += 1

    def parse_block(self, nested: bool) -> CodeBlock:
        stmts: List[Statement] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof" and not nested:
                break
            if tok.kind == "}" and nested:
                break
            stmts.append(self.parse_statement())
        return CodeBlock(tuple(stmts))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "return":
            self.advance()
            if self.peek().kind == ";":
                self.advance()
                return Return(None)
            value = self.parse_expr()
            self.expect(";")
            return Return(value)
        if tok.kind == "if":
            return self.parse_ifelse()
        if tok.kind in ("int", "bool"):
            decl_type = INT if tok.kind == "int" else BOOL
            self.advance()
            return self.finish_vardecl(decl_type)
        if tok.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind == "ident":
                self.advance()
                return self.finish_vardecl(enum_type(tok.text))
            if nxt.kind == "=":
                self.advance()
                self.advance()
                value = self.parse_expr()
                self.expect(";")
                target: LValue
                if lookup(self.frames, tok.text):
                    target = LocalTarget(tok.text)
                else:
                    target = FieldTarget(tok.text)
                return Assign(target, value)
            if nxt.kind == "(":
                call = self.parse_call(self.advance())
                self.expect(";")
                return ExprStmt(call)
            raise ParseError(
                f"expected a statement, found {tok.text!r}",
                tok.line,
                tok.col,
                expected=("=", "(", "ident"),
            )
        raise ParseError(
            f"expected a statement, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("ident", "if", "return", "int", "bool"),
        )

    def finish_vardecl(self, decl_type: TypeId) -> VarDecl:
        name_tok = self.expect("ident")
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        self.frames[-1][name_tok.text] = True
        return VarDecl(decl_type, name_tok.text, init)

    def parse_ifelse(self) -> IfElse:
        self.nest(self.expect("if"))
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect("{")
        self.frames.append({})
        then_block = self.parse_block(nested=True)
        self.frames.pop()
        self.expect("}")
        else_block: Optional[CodeBlock] = None
        if self.peek().kind == "else":
            self.advance()
            self.expect("{")
            self.frames.append({})
            else_block = self.parse_block(nested=True)
            self.frames.pop()
            self.expect("}")
        self.depth -= 1
        return IfElse(cond, then_block, else_block)

    def parse_call(self, name_tok: _Token) -> Call:
        self.nest(name_tok)
        self.expect("(")
        args: List[Expression] = []
        if self.peek().kind != ")":
            args.append(self.parse_expr())
            while self.peek().kind == ",":
                self.advance()
                args.append(self.parse_expr())
        self.expect(")")
        self.depth -= 1
        return Call(name_tok.text, tuple(args))

    def parse_expr(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = int(tok.text)
            if not (INT64_MIN <= value <= INT64_MAX):
                raise ParseError(
                    f"integer literal {tok.text} outside the 64-bit signed range",
                    tok.line,
                    tok.col,
                )
            return IntLit(value)
        if tok.kind in ("true", "false"):
            self.advance()
            return BoolLit(tok.kind == "true")
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == ".":
                self.advance()
                variant = self.expect("ident")
                return EnumLit(tok.text, variant.text)
            if nxt.kind == "(":
                return self.parse_call(tok)
            if lookup(self.frames, tok.text):
                return LocalRef(tok.text)
            return FieldRef(tok.text)
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("number", "ident", "true", "false"),
        )


def parse(text: str, params: Sequence[str] = (), first_line: int = 1) -> CodeBlock:
    """Parse a block body; ``params`` are the names bound by the signature."""
    parser = _BlockParser(_tokenize(text, first_line), params)
    block = parser.parse_block(nested=False)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.text!r} after block", tok.line, tok.col)
    return block


# --------------------------------------------------------------------------
# Mechanic files: a signature header line followed by the block body.

_SIG_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"\((?P<params>[^)]*)\)\s*->\s*(?P<ret>[A-Za-z_][A-Za-z0-9_]*)\s*$"
)
_PARAM_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*(?P<type>[A-Za-z_][A-Za-z0-9_]*)\s*$"
)


def _parse_type_name(name: str, line: int, allow_void: bool) -> TypeId:
    if name == "int":
        return INT
    if name == "bool":
        return BOOL
    if name == "void":
        if allow_void:
            return VOID
        raise ParseError("void is not a value type", line, 1)
    return enum_type(name)


def parse_signature(text: str, line: int = 1) -> Signature:
    """Parse ``name(p1:t1, ...) -> ret``."""
    m = _SIG_RE.match(text)
    if m is None:
        raise ParseError(f"malformed signature {text.strip()!r}", line, 1)
    params: List[Tuple[str, TypeId]] = []
    raw = m.group("params").strip()
    if raw:
        for part in raw.split(","):
            pm = _PARAM_RE.match(part)
            if pm is None:
                raise ParseError(f"malformed parameter {part.strip()!r}", line, 1)
            pname, ptype = pm.group("name"), pm.group("type")
            if any(pname == seen for seen, _ in params):
                raise ParseError(f"signature repeats parameter name {pname!r}", line, 1)
            params.append((pname, _parse_type_name(ptype, line, allow_void=False)))
    ret = _parse_type_name(m.group("ret"), line, allow_void=True)
    return Signature(m.group("name"), tuple(params), ret)


def parse_mechanic(text: str) -> Tuple[Signature, CodeBlock]:
    """Load a mechanic file: ``signature: ...`` header, then the body."""
    lines = text.split("\n")
    header_index = None
    for idx, line in enumerate(lines):
        if line.strip() == "":
            continue
        header_index = idx
        break
    if header_index is None:
        raise ParseError("expected a 'signature:' header line", 1, 1)
    if not lines[header_index].lstrip().startswith("signature:"):
        raise ParseError("expected a 'signature:' header line", header_index + 1, 1)
    header = lines[header_index].lstrip()[len("signature:"):]
    sig = parse_signature(header, line=header_index + 1)
    body = "\n".join(lines[header_index + 1:])
    block = parse(body, params=[n for n, _ in sig.params], first_line=header_index + 2)
    return sig, block


def format_mechanic(sig: Signature, block: CodeBlock) -> str:
    return f"signature: {sig.format()}\n{pretty(block)}"
