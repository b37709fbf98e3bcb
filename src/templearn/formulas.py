"""Formula ASTs for linear-time and branching-time temporal logic.

The linear-time grammar is

    f ::= p | ! f | X f | F f | G f
        | f & f | f "|" f | f -> f | f <-> f
        | f U f | f R f | f W f | f M f

and the branching-time grammar keeps boolean structure but allows temporal
operators only directly under a path quantifier (E or A).  Propositions are
shared between the two logics, so a bare `Prop` is a valid formula of either.

Size is always measured as the number of *distinct* sub-formulas (the size of
the syntax DAG), not the number of nodes of the syntax tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Union

LTL, CTL = "ltl", "ctl"
LOGIC_NAMES = {LTL: "linear-time", CTL: "branching-time"}

NOT, NEXT, EVENTUALLY, ALWAYS = "!", "X", "F", "G"
AND, OR, IMPLIES, IFF = "&", "|", "->", "<->"
UNTIL, RELEASE, WEAK_UNTIL, STRONG_RELEASE = "U", "R", "W", "M"
EXISTS, FORALL = "E", "A"

UNARY_OPS = (NOT, NEXT, EVENTUALLY, ALWAYS)
LOGICAL_BINARY_OPS = (AND, OR, IMPLIES, IFF)
TEMPORAL_BINARY_OPS = (UNTIL, RELEASE, WEAK_UNTIL, STRONG_RELEASE)
BINARY_OPS = LOGICAL_BINARY_OPS + TEMPORAL_BINARY_OPS
TEMPORAL_UNARY_OPS = (NEXT, EVENTUALLY, ALWAYS)
TEMPORAL_OPS = frozenset(TEMPORAL_UNARY_OPS + TEMPORAL_BINARY_OPS)
QUANTIFIERS = (EXISTS, FORALL)

# The structural key of every operator row `(token, quantifier)`: the fixed
# operator order, then E before A on quantified rows.
_ROW_KEY = {(op, q): "1" + chr(65 + i) + ("" if q is None else str(j))
            for i, op in enumerate(UNARY_OPS + BINARY_OPS)
            for j, q in enumerate((None,) + QUANTIFIERS, -1)}

RESERVED_WORDS = frozenset(
    TEMPORAL_UNARY_OPS + TEMPORAL_BINARY_OPS + QUANTIFIERS
)

_PROP_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Spelled-out operator names accepted on the command line.
OP_NAMES = {
    "NOT": NOT, "X": NEXT, "F": EVENTUALLY, "G": ALWAYS,
    "AND": AND, "OR": OR, "IMPLIES": IMPLIES, "IFF": IFF,
    "U": UNTIL, "R": RELEASE, "W": WEAK_UNTIL, "M": STRONG_RELEASE,
    "E": EXISTS, "A": FORALL,
}


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@lru_cache(maxsize=1024)
def validate_proposition(name: str) -> str:
    """Check that `name` is a legal proposition and return it.  Accepted
    names are remembered; a rejected one raises afresh each time."""
    if not _PROP_RE.match(name):
        raise ValueError(f"illegal proposition name {name!r}")
    if name in RESERVED_WORDS:
        raise ValueError(f"proposition name {name!r} is a reserved word")
    return name


class Formula:
    """Base class of all formula nodes.  Nodes are immutable and hashable.

    Every node exposes `args`, its operand tuple, and `logic`, the logic
    of its class (None on a proposition, which belongs to both).
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({print_formula(self)!r})"


class Prop(Formula):
    __slots__ = ("name",)
    args = ()
    logic = None

    def __init__(self, name: str):
        self.name = validate_proposition(name)
        self._hash = hash(("p", name))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return type(other) is Prop and self.name == other.name

    __hash__ = Formula.__hash__


class _Operator(Formula):
    """An operator node: the row `(op, quantifier)` applied to `args`.

    `quantifier` is None except on the path-quantified nodes.
    """

    __slots__ = ("args",)
    quantifier = None

    def __eq__(self, other) -> bool:
        # Pairs of nodes are compared off a stack, so two deep equal trees
        # take no stack frame per level.
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if type(a) is Prop:
                if a.name != b.name:
                    return False
            elif a.op != b.op or a.quantifier != b.quantifier:
                return False
            pairs.extend(zip(a.args, b.args))
        return True

    __hash__ = Formula.__hash__


class LtlUnary(_Operator):
    __slots__ = ("op", "child")
    logic = LTL

    def __init__(self, op: str, child: "LtlFormula"):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.child = child
        self.args = (child,)
        self._hash = hash(("lu", op, child._hash))


class LtlBinary(_Operator):
    __slots__ = ("op", "left", "right")
    logic = LTL

    def __init__(self, op: str, left: "LtlFormula", right: "LtlFormula"):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.args = (left, right)
        self._hash = hash(("lb", op, left._hash, right._hash))


class CtlNot(_Operator):
    __slots__ = ("child",)
    logic = CTL
    op = NOT

    def __init__(self, child: "CtlFormula"):
        self.child = child
        self.args = (child,)
        self._hash = hash(("cn", child._hash))


class CtlBinary(_Operator):
    """Boolean connective between two state formulas."""

    __slots__ = ("op", "left", "right")
    logic = CTL

    def __init__(self, op: str, left: "CtlFormula", right: "CtlFormula"):
        if op not in LOGICAL_BINARY_OPS:
            raise ValueError(f"operator {op!r} needs a path quantifier here")
        self.op = op
        self.left = left
        self.right = right
        self.args = (left, right)
        self._hash = hash(("cb", op, left._hash, right._hash))


class CtlQuantUnary(_Operator):
    """A quantified unary path formula such as `E X f` or `A G f`."""

    __slots__ = ("quantifier", "op", "child")
    logic = CTL

    def __init__(self, quantifier: str, op: str, child: "CtlFormula"):
        if quantifier not in QUANTIFIERS:
            raise ValueError(f"unknown path quantifier {quantifier!r}")
        if op not in TEMPORAL_UNARY_OPS:
            raise ValueError(f"{op!r} is not a unary temporal operator")
        self.quantifier = quantifier
        self.op = op
        self.child = child
        self.args = (child,)
        self._hash = hash(("cqu", quantifier, op, child._hash))


class CtlQuantBinary(_Operator):
    """A quantified binary path formula such as `E (f U g)`."""

    __slots__ = ("quantifier", "op", "left", "right")
    logic = CTL

    def __init__(self, quantifier: str, op: str,
                 left: "CtlFormula", right: "CtlFormula"):
        if quantifier not in QUANTIFIERS:
            raise ValueError(f"unknown path quantifier {quantifier!r}")
        if op not in TEMPORAL_BINARY_OPS:
            raise ValueError(f"{op!r} is not a binary temporal operator")
        self.quantifier = quantifier
        self.op = op
        self.left = left
        self.right = right
        self.args = (left, right)
        self._hash = hash(("cqb", quantifier, op, left._hash, right._hash))


LtlFormula = Union[Prop, LtlUnary, LtlBinary]
CtlFormula = Union[Prop, CtlNot, CtlBinary, CtlQuantUnary, CtlQuantBinary]


def is_ltl(f: Formula) -> bool:
    """True when `f` is a formula with no branching-time node."""
    return isinstance(f, Formula) and all(g.logic != CTL
                                          for g in subformulas(f))


def is_ctl(f: Formula) -> bool:
    """True when `f` is a formula with no linear-time node."""
    return isinstance(f, Formula) and all(g.logic != LTL
                                          for g in subformulas(f))


@lru_cache(maxsize=None)
def node_builder(logic: str, token: str, quantifier: str | None = None):
    """The constructor of the operator row `(token, quantifier)` in `logic`,
    called with the row's operands."""
    if logic == LTL:
        return partial(LtlUnary if token in UNARY_OPS else LtlBinary, token)
    if quantifier is not None:
        return partial(CtlQuantUnary if token in UNARY_OPS else CtlQuantBinary,
                       quantifier, token)
    return CtlNot if token == NOT else partial(CtlBinary, token)


def subformulas(f: Formula) -> frozenset:
    """The sub-formula closure of `f`, as a set of distinct nodes.

    For a quantified temporal node the operands are its state-formula
    arguments; the path formula under the quantifier is not itself a member
    of the sub-formula closure.
    """
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            stack.extend(g.args)
    return frozenset(seen)


def size(f: Formula) -> int:
    """DAG size of `f`: the number of distinct sub-formulas."""
    return len(subformulas(f))


def prop_names(f: Formula) -> frozenset:
    """Names of the propositions occurring in `f`."""
    return frozenset(g.name for g in subformulas(f) if type(g) is Prop)


@dataclass(frozen=True)
class OperatorSet:
    """The operators a formula may use.

    `unary` and `binary` are sets of operator tokens; `quantifiers` restricts
    the path quantifiers available in branching-time formulas.  Propositions
    are always permitted.
    """

    unary: frozenset = frozenset(UNARY_OPS)
    binary: frozenset = frozenset(BINARY_OPS)
    quantifiers: frozenset = frozenset(QUANTIFIERS)

    def __post_init__(self):
        object.__setattr__(self, "unary", frozenset(self.unary))
        object.__setattr__(self, "binary", frozenset(self.binary))
        object.__setattr__(self, "quantifiers", frozenset(self.quantifiers))
        bad = (
            (self.unary - set(UNARY_OPS))
            | (self.binary - set(BINARY_OPS))
            | (self.quantifiers - set(QUANTIFIERS))
        )
        if bad:
            raise ValueError(f"unknown operators: {sorted(bad)}")

    @classmethod
    def full(cls) -> "OperatorSet":
        return cls()

    @classmethod
    def from_names(cls, names) -> "OperatorSet":
        """Build a set from operator tokens (`|`, `!`, `U`) or spelled-out
        names (`OR`, `NOT`, `E`).  Naming no quantifier allows both."""
        all_ops = set(UNARY_OPS) | set(BINARY_OPS) | set(QUANTIFIERS)
        unary, binary, quantifiers = set(), set(), set()
        for raw in names:
            name = raw.strip()
            if not name:
                continue
            if name in all_ops:
                op = name
            else:
                op = OP_NAMES.get(name.upper())
            if op is None:
                raise ValueError(f"unknown operator name {raw!r}")
            if op in UNARY_OPS:
                unary.add(op)
            elif op in BINARY_OPS:
                binary.add(op)
            else:
                quantifiers.add(op)
        return cls(unary, binary, quantifiers or QUANTIFIERS)


def conforms(f: Formula, operators: OperatorSet) -> bool:
    """True iff every operator used by `f` is allowed by `operators`."""
    for g in subformulas(f):
        if g.args:
            ops = operators.unary if len(g.args) == 1 else operators.binary
            if g.op not in ops or (g.quantifier is not None and g.quantifier
                                   not in operators.quantifiers):
                return False
    return True


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

# Binding strength, the one table that both the parser and the printer read:
# a binary operator's level, loosest 1, and the right-associative operators.
_ATOM_LEVEL = 7
_UNARY_LEVEL = 6
_BINARY_LEVEL = {
    IFF: 1, IMPLIES: 2, OR: 3, AND: 4,
    UNTIL: 5, RELEASE: 5, WEAK_UNTIL: 5, STRONG_RELEASE: 5,
}
_RIGHT_ASSOC = frozenset((IFF, IMPLIES, UNTIL, RELEASE, WEAK_UNTIL, STRONG_RELEASE))

# How deep a formula text may be.  Each pair of parentheses and each
# operator is one level.  The parser recurses into parentheses, prefix
# operators, quantified groups and right operands, at up to ten stack frames
# a level, so at most `MAX_NESTING` of these may nest.  The operators of a
# left-associative chain follow one another in a loop and nest no deeper,
# but they count toward `MAX_HEIGHT`, which bounds every root-to-leaf path:
# each later pass over a parsed formula recurses once per level of it.  Both
# limits keep every command within Python's default stack, under pytest too.
MAX_NESTING = 64
MAX_HEIGHT = 800

_TOKEN_RE = re.compile(r"->|<->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    tokens.append(("", n))  # end marker
    return tokens


class _Parser:
    """Precedence climbing over `_BINARY_LEVEL` for both logics.

    A subclass names its `logic` and its `top_level`, the tightest level of
    a binary connective; above it `unary` reads the prefix operators and
    atoms.  The reading methods return a formula and its height in levels.
    `depth` is the number of levels nested around the current token, at
    most `MAX_NESTING`, and every part read keeps `depth + height` within
    `MAX_HEIGHT`.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.index][0]

    def pos(self) -> int:
        return self.tokens[self.index][1]

    def advance(self) -> str:
        tok = self.tokens[self.index][0]
        self.index += 1
        return tok

    def expect(self, tok: str):
        if self.peek() != tok:
            raise FormulaSyntaxError(
                f"expected {tok!r} but found {self.peek() or 'end of input'!r}",
                self.pos(),
            )
        self.advance()

    def fail(self, message: str):
        raise FormulaSyntaxError(message, self.pos())

    def nested(self, height: int, read, *args):
        """Open a level at the current token, over a part `height` levels
        high already, and `read(*args)` the rest one level deeper; returns
        what `read` built and the level's height.  A level past either limit
        fails at its token."""
        if self.depth >= MAX_NESTING:
            self.fail(f"formula nests deeper than {MAX_NESTING} levels")
        if self.depth + height >= MAX_HEIGHT:
            self.fail(f"formula is more than {MAX_HEIGHT} levels deep")
        self.advance()
        self.depth += 1
        f, h = read(*args)
        self.depth -= 1
        return f, max(h, height) + 1

    def parse(self):
        f, _ = self.binary()
        tok = self.peek()
        if tok:
            if tok in TEMPORAL_BINARY_OPS:
                self.fail(f"temporal operator {tok!r} requires a path "
                          f"quantifier")
            self.fail(f"unexpected token {tok!r}")
        return f

    def binary(self, level: int = 1):
        """The operators of `level` and tighter between unary operands."""
        if level > self.top_level:
            return self.unary()
        part = self.binary(level + 1)
        while _BINARY_LEVEL.get(self.peek()) == level:
            f, h = part
            op = self.peek()
            right, h = self.nested(h, self.binary, level if op in _RIGHT_ASSOC
                                   else level + 1)
            part = node_builder(self.logic, op)(f, right), h
        return part

    def group(self):
        part = self.binary()
        self.expect(")")
        return part

    def atom(self):
        tok = self.peek()
        if tok == "(":
            return self.nested(0, self.group)
        if tok == "":
            self.fail("unexpected end of input")
        if tok in RESERVED_WORDS or not _PROP_RE.match(tok):
            self.fail(f"unexpected token {tok!r}")
        self.advance()
        return Prop(tok), 0


class _LtlParser(_Parser):
    logic = LTL
    top_level = max(_BINARY_LEVEL.values())

    def unary(self):
        tok = self.peek()
        if tok in UNARY_OPS:
            child, h = self.nested(0, self.unary)
            return LtlUnary(tok, child), h
        if tok in QUANTIFIERS:
            self.fail(f"path quantifier {tok!r} is not part of this logic")
        return self.atom()


class _CtlParser(_Parser):
    # Binary temporal operators are not connectives here; they appear only
    # as the separator inside a quantified group, read by `quantified`.
    logic = CTL
    top_level = max(_BINARY_LEVEL[op] for op in LOGICAL_BINARY_OPS)

    def unary(self):
        tok = self.peek()
        if tok == NOT:
            child, h = self.nested(0, self.unary)
            return CtlNot(child), h
        if tok in QUANTIFIERS:
            return self.nested(0, self.quantified, tok)
        if tok in TEMPORAL_UNARY_OPS or tok in TEMPORAL_BINARY_OPS:
            self.fail(f"temporal operator {tok!r} requires a path quantifier")
        return self.atom()

    def quantified(self, quantifier):
        # The rest of a quantified group, one level with its parentheses.
        tok = self.peek()
        if tok in TEMPORAL_UNARY_OPS:
            self.advance()
            child, h = self.unary()
            return CtlQuantUnary(quantifier, tok, child), h
        if tok == "(":
            self.advance()
            left, hl = self.binary()
            op = self.peek()
            if op not in TEMPORAL_BINARY_OPS:
                self.fail("expected a binary temporal operator")
            self.advance()
            right, hr = self.binary()
            self.expect(")")
            return CtlQuantBinary(quantifier, op, left, right), max(hl, hr)
        self.fail(f"expected a temporal operator after {quantifier!r}")


def parse_ltl(text: str) -> LtlFormula:
    """Parse the linear-time formula in `text`."""
    return _LtlParser(text).parse()


def parse_ctl(text: str) -> CtlFormula:
    """Parse the branching-time formula in `text`."""
    return _CtlParser(text).parse()


def _fmt(f: Formula) -> tuple:
    if type(f) is Prop:
        return f.name, _ATOM_LEVEL
    op, quantifier = f.op, f.quantifier
    if len(f.args) == 1:
        text, level = _fmt(f.child)
        if level < _UNARY_LEVEL:
            text = f"({text})"
        if quantifier is not None:
            return f"{quantifier} {op} {text}", _UNARY_LEVEL
        return (f"!{text}" if op == NOT else f"{op} {text}"), _UNARY_LEVEL
    (lt, ll), (rt, rl) = _fmt(f.left), _fmt(f.right)
    if quantifier is not None:
        return f"{quantifier} ({lt} {op} {rt})", _ATOM_LEVEL
    level = _BINARY_LEVEL[op]
    if ll < level or (ll == level and op in _RIGHT_ASSOC):
        lt = f"({lt})"
    if rl < level or (rl == level and op not in _RIGHT_ASSOC):
        rt = f"({rt})"
    return f"{lt} {op} {rt}", level


def print_formula(f: Formula) -> str:
    """Render `f` with the minimal parenthesisation that re-parses to `f`."""
    return _fmt(f)[0]


def structural_key(f: Formula) -> str:
    """A total-order key on formulas.

    Propositions order by name and come before compound nodes; compound nodes
    order by operator (prefix operators, then boolean connectives, then
    binary temporal operators, with E before A on quantified nodes) and then
    by their children, left to right.  Distinct formulas get distinct keys.
    """
    parts = []

    def emit(g):
        if type(g) is Prop:
            parts.append("0" + g.name + ";")
        else:
            parts.append(_ROW_KEY[g.op, g.quantifier])
            for a in g.args:
                emit(a)

    emit(f)
    return "".join(parts)
