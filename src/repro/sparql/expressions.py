"""FILTER / ORDER BY expression AST and its term-level semantics.

The expression fragment covers what realistic SPARQL-UO workloads use on
top of the paper's bag fragment: comparisons (``= != < > <= >=``),
logical connectives (``&& || !``), arithmetic on numeric literals
(``+ - * /``), ``BOUND(?v)`` and ``REGEX(str, pattern[, flags])``.

Evaluation follows SPARQL 1.1's error semantics:

- referencing an unbound variable raises :class:`ExprError`;
- type errors (comparing a number with an IRI, arithmetic on
  non-numbers, division by zero) raise :class:`ExprError`;
- ``&&`` / ``||`` are three-valued: an error operand is absorbed when
  the other operand already decides the result (``err || true → true``,
  ``err && false → false``);
- a FILTER whose expression errors *drops* the row (see
  :func:`filter_passes`).

Values during evaluation are plain Python objects: ``bool``, ``int`` /
``float`` (numeric literals), ``str`` (string literals without language
tag), or a :class:`~repro.rdf.terms.Term` for everything else.  The
conversion is :func:`term_value`; it is shared by the engines and the
test oracle (``tests/oracle.py``), so both agree on the semantics by
construction.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, Optional as Opt, Tuple

from ..rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    RDF_LANG_STRING,
    Term,
    Variable,
    XSD_STRING,
)
from .bags import UNBOUND

__all__ = [
    "ExprError",
    "Expression",
    "VariableRef",
    "ConstantTerm",
    "LogicalAnd",
    "LogicalOr",
    "LogicalNot",
    "Comparison",
    "Arithmetic",
    "UnaryMinus",
    "BoundCall",
    "RegexCall",
    "expression_variables",
    "term_value",
    "evaluate_expression",
    "effective_boolean_value",
    "filter_passes",
    "order_sort_key",
    "format_expression",
]

#: Numeric XSD datatypes whose literals evaluate to Python numbers.
NUMERIC_DATATYPES = frozenset(
    "http://www.w3.org/2001/XMLSchema#" + local
    for local in (
        "integer",
        "decimal",
        "double",
        "float",
        "int",
        "long",
        "short",
        "byte",
        "nonNegativeInteger",
        "positiveInteger",
    )
)

XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"


class ExprError(Exception):
    """SPARQL expression evaluation error (unbound variable, type error)."""


class Expression:
    """Base class for FILTER / ORDER BY expressions."""

    __slots__ = ()

    def variables(self) -> FrozenSet[str]:
        return expression_variables(self)


class VariableRef(Expression):
    """A variable reference ``?v``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if isinstance(name, Variable):
            name = name.name
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("var", self.name))

    def __repr__(self) -> str:
        return f"VariableRef({self.name!r})"


class ConstantTerm(Expression):
    """A ground RDF term used as a constant."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term

    def __eq__(self, other) -> bool:
        return isinstance(other, ConstantTerm) and other.term == self.term

    def __hash__(self) -> int:
        return hash(("const", self.term))

    def __repr__(self) -> str:
        return f"ConstantTerm({self.term!r})"


class _Binary(Expression):
    __slots__ = ("left", "right")
    _tag = "?"

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash((self._tag, self.left, self.right))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class LogicalAnd(_Binary):
    """``e1 && e2`` with SPARQL's three-valued error handling."""

    _tag = "&&"


class LogicalOr(_Binary):
    """``e1 || e2`` with SPARQL's three-valued error handling."""

    _tag = "||"


class LogicalNot(Expression):
    """``!e`` — negation of the effective boolean value."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand

    def __eq__(self, other) -> bool:
        return isinstance(other, LogicalNot) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("!", self.operand))

    def __repr__(self) -> str:
        return f"LogicalNot({self.operand!r})"


class Comparison(_Binary):
    """``e1 op e2`` for op in ``= != < > <= >=``."""

    __slots__ = ("op",)
    OPS = frozenset({"=", "!=", "<", ">", "<=", ">="})

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        super().__init__(left, right)
        self.op = op

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Comparison)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash((self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"Comparison({self.op!r}, {self.left!r}, {self.right!r})"


class Arithmetic(_Binary):
    """``e1 op e2`` for op in ``+ - * /`` over numeric operands."""

    __slots__ = ("op",)
    OPS = frozenset({"+", "-", "*", "/"})

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        super().__init__(left, right)
        self.op = op

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Arithmetic)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("arith", self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"Arithmetic({self.op!r}, {self.left!r}, {self.right!r})"


class UnaryMinus(Expression):
    """``-e`` over a numeric operand."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand

    def __eq__(self, other) -> bool:
        return isinstance(other, UnaryMinus) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("neg", self.operand))

    def __repr__(self) -> str:
        return f"UnaryMinus({self.operand!r})"


class BoundCall(Expression):
    """``BOUND(?v)`` — never errors; the one way to test unboundness."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if isinstance(name, Variable):
            name = name.name
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundCall) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("bound", self.name))

    def __repr__(self) -> str:
        return f"BoundCall({self.name!r})"


class RegexCall(Expression):
    """``REGEX(text, pattern[, flags])`` via Python's :mod:`re`."""

    __slots__ = ("text", "pattern", "flags")

    def __init__(self, text: Expression, pattern: Expression, flags: Opt[Expression] = None):
        self.text = text
        self.pattern = pattern
        self.flags = flags

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RegexCall)
            and other.text == self.text
            and other.pattern == self.pattern
            and other.flags == self.flags
        )

    def __hash__(self) -> int:
        return hash(("regex", self.text, self.pattern, self.flags))

    def __repr__(self) -> str:
        return f"RegexCall({self.text!r}, {self.pattern!r}, {self.flags!r})"


# ----------------------------------------------------------------------
# static analysis
# ----------------------------------------------------------------------
def expression_variables(expr: Expression) -> FrozenSet[str]:
    """All variable names mentioned anywhere in the expression."""
    if isinstance(expr, VariableRef):
        return frozenset((expr.name,))
    if isinstance(expr, BoundCall):
        return frozenset((expr.name,))
    if isinstance(expr, ConstantTerm):
        return frozenset()
    if isinstance(expr, (LogicalAnd, LogicalOr, Comparison, Arithmetic)):
        return expression_variables(expr.left) | expression_variables(expr.right)
    if isinstance(expr, (LogicalNot, UnaryMinus)):
        return expression_variables(expr.operand)
    if isinstance(expr, RegexCall):
        out = expression_variables(expr.text) | expression_variables(expr.pattern)
        if expr.flags is not None:
            out |= expression_variables(expr.flags)
        return out
    raise TypeError(f"not an expression: {expr!r}")


# ----------------------------------------------------------------------
# value conversion and evaluation
# ----------------------------------------------------------------------
def term_value(term):
    """Convert a ground term to its evaluation value.

    Numeric literals become ``int``/``float``, ``xsd:boolean`` literals
    become ``bool``, plain / ``xsd:string`` literals become ``str``;
    anything else (IRIs, blank nodes, language-tagged or other typed
    literals) stays the term itself.  A numeric literal whose lexical
    form does not parse raises :class:`ExprError`.
    """
    if isinstance(term, Literal):
        datatype = term.datatype
        if datatype in NUMERIC_DATATYPES:
            try:
                if "." in term.lexical or "e" in term.lexical or "E" in term.lexical:
                    return float(term.lexical)
                return int(term.lexical)
            except ValueError:
                raise ExprError(f"ill-formed numeric literal {term.lexical!r}") from None
        if datatype == XSD_BOOLEAN:
            if term.lexical in ("true", "1"):
                return True
            if term.lexical in ("false", "0"):
                return False
            raise ExprError(f"ill-formed boolean literal {term.lexical!r}")
        if datatype == XSD_STRING and term.language is None:
            return term.lexical
        return term
    return term


def _is_number(value) -> bool:
    # bool is an int subclass but is *not* a SPARQL number.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def effective_boolean_value(value) -> bool:
    """SPARQL's EBV: booleans as-is, numbers ≠ 0, strings non-empty.

    Language-tagged literals count as strings (their lexical form);
    IRIs, blank nodes and other typed literals raise :class:`ExprError`.
    """
    if isinstance(value, bool):
        return value
    if _is_number(value):
        return value == value and value != 0  # NaN → False
    if isinstance(value, str):
        return len(value) > 0
    if isinstance(value, Literal) and value.datatype == RDF_LANG_STRING:
        return len(value.lexical) > 0
    raise ExprError(f"no effective boolean value for {value!r}")


def _string_value(value) -> str:
    """The string a REGEX operand denotes; errors on everything else
    (numbers, booleans, IRIs, blank nodes)."""
    if isinstance(value, str):
        return value
    if isinstance(value, Literal):
        return value.lexical
    raise ExprError(f"REGEX requires a string, got {value!r}")


_REGEX_FLAGS = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE, "x": re.VERBOSE}


def evaluate_expression(expr: Expression, binding: Dict[str, Term]):
    """Evaluate against a mapping of variable name → ground term.

    Returns a Python value (see :func:`term_value`); raises
    :class:`ExprError` on unbound variables and type errors.
    """
    if isinstance(expr, VariableRef):
        term = binding.get(expr.name)
        if term is None:
            raise ExprError(f"unbound variable ?{expr.name}")
        return term_value(term)
    if isinstance(expr, ConstantTerm):
        return term_value(expr.term)
    if isinstance(expr, BoundCall):
        return expr.name in binding
    if isinstance(expr, LogicalAnd):
        return _logical(expr, binding, is_and=True)
    if isinstance(expr, LogicalOr):
        return _logical(expr, binding, is_and=False)
    if isinstance(expr, LogicalNot):
        return not effective_boolean_value(evaluate_expression(expr.operand, binding))
    if isinstance(expr, Comparison):
        return _compare(
            expr.op,
            evaluate_expression(expr.left, binding),
            evaluate_expression(expr.right, binding),
        )
    if isinstance(expr, Arithmetic):
        return _arithmetic(
            expr.op,
            evaluate_expression(expr.left, binding),
            evaluate_expression(expr.right, binding),
        )
    if isinstance(expr, UnaryMinus):
        value = evaluate_expression(expr.operand, binding)
        if not _is_number(value):
            raise ExprError(f"cannot negate {value!r}")
        return -value
    if isinstance(expr, RegexCall):
        text = _string_value(evaluate_expression(expr.text, binding))
        pattern = _string_value(evaluate_expression(expr.pattern, binding))
        flags = 0
        if expr.flags is not None:
            for ch in _string_value(evaluate_expression(expr.flags, binding)):
                flag = _REGEX_FLAGS.get(ch)
                if flag is None:
                    raise ExprError(f"unsupported REGEX flag {ch!r}")
                flags |= flag
        try:
            return re.search(pattern, text, flags) is not None
        except re.error as exc:
            raise ExprError(f"invalid REGEX pattern: {exc}") from None
    raise TypeError(f"not an expression: {expr!r}")


def _logical(expr: _Binary, binding: Dict[str, Term], is_and: bool) -> bool:
    """Three-valued && / ||: an error absorbs only when the other operand
    decides the result on its own."""
    left_error: Opt[ExprError] = None
    try:
        left = effective_boolean_value(evaluate_expression(expr.left, binding))
    except ExprError as exc:
        left_error = exc
    else:
        if is_and and not left:
            return False
        if not is_and and left:
            return True
    right = effective_boolean_value(evaluate_expression(expr.right, binding))
    if left_error is not None:
        # err && false → false; err || true → true; otherwise the error
        # propagates.
        if is_and and not right:
            return False
        if not is_and and right:
            return True
        raise left_error
    return right


def _compare(op: str, left, right) -> bool:
    equal_ops = op in ("=", "!=")
    if _is_number(left) and _is_number(right):
        pass  # numeric comparison
    elif isinstance(left, str) and isinstance(right, str):
        pass  # codepoint string comparison
    elif isinstance(left, bool) and isinstance(right, bool):
        left, right = int(left), int(right)
    elif equal_ops:
        # Term-level (in)equality is total: any two RDF terms either are
        # or are not the same term.
        result = _generic_equal(left, right)
        return result if op == "=" else not result
    else:
        raise ExprError(f"cannot order {left!r} against {right!r}")
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    return left >= right


def _generic_equal(left, right) -> bool:
    # A plain-string value and an xsd:string literal denote the same
    # term; normalize before comparing across representations.
    if isinstance(left, Literal) and left.datatype == XSD_STRING and left.language is None:
        left = left.lexical
    if isinstance(right, Literal) and right.datatype == XSD_STRING and right.language is None:
        right = right.lexical
    if type(left) is not type(right) and not (_is_number(left) and _is_number(right)):
        return False
    return left == right


def _arithmetic(op: str, left, right):
    if not (_is_number(left) and _is_number(right)):
        raise ExprError(f"arithmetic on non-numbers: {left!r} {op} {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise ExprError("division by zero")
    return left / right


def filter_passes(expr: Expression, binding: Dict[str, Term]) -> bool:
    """FILTER semantics: keep the row iff the EBV is true; errors drop it."""
    try:
        return effective_boolean_value(evaluate_expression(expr, binding))
    except ExprError:
        return False


# ----------------------------------------------------------------------
# ORDER BY keys
# ----------------------------------------------------------------------
# Kind ranks: unbound/error < blank node < IRI < literal, per SPARQL's
# ordering of unbound solutions and RDF terms.
_RANK_UNBOUND = 0
_RANK_ERROR = 1
_RANK_BLANK = 2
_RANK_IRI = 3
_RANK_NUMBER = 4
_RANK_LITERAL = 5


def order_sort_key(value) -> Tuple:
    """Total, deterministic sort key for an ORDER BY key value.

    ``value`` is an evaluation value (:func:`term_value` range), the
    :data:`~repro.sparql.bags.UNBOUND` sentinel / None for an unbound
    key, or an :class:`ExprError` captured during key evaluation.
    Unbound sorts first, then errors, then blank nodes, IRIs, numbers
    (by value) and remaining literals (by lexical form, datatype,
    language) — the same ranking in every component, so the oracle and
    the optimized pipeline sort identically.
    """
    if value is None or value is UNBOUND:
        return (_RANK_UNBOUND,)
    if isinstance(value, ExprError):
        return (_RANK_ERROR,)
    if isinstance(value, bool):
        return (_RANK_LITERAL, "false" if not value else "true", XSD_BOOLEAN, "")
    if _is_number(value):
        return (_RANK_NUMBER, float(value))
    if isinstance(value, str):
        return (_RANK_LITERAL, value, XSD_STRING, "")
    if isinstance(value, BlankNode):
        return (_RANK_BLANK, value.label)
    if isinstance(value, IRI):
        return (_RANK_IRI, value.value)
    if isinstance(value, Literal):
        converted = None
        try:
            converted = term_value(value)
        except ExprError:
            pass
        if _is_number(converted):
            return (_RANK_NUMBER, float(converted))
        return (_RANK_LITERAL, value.lexical, value.datatype, value.language or "")
    return (_RANK_ERROR,)


def order_key_for_binding(expr: Expression, binding: Dict[str, Term]) -> Tuple:
    """Evaluate one ORDER BY key expression into its sort key."""
    try:
        return order_sort_key(evaluate_expression(expr, binding))
    except ExprError as exc:
        return order_sort_key(exc)


__all__.append("order_key_for_binding")


# ----------------------------------------------------------------------
# rendering (EXPLAIN / debugging)
# ----------------------------------------------------------------------
def format_expression(expr: Expression) -> str:
    """Render back to SPARQL surface syntax (fully parenthesized)."""
    if isinstance(expr, VariableRef):
        return f"?{expr.name}"
    if isinstance(expr, ConstantTerm):
        return expr.term.n3()
    if isinstance(expr, BoundCall):
        return f"BOUND(?{expr.name})"
    if isinstance(expr, LogicalAnd):
        return f"({format_expression(expr.left)} && {format_expression(expr.right)})"
    if isinstance(expr, LogicalOr):
        return f"({format_expression(expr.left)} || {format_expression(expr.right)})"
    if isinstance(expr, LogicalNot):
        return f"(! {format_expression(expr.operand)})"
    if isinstance(expr, Comparison):
        return f"({format_expression(expr.left)} {expr.op} {format_expression(expr.right)})"
    if isinstance(expr, Arithmetic):
        return f"({format_expression(expr.left)} {expr.op} {format_expression(expr.right)})"
    if isinstance(expr, UnaryMinus):
        return f"(- {format_expression(expr.operand)})"
    if isinstance(expr, RegexCall):
        parts = [format_expression(expr.text), format_expression(expr.pattern)]
        if expr.flags is not None:
            parts.append(format_expression(expr.flags))
        return f"REGEX({', '.join(parts)})"
    raise TypeError(f"not an expression: {expr!r}")
