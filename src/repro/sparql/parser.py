"""Recursive-descent parser for the supported SPARQL fragment.

Grammar (SELECT-only; the paper's bag fragment extended with FILTER and
solution modifiers):

.. code-block:: text

    Query          := Prologue SELECT ('DISTINCT'|'REDUCED')? Projection?
                      WHERE? Group ('GROUP' 'BY' Var+)? Modifiers
    Prologue       := (PREFIX pname: <iri>)*
    Projection     := '*' | (Var | AggItem)+     (absent ⇒ select-all)
    AggItem        := '(' Func '(' 'DISTINCT'? ('*'|Var) ')' AS Var ')'
    Func           := 'COUNT' | 'SUM' | 'MIN' | 'MAX' | 'AVG'
    Group          := '{' Element* '}'
    Element        := Triple '.'?                (triple pattern)
                    | Group UnionTail?           (group / UNION chain)
                    | OPTIONAL Group             (OPTIONAL expression)
                    | FILTER Constraint          (group-scoped filter)
    UnionTail      := (UNION Group)+
    Modifiers      := ('ORDER' 'BY' OrderCond+)? ( LIMIT n | OFFSET n )*
    OrderCond      := Var | '(' Expr ')' | ('ASC'|'DESC') '(' Expr ')'
    Constraint     := '(' Expr ')' | BuiltIn
    BuiltIn        := 'BOUND' '(' Var ')'
                    | 'REGEX' '(' Expr ',' Expr (',' Expr)? ')'
    Expr           := Or; Or := And ('||' And)*; And := Rel ('&&' Rel)*
    Rel            := Add (('='|'!='|'<'|'>'|'<='|'>=') Add)?
    Add            := Mul (('+'|'-') Mul)*; Mul := Unary (('*'|'/') Unary)*
    Unary          := ('!'|'-'|'+') Unary | Primary
    Primary        := '(' Expr ')' | BuiltIn | Var | literal | iri | bool
    Triple         := Term Verb Term
    Verb           := iri | pname | 'a' | Var
    Term           := iri | pname | Var | literal | blank | bool

Anything outside the fragment (ASK, CONSTRUCT, property paths, …)
raises
:class:`~repro.sparql.errors.UnsupportedFeatureError` with a pointer at
the offending token.
"""

from __future__ import annotations

from typing import Dict, List, Optional as Opt

from ..rdf.namespaces import RDF, WELL_KNOWN_PREFIXES
from ..rdf.terms import BlankNode, IRI, Literal, Variable
from ..rdf.triple import TriplePattern
from .algebra import (
    Aggregate,
    DeleteData,
    FilterExpression,
    GroupGraphPattern,
    InsertData,
    ModifyUpdate,
    OptionalExpression,
    OrderCondition,
    SelectQuery,
    UnionExpression,
    UpdateOperation,
    UpdateRequest,
)
from .errors import SparqlSyntaxError, UnsupportedFeatureError
from .expressions import (
    Arithmetic,
    BoundCall,
    Comparison,
    ConstantTerm,
    Expression,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    RegexCall,
    UnaryMinus,
    VariableRef,
)
from .tokenizer import Token, iter_tokens

__all__ = ["is_update_request", "parse_query", "parse_group", "parse_update"]

_UNSUPPORTED_KEYWORDS = frozenset({"ASK", "CONSTRUCT", "DESCRIBE"})

#: SPARQL 1.1 UPDATE forms outside the supported fragment.
_UNSUPPORTED_UPDATE_KEYWORDS = frozenset({"WITH", "USING", "GRAPH", "LOAD", "CLEAR"})

_RDF_TYPE = RDF.term("type")

_XSD = "http://www.w3.org/2001/XMLSchema#"
_XSD_BOOLEAN = _XSD + "boolean"


class _Parser:
    def __init__(self, text: str, prefixes: Opt[Dict[str, str]] = None):
        # One current token, the next pulled from the lazy stream only
        # when it is consumed: a text is lexed only as far as it parses.
        self._tokens = iter_tokens(text)
        self._token = next(self._tokens)
        # Benchmark query texts (Appendix A) assume Listing 1/14's
        # prefixes; pre-loading them keeps those texts verbatim.
        self.prefixes: Dict[str, str] = dict(WELL_KNOWN_PREFIXES)
        if prefixes:
            self.prefixes.update(prefixes)

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def peek(self) -> Token:
        return self._token

    def advance(self) -> Token:
        token = self._token
        if token.kind != "EOF":
            self._token = next(self._tokens)
        return token

    def error(self, message: str, token: Opt[Token] = None) -> SparqlSyntaxError:
        token = token or self.peek()
        return SparqlSyntaxError(message, token.line, token.column)

    def expect_punct(self, char: str) -> Token:
        token = self.peek()
        if token.kind != "PUNCT" or token.value != char:
            raise self.error(f"expected {char!r}, found {token.value!r}")
        return self.advance()

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token.kind == "PUNCT" and token.value == char

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "KEYWORD" and token.value == word

    def check_unsupported(self) -> None:
        token = self.peek()
        if token.kind == "KEYWORD" and token.value in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeatureError(
                f"{token.value} is outside the paper's SPARQL-UO fragment "
                f"(line {token.line})"
            )

    # ------------------------------------------------------------------
    # grammar productions
    # ------------------------------------------------------------------
    def parse_query(self) -> SelectQuery:
        self._parse_prologue()
        self.check_unsupported()
        if not self.at_keyword("SELECT"):
            raise self.error("expected SELECT")
        self.advance()
        distinct = reduced = False
        if self.at_keyword("DISTINCT"):
            self.advance()
            distinct = True
        elif self.at_keyword("REDUCED"):
            self.advance()
            reduced = True
        variables = self._parse_projection()
        if self.at_keyword("WHERE"):
            self.advance()
        group = self.parse_group()
        group_by = self._parse_group_by()
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        token = self.peek()
        if token.kind != "EOF":
            self.check_unsupported()
            raise self.error(f"trailing content after query: {token.value!r}")
        try:
            return SelectQuery(
                variables,
                group,
                self.prefixes,
                distinct=distinct,
                reduced=reduced,
                order_by=order_by,
                limit=limit,
                offset=offset,
                group_by=group_by,
            )
        except ValueError as exc:
            # Projection/grouping consistency errors (non-key variable
            # projected, SELECT * with GROUP BY, duplicate aliases) are
            # syntax-level errors to the caller.
            raise self.error(str(exc)) from None

    def parse_update(self) -> UpdateRequest:
        """``Prologue Operation (';' Prologue? Operation)* ';'?``.

        Operations: ``INSERT DATA {…}``, ``DELETE DATA {…}``,
        ``DELETE WHERE {…}`` and ``DELETE {…}? INSERT {…}? WHERE {…}``
        (at least one template).  Graph-targeted forms (WITH / USING /
        GRAPH / LOAD / CLEAR) are outside the single-graph fragment and
        raise :class:`UnsupportedFeatureError`.
        """
        operations: List[UpdateOperation] = []
        self._parse_prologue()
        while True:
            if self.peek().kind == "EOF":
                if operations:
                    break  # trailing ';'
                raise self.error("empty UPDATE request")
            operations.append(self._parse_update_operation())
            if self.at_punct(";"):
                self.advance()
                self._parse_prologue()  # the prologue may repeat between operations
                continue
            break
        token = self.peek()
        if token.kind != "EOF":
            self.check_unsupported()
            raise self.error(f"trailing content after update: {token.value!r}")
        return UpdateRequest(operations, self.prefixes)

    def _check_unsupported_update_keyword(self) -> None:
        token = self.peek()
        if token.kind == "KEYWORD" and token.value in _UNSUPPORTED_UPDATE_KEYWORDS:
            raise UnsupportedFeatureError(
                f"{token.value} update forms are not supported "
                f"(single-graph stores only; line {token.line})"
            )

    def _parse_update_operation(self) -> UpdateOperation:
        self._check_unsupported_update_keyword()
        if self.at_keyword("INSERT"):
            self.advance()
            if self.at_keyword("DATA"):
                self.advance()
                return self._ground_data(InsertData, "INSERT DATA")
            insert_template = self._parse_triples_block()
            if not self.at_keyword("WHERE"):
                self._check_unsupported_update_keyword()
                raise self.error("expected WHERE after INSERT template")
            self.advance()
            return ModifyUpdate((), insert_template, self.parse_group())
        if self.at_keyword("DELETE"):
            self.advance()
            if self.at_keyword("DATA"):
                self.advance()
                return self._ground_data(DeleteData, "DELETE DATA")
            if self.at_keyword("WHERE"):
                # DELETE WHERE {…}: the pattern doubles as the template.
                self.advance()
                where = self.parse_group()
                template = []
                for element in where.elements:
                    if not isinstance(element, TriplePattern):
                        raise UnsupportedFeatureError(
                            "DELETE WHERE supports only basic graph patterns"
                        )
                    template.append(element)
                if not template:
                    raise self.error("DELETE WHERE requires at least one triple pattern")
                return ModifyUpdate(template, (), where)
            delete_template = self._parse_triples_block()
            insert_template: List[TriplePattern] = []
            if self.at_keyword("INSERT"):
                self.advance()
                insert_template = self._parse_triples_block()
            if not self.at_keyword("WHERE"):
                self._check_unsupported_update_keyword()
                raise self.error("expected WHERE after update template")
            self.advance()
            return ModifyUpdate(delete_template, insert_template, self.parse_group())
        self.check_unsupported()
        raise self.error(
            f"expected an update operation (INSERT/DELETE), "
            f"found {self.peek().value!r}"
        )

    def _ground_data(self, cls, label: str):
        triples = self._parse_triples_block()
        try:
            return cls(triples)
        except ValueError as exc:
            raise self.error(f"{label}: {exc}") from exc

    def _parse_triples_block(self) -> List[TriplePattern]:
        """``'{' (Triple '.'?)* '}'`` — triples only (no patterns)."""
        self.expect_punct("{")
        triples: List[TriplePattern] = []
        while not self.at_punct("}"):
            token = self.peek()
            if token.kind == "EOF":
                raise self.error("unterminated block: missing '}'")
            if token.kind == "PUNCT" and token.value == ".":
                self.advance()
                continue
            if token.kind == "KEYWORD" and token.value == "GRAPH":
                raise UnsupportedFeatureError(
                    "GRAPH blocks in updates are not supported"
                )
            triples.append(self._parse_triple())
            if self.at_punct("."):
                self.advance()
        self.expect_punct("}")
        return triples

    def _parse_order_by(self) -> List[OrderCondition]:
        if not self.at_keyword("ORDER"):
            return []
        self.advance()
        if not self.at_keyword("BY"):
            raise self.error("expected BY after ORDER")
        self.advance()
        conditions: List[OrderCondition] = []
        while True:
            token = self.peek()
            if token.kind == "VAR":
                self.advance()
                conditions.append(OrderCondition(VariableRef(token.value), True))
            elif token.kind == "KEYWORD" and token.value in ("ASC", "DESC"):
                self.advance()
                self.expect_punct("(")
                expression = self._parse_expression()
                self.expect_punct(")")
                conditions.append(OrderCondition(expression, token.value == "ASC"))
            elif self.at_punct("("):
                self.advance()
                expression = self._parse_expression()
                self.expect_punct(")")
                conditions.append(OrderCondition(expression, True))
            else:
                break
        if not conditions:
            raise self.error("ORDER BY requires at least one sort condition")
        return conditions

    def _parse_limit_offset(self):
        limit: Opt[int] = None
        offset = 0
        seen = set()
        while True:
            if self.at_keyword("LIMIT") and "limit" not in seen:
                seen.add("limit")
                self.advance()
                limit = self._parse_nonnegative_int("LIMIT")
            elif self.at_keyword("OFFSET") and "offset" not in seen:
                seen.add("offset")
                self.advance()
                offset = self._parse_nonnegative_int("OFFSET")
            else:
                return limit, offset

    def _parse_nonnegative_int(self, clause: str) -> int:
        token = self.peek()
        if token.kind != "INTEGER" or token.value.startswith("-"):
            raise self.error(f"{clause} requires a non-negative integer")
        self.advance()
        return int(token.value)

    def _parse_prologue(self) -> None:
        while self.at_keyword("PREFIX") or self.at_keyword("BASE"):
            keyword = self.advance()
            if keyword.value == "BASE":
                raise UnsupportedFeatureError("BASE declarations are not supported")
            name_token = self.peek()
            if name_token.kind != "PNAME" or not name_token.value.endswith(":"):
                raise self.error("expected 'prefix:' after PREFIX")
            self.advance()
            iri_token = self.peek()
            if iri_token.kind != "IRI":
                raise self.error("expected <iri> in PREFIX declaration")
            self.advance()
            prefix = name_token.value[:-1]
            self.prefixes[prefix] = iri_token.value

    def _parse_projection(self) -> "Opt[List]":
        if self.at_punct("*"):
            self.advance()
            return None
        variables: List = []
        while True:
            token = self.peek()
            if token.kind == "VAR":
                variables.append(Variable(self.advance().value))
            elif self.at_punct("("):
                variables.append(self._parse_aggregate_item())
            else:
                break
        if not variables:
            return None  # bare 'SELECT WHERE {…}' — select-all
        return variables

    def _parse_aggregate_item(self) -> Aggregate:
        """``'(' Func '(' DISTINCT? ('*'|Var) ')' AS Var ')'``."""
        self.expect_punct("(")
        token = self.peek()
        if token.kind != "KEYWORD" or token.value not in Aggregate.FUNCTIONS:
            raise UnsupportedFeatureError(
                "projection expressions are limited to aggregates "
                f"(COUNT/SUM/MIN/MAX/AVG), found {token.value!r} "
                f"(line {token.line})"
            )
        function = self.advance().value
        self.expect_punct("(")
        distinct = False
        if self.at_keyword("DISTINCT"):
            self.advance()
            distinct = True
        argument: Opt[Variable] = None
        if self.at_punct("*"):
            if function != "COUNT":
                raise self.error(f"{function}(*) is not defined; only COUNT takes '*'")
            self.advance()
        else:
            token = self.peek()
            if token.kind != "VAR":
                raise self.error(
                    f"aggregate arguments must be a variable or '*', "
                    f"found {token.value!r}"
                )
            argument = Variable(self.advance().value)
        self.expect_punct(")")
        if not self.at_keyword("AS"):
            raise self.error("expected AS after aggregate expression")
        self.advance()
        token = self.peek()
        if token.kind != "VAR":
            raise self.error("expected an alias variable after AS")
        alias = Variable(self.advance().value)
        self.expect_punct(")")
        return Aggregate(function, argument, alias, distinct=distinct)

    def _parse_group_by(self) -> List[Variable]:
        """``GROUP BY ?v …`` — grouping keys are plain variables."""
        if not self.at_keyword("GROUP"):
            return []
        self.advance()
        if not self.at_keyword("BY"):
            raise self.error("expected BY after GROUP")
        self.advance()
        variables: List[Variable] = []
        while self.peek().kind == "VAR":
            variables.append(Variable(self.advance().value))
        if not variables:
            raise self.error("GROUP BY requires at least one variable")
        return variables

    def parse_group(self) -> GroupGraphPattern:
        self.expect_punct("{")
        elements: List = []
        while not self.at_punct("}"):
            token = self.peek()
            if token.kind == "EOF":
                raise self.error("unterminated group: missing '}'")
            self.check_unsupported()
            if token.kind == "PUNCT" and token.value == ".":
                # Stray separators between elements are tolerated, as in
                # real SPARQL grammars.
                self.advance()
                continue
            if self.at_keyword("OPTIONAL"):
                self.advance()
                body = self.parse_group()
                elements.append(OptionalExpression(body))
                continue
            if self.at_keyword("FILTER"):
                self.advance()
                elements.append(FilterExpression(self._parse_constraint()))
                continue
            if self.at_punct("{"):
                elements.append(self._parse_group_or_union())
                continue
            elements.append(self._parse_triple())
            if self.at_punct("."):
                self.advance()
        self.expect_punct("}")
        return GroupGraphPattern(elements)

    def _parse_group_or_union(self):
        first = self.parse_group()
        if not self.at_keyword("UNION"):
            return first
        branches = [first]
        while self.at_keyword("UNION"):
            self.advance()
            branches.append(self.parse_group())
        return UnionExpression(branches)

    def _parse_triple(self) -> TriplePattern:
        subject = self._parse_term(position="subject")
        predicate = self._parse_verb()
        obj = self._parse_term(position="object")
        try:
            return TriplePattern(subject, predicate, obj)
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def _parse_verb(self):
        token = self.peek()
        if token.kind == "KEYWORD" and token.value == "A":
            self.advance()
            return _RDF_TYPE
        return self._parse_term(position="predicate")

    def _parse_term(self, position: str):
        token = self.peek()
        if token.kind == "VAR":
            self.advance()
            return Variable(token.value)
        if token.kind == "IRI":
            self.advance()
            return IRI(token.value)
        if token.kind == "PNAME":
            self.advance()
            return self._expand_pname(token)
        if token.kind == "BLANK":
            self.advance()
            return BlankNode(token.value)
        if token.kind == "STRING":
            self.advance()
            return self._parse_literal_tail(token.value)
        if token.kind in ("INTEGER", "DECIMAL"):
            self.advance()
            datatype = _XSD + ("integer" if token.kind == "INTEGER" else "decimal")
            return Literal(token.value, datatype=datatype)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self.advance()
            return Literal(token.value.lower(), datatype=_XSD_BOOLEAN)
        self.check_unsupported()
        raise self.error(f"expected a term in {position} position, found {token.value!r}")

    def _parse_literal_tail(self, lexical: str) -> Literal:
        token = self.peek()
        if token.kind == "LANGTAG":
            self.advance()
            return Literal(lexical, language=token.value)
        if token.kind == "DTYPE":
            self.advance()
            dtype_token = self.peek()
            if dtype_token.kind == "IRI":
                self.advance()
                return Literal(lexical, datatype=dtype_token.value)
            if dtype_token.kind == "PNAME":
                self.advance()
                return Literal(lexical, datatype=self._expand_pname(dtype_token).value)
            raise self.error("expected datatype IRI after '^^'")
        return Literal(lexical)

    # ------------------------------------------------------------------
    # FILTER / ORDER BY expressions
    # ------------------------------------------------------------------
    def _parse_constraint(self) -> Expression:
        """FILTER's operand: a bracketted expression or a builtin call."""
        if self.at_punct("("):
            self.advance()
            expression = self._parse_expression()
            self.expect_punct(")")
            return expression
        if self.at_keyword("BOUND") or self.at_keyword("REGEX"):
            return self._parse_builtin()
        raise self.error("FILTER requires a bracketted expression or BOUND/REGEX call")

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def at_op(self, *values: str) -> bool:
        token = self.peek()
        return token.kind == "OP" and token.value in values

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.at_op("||"):
            self.advance()
            left = LogicalOr(left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self.at_op("&&"):
            self.advance()
            left = LogicalAnd(left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self.peek()
        if token.kind == "OP" and token.value in Comparison.OPS:
            self.advance()
            return Comparison(token.value, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self.at_op("+", "-"):
                op = self.advance().value
                left = Arithmetic(op, left, self._parse_multiplicative())
                continue
            token = self.peek()
            # '?x -1' lexes the -1 as one negative-number token; treat it
            # as addition of the (negative) constant, which is the same
            # subtraction.
            if token.kind in ("INTEGER", "DECIMAL") and token.value.startswith("-"):
                self.advance()
                datatype = _XSD + ("integer" if token.kind == "INTEGER" else "decimal")
                left = Arithmetic(
                    "+", left, ConstantTerm(Literal(token.value, datatype=datatype))
                )
                continue
            return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.at_op("/") or self.at_punct("*"):
            op = self.advance().value
            left = Arithmetic(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        if self.at_op("!"):
            self.advance()
            return LogicalNot(self._parse_unary())
        if self.at_op("-"):
            self.advance()
            return UnaryMinus(self._parse_unary())
        if self.at_op("+"):
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.peek()
        if self.at_punct("("):
            self.advance()
            expression = self._parse_expression()
            self.expect_punct(")")
            return expression
        if self.at_keyword("BOUND") or self.at_keyword("REGEX"):
            return self._parse_builtin()
        if token.kind == "VAR":
            self.advance()
            return VariableRef(token.value)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self.advance()
            return ConstantTerm(Literal(token.value.lower(), datatype=_XSD_BOOLEAN))
        if token.kind == "IRI":
            self.advance()
            return ConstantTerm(IRI(token.value))
        if token.kind == "PNAME":
            self.advance()
            return ConstantTerm(self._expand_pname(token))
        if token.kind == "STRING":
            self.advance()
            return ConstantTerm(self._parse_literal_tail(token.value))
        if token.kind in ("INTEGER", "DECIMAL"):
            self.advance()
            datatype = _XSD + ("integer" if token.kind == "INTEGER" else "decimal")
            return ConstantTerm(Literal(token.value, datatype=datatype))
        raise self.error(f"expected an expression, found {token.value!r}")

    def _parse_builtin(self) -> Expression:
        keyword = self.advance()
        self.expect_punct("(")
        if keyword.value == "BOUND":
            token = self.peek()
            if token.kind != "VAR":
                raise self.error("BOUND takes a single variable")
            self.advance()
            self.expect_punct(")")
            return BoundCall(token.value)
        text = self._parse_expression()
        self.expect_punct(",")
        pattern = self._parse_expression()
        flags: Opt[Expression] = None
        if self.at_punct(","):
            self.advance()
            flags = self._parse_expression()
        self.expect_punct(")")
        return RegexCall(text, pattern, flags)

    def _expand_pname(self, token: Token) -> IRI:
        prefix, _, local = token.value.partition(":")
        base = self.prefixes.get(prefix)
        if base is None:
            raise self.error(f"undeclared prefix {prefix!r}", token)
        return IRI(base + local)


def parse_query(text: str, prefixes: Opt[Dict[str, str]] = None) -> SelectQuery:
    """Parse a SELECT query.

    ``prefixes`` supplies extra prefix bindings on top of the well-known
    table (PREFIX declarations in the text still win).
    """
    return _Parser(text, prefixes).parse_query()


def parse_update(text: str, prefixes: Opt[Dict[str, str]] = None) -> UpdateRequest:
    """Parse a SPARQL 1.1 UPDATE request (``;``-separated operations)."""
    return _Parser(text, prefixes).parse_update()


def is_update_request(text: str) -> bool:
    """Whether ``text`` starts an UPDATE request rather than a query.

    Decided from the first keyword after any PREFIX declarations
    (``INSERT``/``DELETE`` open updates; everything else is a query),
    so callers with one free-text entry point — the CLI's ``query``
    command — can route without attempting a full parse.  Unlexable
    text is not an update: it should fail through the query path's
    error reporting.  Only the leading tokens are kept; the rest of an
    apparent update is lexed and dropped.
    """
    tokens = iter_tokens(text)
    try:
        token = next(tokens)
        while token.kind == "KEYWORD" and token.value == "PREFIX":
            # PREFIX, pname, IRI — malformed decls fall through
            for _ in range(3):
                token = next(tokens, token)
        if token.kind != "KEYWORD" or token.value not in ("INSERT", "DELETE"):
            return False
        for _ in tokens:
            pass
    except SparqlSyntaxError:
        return False
    return True


def parse_group(text: str, prefixes: Opt[Dict[str, str]] = None) -> GroupGraphPattern:
    """Parse a bare group graph pattern ``{ … }`` (test convenience)."""
    parser = _Parser(text, prefixes)
    group = parser.parse_group()
    token = parser.peek()
    if token.kind != "EOF":
        raise parser.error(f"trailing content after group: {token.value!r}")
    return group
