"""Regular expression abstract syntax.

The inductive definition follows Section 3.1.1 of the paper: epsilon, label
base cases, concatenation, disjunction and Kleene star, plus the
``!S`` wildcards of Remark 11 and the empty language (needed for closure
under complement on the automata side).

Smart constructors (:func:`concat`, :func:`union`, :func:`star`) perform
only the *safe* local normalizations (flattening, unit/absorbing elements);
full simplification lives in :mod:`repro.regex.rewrite`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

SymbolType = Hashable


class Regex:
    """Base class for regular expression nodes.

    Nodes are immutable and hashable; subclasses are the only constructors.
    Operator sugar: ``r1 | r2`` is disjunction, ``r1 >> r2`` concatenation.
    """

    __slots__ = ()

    def __or__(self, other: "Regex") -> "Regex":
        return union(self, other)

    def __rshift__(self, other: "Regex") -> "Regex":
        return concat(self, other)


@dataclass(frozen=True, slots=True)
class Empty(Regex):
    """The empty language (no word matches)."""

    def __repr__(self) -> str:
        return "Empty()"


@dataclass(frozen=True, slots=True)
class Epsilon(Regex):
    """The language containing only the empty word."""

    def __repr__(self) -> str:
        return "Epsilon()"


@dataclass(frozen=True, slots=True)
class Symbol(Regex):
    """A single symbol.  For plain RPQs the payload is an edge label;
    richer languages use richer (hashable) payloads."""

    symbol: SymbolType

    def __repr__(self) -> str:
        return f"Symbol({self.symbol!r})"


@dataclass(frozen=True, slots=True)
class NotSymbols(Regex):
    """The wildcard ``!S`` of Remark 11: any single symbol not in ``excluded``.

    ``NotSymbols(frozenset())`` matches *every* symbol; the module constant
    :data:`ANY` (the paper's ``_``) is exactly that.
    """

    excluded: frozenset[SymbolType]

    def __repr__(self) -> str:
        return f"NotSymbols({set(self.excluded)!r})" if self.excluded else "ANY"


@dataclass(frozen=True, slots=True)
class Concat(Regex):
    """Concatenation of two or more parts."""

    parts: tuple[Regex, ...]

    def __repr__(self) -> str:
        return f"Concat{self.parts!r}"


@dataclass(frozen=True, slots=True)
class Union(Regex):
    """Disjunction of two or more parts."""

    parts: tuple[Regex, ...]

    def __repr__(self) -> str:
        return f"Union{self.parts!r}"


@dataclass(frozen=True, slots=True)
class Star(Regex):
    """Kleene star."""

    inner: Regex

    def __repr__(self) -> str:
        return f"Star({self.inner!r})"


#: The paper's ``_`` wildcard: matches every label.
ANY = NotSymbols(frozenset())

_EPSILON = Epsilon()
_EMPTY = Empty()


# ----------------------------------------------------------------------
# smart constructors
# ----------------------------------------------------------------------
def concat(*parts: Regex) -> Regex:
    """Concatenation with flattening; epsilon is the unit, empty absorbs."""
    flat: list[Regex] = []
    for part in parts:
        if isinstance(part, Empty):
            return _EMPTY
        if isinstance(part, Epsilon):
            continue
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return _EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def union(*parts: Regex) -> Regex:
    """Disjunction with flattening and duplicate removal; empty is the unit."""
    flat: list[Regex] = []
    seen: set[Regex] = set()
    for part in parts:
        if isinstance(part, Empty):
            continue
        members = part.parts if isinstance(part, Union) else (part,)
        for member in members:
            if member not in seen:
                seen.add(member)
                flat.append(member)
    if not flat:
        return _EMPTY
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def star(inner: Regex) -> Regex:
    """Kleene star; ``(R*)* = R*``, ``eps* = eps``, ``empty* = eps``."""
    if isinstance(inner, (Epsilon, Empty)):
        return _EPSILON
    if isinstance(inner, Star):
        return inner
    return Star(inner)


def plus(inner: Regex) -> Regex:
    """``R+`` desugars to ``R . R*`` (as the paper does)."""
    return concat(inner, star(inner))


def optional(inner: Regex) -> Regex:
    """``R?`` desugars to ``R + eps``."""
    return union(inner, _EPSILON)


def repeat(inner: Regex, low: int, high: int | None) -> Regex:
    """Bounded repetition ``R{low,high}``; ``high=None`` means unbounded.

    ``R{2}`` (``low == high``) is the iteration of Example 1; unlike GQL
    group variables, for plain regular expressions ``R{2}`` is literally
    ``R . R``.
    """
    if low < 0 or (high is not None and high < low):
        raise ValueError(f"invalid repetition bounds {{{low},{high}}}")
    required = concat(*([inner] * low)) if low else _EPSILON
    if high is None:
        return concat(required, star(inner))
    optional_tail = _EPSILON
    for _ in range(high - low):
        optional_tail = union(concat(inner, optional_tail), _EPSILON)
    return concat(required, optional_tail)


# ----------------------------------------------------------------------
# structural queries
# ----------------------------------------------------------------------
def nullable(regex: Regex) -> bool:
    """Whether the empty word belongs to the language."""
    if isinstance(regex, (Epsilon, Star)):
        return True
    if isinstance(regex, (Empty, Symbol, NotSymbols)):
        return False
    if isinstance(regex, Concat):
        return all(nullable(part) for part in regex.parts)
    if isinstance(regex, Union):
        return any(nullable(part) for part in regex.parts)
    raise TypeError(f"not a regex node: {regex!r}")


def symbols(regex: Regex) -> frozenset[SymbolType]:
    """All symbols mentioned positively (``Symbol``) or negatively
    (inside a ``!S`` wildcard) in the expression."""
    found: set[SymbolType] = set()

    def walk(node: Regex) -> None:
        if isinstance(node, Symbol):
            found.add(node.symbol)
        elif isinstance(node, NotSymbols):
            found.update(node.excluded)
        elif isinstance(node, Concat) or isinstance(node, Union):
            for part in node.parts:
                walk(part)
        elif isinstance(node, Star):
            walk(node.inner)

    walk(regex)
    return frozenset(found)


def has_wildcard(regex: Regex) -> bool:
    """Whether the expression contains a ``!S`` (or ``_``) wildcard."""
    if isinstance(regex, NotSymbols):
        return True
    if isinstance(regex, (Concat, Union)):
        return any(has_wildcard(part) for part in regex.parts)
    if isinstance(regex, Star):
        return has_wildcard(regex.inner)
    return False


def regex_size(regex: Regex) -> int:
    """The number of AST nodes (a standard expression-size measure)."""
    if isinstance(regex, (Empty, Epsilon, Symbol, NotSymbols)):
        return 1
    if isinstance(regex, (Concat, Union)):
        return 1 + sum(regex_size(part) for part in regex.parts)
    if isinstance(regex, Star):
        return 1 + regex_size(regex.inner)
    raise TypeError(f"not a regex node: {regex!r}")


def map_symbols(regex: Regex, mapping) -> Regex:
    """Rebuild the expression with every Symbol payload passed through
    ``mapping`` (used e.g. to erase list-variable annotations)."""
    if isinstance(regex, Symbol):
        return Symbol(mapping(regex.symbol))
    if isinstance(regex, (Empty, Epsilon, NotSymbols)):
        return regex
    if isinstance(regex, Concat):
        return concat(*(map_symbols(part, mapping) for part in regex.parts))
    if isinstance(regex, Union):
        return union(*(map_symbols(part, mapping) for part in regex.parts))
    if isinstance(regex, Star):
        return star(map_symbols(regex.inner, mapping))
    raise TypeError(f"not a regex node: {regex!r}")


def to_string(regex: Regex, render_symbol=str) -> str:
    """Pretty-print with minimal parentheses, in the paper's notation.

    Union binds loosest, then concatenation (rendered with ``.``), then
    star.  ``render_symbol`` customizes atom rendering for richer payloads.
    """

    def level(node: Regex) -> int:
        if isinstance(node, Union):
            return 0
        if isinstance(node, Concat):
            return 1
        if isinstance(node, Star):
            return 2
        return 3

    def wrap(node: Regex, minimum: int) -> str:
        text = render(node)
        if level(node) < minimum:
            return f"({text})"
        return text

    def render(node: Regex) -> str:
        if isinstance(node, Empty):
            return "∅"
        if isinstance(node, Epsilon):
            return "ε"
        if isinstance(node, Symbol):
            return render_symbol(node.symbol)
        if isinstance(node, NotSymbols):
            if not node.excluded:
                return "_"
            inner = ",".join(sorted(map(render_symbol, node.excluded)))
            return f"!{{{inner}}}"
        if isinstance(node, Union):
            return " + ".join(wrap(part, 1) for part in node.parts)
        if isinstance(node, Concat):
            return ".".join(wrap(part, 2) for part in node.parts)
        if isinstance(node, Star):
            return f"{wrap(node.inner, 3)}*"
        raise TypeError(f"not a regex node: {node!r}")

    return render(regex)


def reverse(regex: Regex) -> Regex:
    """The expression for the reversed language ``L(R)^rev``.

    Used to evaluate an RPQ atom whose *target* is bound: run the reversed
    expression from the bound node over incoming edges (the reversed graph).
    """
    if isinstance(regex, (Empty, Epsilon, Symbol, NotSymbols)):
        return regex
    if isinstance(regex, Concat):
        return concat(*(reverse(part) for part in reversed(regex.parts)))
    if isinstance(regex, Union):
        return union(*(reverse(part) for part in regex.parts))
    if isinstance(regex, Star):
        return star(reverse(regex.inner))
    raise TypeError(f"not a regex node: {regex!r}")


def iter_subexpressions(regex: Regex) -> Iterable[Regex]:
    """Yield every subexpression (including the expression itself)."""
    yield regex
    if isinstance(regex, (Concat, Union)):
        for part in regex.parts:
            yield from iter_subexpressions(part)
    elif isinstance(regex, Star):
        yield from iter_subexpressions(regex.inner)
