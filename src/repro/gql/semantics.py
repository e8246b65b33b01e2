"""GQL-style pattern matching with singleton and group variables.

This engine deliberately implements the *syntax-driven* semantics that
Examples 1 and 2 of the paper dissect:

* within an unrepeated subpattern, multiple occurrences of a variable are a
  **join** — they must bind to the same element (``(x)-[:a]->(x)`` matches
  self-loops);
* adjacent node patterns join too, because path concatenation glues on a
  shared node (``(u)(v)`` forces ``u = v``);
* when the parse tree passes through a quantifier, every variable of the
  quantified subpattern becomes a **group variable** that collects one
  element per iteration into a list — and group variables do *not* join.

Consequently ``pi{2}`` is not equivalent to ``pi pi`` (Example 1), which is
exactly the disconnect from regular expressions the paper criticizes; the
repaired design is :mod:`repro.listvars`.

Bindings map variables to ``("single", element)`` or ``("group", tuple)``.
Mixing the two kinds for one variable, or giving one group variable two
homes, is a static type error in GQL and raises :class:`QueryError` here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InfiniteResultError, QueryError
from repro.gql.ast import (
    Alt,
    BAnd,
    BNot,
    BOr,
    BoolExpr,
    Cmp,
    EdgePat,
    GPattern,
    NodePat,
    Quant,
    Seq,
    Where,
    pattern_variables,
)
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph

#: binding entry kinds
SINGLE = "single"
GROUP = "group"

Binding = tuple  # sorted tuple of (var, (kind, value)) pairs


@dataclass(frozen=True)
class GQLMatch:
    """One match: the matched path and the variable bindings."""

    path: Path
    binding: Binding

    def get(self, var):
        """The bound value: an element for singletons, a tuple for groups."""
        for name, (kind, value) in self.binding:
            if name == var:
                return value
        return None

    def kind_of(self, var):
        for name, (kind, _value) in self.binding:
            if name == var:
                return kind
        return None


def _freeze(binding: dict) -> Binding:
    return tuple(sorted(binding.items(), key=lambda item: repr(item[0])))


def _merge(mu1: Binding, mu2: Binding) -> "Binding | None":
    """Join two bindings: singletons must agree; group conflicts are type
    errors (GQL forbids one group variable in two sibling subpatterns)."""
    merged = dict(mu1)
    for var, (kind, value) in mu2:
        if var not in merged:
            merged[var] = (kind, value)
            continue
        other_kind, other_value = merged[var]
        if kind == SINGLE and other_kind == SINGLE:
            if value != other_value:
                return None
        else:
            raise QueryError(
                f"variable {var!r} is used as a group variable in two "
                "sibling subpatterns (a GQL type error)"
            )
    return _freeze(merged)


def _evaluate_condition(
    condition: BoolExpr, graph: PropertyGraph, binding: dict
) -> bool:
    if isinstance(condition, BAnd):
        return _evaluate_condition(condition.left, graph, binding) and (
            _evaluate_condition(condition.right, graph, binding)
        )
    if isinstance(condition, BOr):
        return _evaluate_condition(condition.left, graph, binding) or (
            _evaluate_condition(condition.right, graph, binding)
        )
    if isinstance(condition, BNot):
        return not _evaluate_condition(condition.inner, graph, binding)
    if isinstance(condition, Cmp):
        return _evaluate_comparison(condition, graph, binding)
    raise TypeError(f"not a condition: {condition!r}")


def _property_of(graph, binding, var, prop):
    if var not in binding:
        return None
    kind, value = binding[var]
    if kind != SINGLE:
        raise QueryError(
            f"WHERE references {var!r}, which is a group variable in scope"
        )
    if not graph.has_property(value, prop):
        return None
    return graph.get_property(value, prop)


def _evaluate_comparison(cmp: Cmp, graph, binding: dict) -> bool:
    left = _property_of(graph, binding, cmp.var, cmp.prop)
    if left is None:
        return False
    if cmp.rhs_is_const:
        right = cmp.const
    else:
        right = _property_of(graph, binding, cmp.rhs_var, cmp.rhs_prop)
        if right is None:
            return False
    try:
        return {
            "=": left == right,
            "!=": left != right,
            "<": left < right,
            ">": left > right,
            "<=": left <= right,
            ">=": left >= right,
        }[cmp.op]
    except TypeError:
        return False


def match_gql_pattern(
    pattern: "GPattern | str",
    graph: PropertyGraph,
    max_length: "int | None" = None,
    *,
    stats=None,
) -> set[GQLMatch]:
    """All matches of the pattern on the graph.

    ``max_length`` bounds path lengths for unbounded quantifiers on cyclic
    graphs (otherwise :class:`InfiniteResultError` is raised when the match
    set would be infinite).

    Labeled edge patterns enumerate the edge-id row of their label in the
    graph's CSR snapshot instead of scanning every edge.  ``stats``
    collects engine counters when provided.
    """
    if isinstance(pattern, str):
        from repro.gql.parser import parse_gql_pattern

        pattern = parse_gql_pattern(pattern)
    return {
        GQLMatch(path, binding)
        for path, binding in _match(pattern, graph, max_length, stats)
    }


def _match(pattern, graph, bound, stats=None) -> set[tuple[Path, Binding]]:
    if isinstance(pattern, NodePat):
        results = set()
        for node in graph.iter_nodes():
            if pattern.label is not None and graph.object_label(node) != pattern.label:
                continue
            binding = (
                _freeze({pattern.var: (SINGLE, node)})
                if pattern.var is not None
                else ()
            )
            results.add((Path.trivial(graph, node), binding))
        return results
    if isinstance(pattern, EdgePat):
        results = set()
        if bound is not None and bound < 1:
            return results
        if pattern.label is not None:
            from repro.engine.csr import get_csr

            records = get_csr(graph, stats).edges_with_label(pattern.label)
        else:
            records = (
                (edge, *graph.endpoints(edge)) for edge in graph.iter_edges()
            )
        scanned = 0
        for edge, src, tgt in records:
            scanned += 1
            binding = (
                _freeze({pattern.var: (SINGLE, edge)})
                if pattern.var is not None
                else ()
            )
            results.add((Path.of(graph, (src, edge, tgt)), binding))
        if stats is not None:
            stats.count("edges_scanned", scanned)
        return results
    if isinstance(pattern, Seq):
        current = _match(pattern.parts[0], graph, bound, stats)
        for part in pattern.parts[1:]:
            step = _match(part, graph, bound, stats)
            combined = set()
            for path1, mu1 in current:
                for path2, mu2 in step:
                    if path1.tgt != path2.src:
                        continue
                    merged = _merge(mu1, mu2)
                    if merged is None:
                        continue
                    joined = path1.concat(path2)
                    if bound is not None and len(joined) > bound:
                        continue
                    combined.add((joined, merged))
            current = combined
        return current
    if isinstance(pattern, Alt):
        results = set()
        for part in pattern.parts:
            results |= _match(part, graph, bound, stats)
        return results
    if isinstance(pattern, Where):
        return {
            (path, mu)
            for path, mu in _match(pattern.inner, graph, bound, stats)
            if _evaluate_condition(pattern.condition, graph, dict(mu))
        }
    if isinstance(pattern, Quant):
        return _match_quant(pattern, graph, bound, stats)
    raise TypeError(f"not an ASCII pattern: {pattern!r}")


def _match_quant(pattern: Quant, graph, bound, stats=None):
    """Repetition turns every inner variable into a group variable.

    ``[[pi]]^j``: j endpoint-chained matches of pi; the resulting binding
    maps each inner variable to the list of its per-iteration values (group
    values of nested quantifiers are flattened, as GQL's lists are flat).
    """
    inner = _match(pattern.inner, graph, bound, stats)

    def group_up(mu: Binding) -> dict:
        grouped = {}
        for var, (kind, value) in mu:
            grouped[var] = (GROUP, (value,) if kind == SINGLE else tuple(value))
        return grouped

    def append_iteration(acc: dict, mu: Binding) -> dict:
        extended = dict(acc)
        for var, (kind, value) in mu:
            items = (value,) if kind == SINGLE else tuple(value)
            previous = extended.get(var, (GROUP, ()))[1]
            extended[var] = (GROUP, tuple(previous) + items)
        return extended

    # level j = 0: trivial paths, all inner variables bound to empty lists.
    empty_groups = {
        var: (GROUP, ()) for var in pattern_variables(pattern.inner)
    }
    current = {
        (Path.trivial(graph, node), _freeze(dict(empty_groups)))
        for node in graph.iter_nodes()
    }
    accumulated: set = set()
    iteration = 0
    seen_levels: set[frozenset] = set()
    safety_cap = graph.num_nodes + graph.num_edges + 1
    while True:
        in_window = iteration >= pattern.low and (
            pattern.high is None or iteration <= pattern.high
        )
        if in_window:
            accumulated |= current
            if pattern.high is None:
                level = frozenset(current)
                if level in seen_levels:
                    break
                seen_levels.add(level)
        if pattern.high is not None and iteration >= pattern.high:
            break
        extended = set()
        for path1, acc in current:
            for path2, mu in inner:
                if path1.tgt != path2.src:
                    continue
                joined = path1.concat(path2)
                if bound is not None and len(joined) > bound:
                    continue
                extended.add((joined, _freeze(append_iteration(dict(acc), mu))))
        current = extended
        iteration += 1
        if not current:
            break
        if (
            pattern.high is None
            and bound is None
            and any(len(path) > safety_cap for path, _mu in current)
        ):
            raise InfiniteResultError(
                "unbounded quantifier over a cyclic graph yields infinitely "
                "many matches; pass max_length"
            )
    return accumulated
