"""Join planning for CRPQs.

Section 7.1 of the paper singles out cardinality estimation for (C)RPQs as
an open practical problem.  Two planners implement it here:

* :func:`greedy_plan` — the seed's planner: a static per-atom estimate plus
  a greedy connected-atoms-first ordering.  Kept verbatim as the
  ``planner="greedy"`` fallback and the differential oracle.
* :func:`cost_plan` — the engine-backed planner (``planner="cost"``, the
  default): prices every candidate atom with the
  :class:`~repro.engine.cardinality.CardinalityModel` *given the variables
  already bound by the plan so far*, so an atom whose endpoint becomes
  bound is re-priced as cheap forward/backward reachability instead of a
  full-relation sweep.  Estimates use the CSR snapshot's per-label edge and
  distinct-endpoint counts plus the first/last-label selectivity of the
  compiled automaton (compiled through the engine's LRU cache, so planning
  warms the very automata evaluation will run).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crpq.ast import CRPQ, RPQAtom, Var
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import (
    Concat,
    Empty,
    Epsilon,
    NotSymbols,
    Regex,
    Star,
    Symbol,
    Union,
    nullable,
    to_string,
)


def atom_text(atom: RPQAtom) -> str:
    """``regex(left, right)`` with variables rendered as ``?name``."""
    return f"{to_string(atom.regex)}({atom.left!r}, {atom.right!r})"


def label_statistics(graph: EdgeLabeledGraph) -> dict:
    """Per-label edge counts (the only statistics the estimator uses)."""
    counts: dict = {}
    for edge in graph.iter_edges():
        label = graph.label(edge)
        counts[label] = counts.get(label, 0) + 1
    return counts


def estimate_atom_cardinality(
    atom: RPQAtom, graph: EdgeLabeledGraph, stats: dict | None = None
) -> float:
    """A rough estimate of ``|[[R]]_G|`` for the atom's expression.

    Heuristics (all capped at ``n^2``):

    * a label contributes its edge count;
    * a wildcard contributes the count of all non-excluded labels;
    * union adds, concatenation multiplies scaled by ``1/n`` (midpoint
      join), star behaves like reachability and is charged ``n * avg_deg``;
    * a nullable expression adds the ``n`` identity pairs.

    Constants in the atom divide the estimate by ``n`` per bound side.
    """
    if stats is None:
        stats = label_statistics(graph)
    n = max(graph.num_nodes, 1)
    total_edges = max(graph.num_edges, 1)

    def estimate(regex: Regex) -> float:
        if isinstance(regex, Empty):
            return 0.0
        if isinstance(regex, Epsilon):
            return float(n)
        if isinstance(regex, Symbol):
            return float(stats.get(regex.symbol, 0))
        if isinstance(regex, NotSymbols):
            return float(
                sum(
                    count
                    for label, count in stats.items()
                    if label not in regex.excluded
                )
            )
        if isinstance(regex, Union):
            return min(float(n) * n, sum(estimate(part) for part in regex.parts))
        if isinstance(regex, Concat):
            result = estimate(regex.parts[0])
            for part in regex.parts[1:]:
                result = result * estimate(part) / n
            return min(float(n) * n, result)
        if isinstance(regex, Star):
            average_degree = total_edges / n
            reach = n * min(float(n), max(average_degree, 1.0) ** 2)
            return min(float(n) * n, reach)
        raise TypeError(f"not a regex node: {regex!r}")

    size = estimate(atom.regex)
    if nullable(atom.regex):
        size += n
    size = min(size, float(n) * n)
    for term in (atom.left, atom.right):
        if not isinstance(term, Var):
            size /= n
    return max(size, 0.0)


def greedy_plan(
    query: CRPQ, graph: EdgeLabeledGraph
) -> list[RPQAtom]:
    """Order atoms so that each one shares variables with what came before.

    Greedy: start with the atom of smallest estimated cardinality, then
    repeatedly pick the connected atom (sharing a bound variable) with the
    smallest estimate, falling back to the globally smallest when the query
    is disconnected (a cartesian product is then unavoidable).
    """
    stats = label_statistics(graph)
    remaining = list(query.atoms)
    estimates = {
        id(atom): estimate_atom_cardinality(atom, graph, stats)
        for atom in remaining
    }
    plan: list[RPQAtom] = []
    bound: set[Var] = set()
    while remaining:
        connected = [
            atom for atom in remaining if atom.variables() & bound
        ]
        candidates = connected or remaining
        best = min(candidates, key=lambda atom: (estimates[id(atom)], repr(atom)))
        plan.append(best)
        remaining.remove(best)
        bound |= best.variables()
    return plan


def cost_plan(
    query: CRPQ,
    graph: EdgeLabeledGraph,
    *,
    stats=None,
) -> list[RPQAtom]:
    """Order atoms by estimated access cost with bound-variable propagation.

    At every step each remaining atom is priced by
    :meth:`~repro.engine.cardinality.CardinalityModel.access_cost` under the
    variables the partial plan already binds: a term is *bound* if it is a
    constant or a variable some earlier atom produced.  The cheapest atom is
    appended and its variables join the bound set, so estimates tighten as
    the plan grows (classic greedy join ordering with sideways information
    passing).  Ties break on ``repr`` for determinism.
    """
    from repro.engine import kernel
    from repro.engine.cardinality import CardinalityModel

    model = CardinalityModel(graph, stats)
    compiled = {
        id(atom): kernel.compile_query(atom.regex, graph, stats=stats)
        for atom in query.atoms
    }

    def term_bound(term, bound: set[Var]) -> bool:
        return not isinstance(term, Var) or term in bound

    plan: list[RPQAtom] = []
    bound: set[Var] = set()
    remaining = list(query.atoms)
    while remaining:
        best = min(
            remaining,
            key=lambda atom: (
                model.access_cost(
                    compiled[id(atom)],
                    left_bound=term_bound(atom.left, bound),
                    right_bound=term_bound(atom.right, bound),
                ),
                repr(atom),
            ),
        )
        plan.append(best)
        remaining.remove(best)
        bound |= best.variables()
    return plan


@dataclass(frozen=True, slots=True)
class PlanStep:
    """One priced step of an ordered CRPQ plan (what ``repro explain`` shows).

    ``estimated_cost`` is the expected number of bindings one access to the
    atom's relation produces under the bound-variable state at this point of
    the plan; ``estimated_pairs`` is the cardinality estimate of the atom's
    full relation ``|[[R]]_G|``.  The per-atom spans recorded during
    evaluation carry these estimates next to the *actual* cardinality, so
    plan quality is auditable after the fact.
    """

    atom: RPQAtom
    access: str
    estimated_cost: float
    estimated_pairs: float
    left_bound: bool
    right_bound: bool

    @property
    def atom_text(self) -> str:
        return atom_text(self.atom)

    def as_dict(self) -> dict:
        return {
            "atom": self.atom_text,
            "access": self.access,
            "estimated_cost": round(self.estimated_cost, 4),
            "estimated_pairs": round(self.estimated_pairs, 4),
        }


def _access_name(left_bound: bool, right_bound: bool) -> str:
    if left_bound and right_bound:
        return "check"
    if left_bound:
        return "forward"
    if right_bound:
        return "backward"
    return "full"


def explain_steps(
    ordered: list[RPQAtom],
    graph: EdgeLabeledGraph,
    *,
    stats=None,
) -> list[PlanStep]:
    """Price an already-ordered plan step by step.

    Replays the bound-variable propagation of :func:`cost_plan` over any
    atom order (cost-chosen, greedy, or user-supplied), so estimates are
    comparable across planners.  Compilation goes through the engine's LRU
    cache — explaining a plan warms the very automata evaluation will run.
    """
    from repro.engine import kernel
    from repro.engine.cardinality import CardinalityModel

    model = CardinalityModel(graph, stats)
    steps: list[PlanStep] = []
    bound: set[Var] = set()
    for atom in ordered:
        left_bound = not isinstance(atom.left, Var) or atom.left in bound
        right_bound = not isinstance(atom.right, Var) or atom.right in bound
        compiled = kernel.compile_query(atom.regex, graph, stats=stats)
        steps.append(
            PlanStep(
                atom=atom,
                access=_access_name(left_bound, right_bound),
                estimated_cost=model.access_cost(
                    compiled, left_bound=left_bound, right_bound=right_bound
                ),
                estimated_pairs=model.pair_estimate(compiled),
                left_bound=left_bound,
                right_bound=right_bound,
            )
        )
        bound |= atom.variables()
    return steps


#: Planner registry used by ``evaluate_crpq(..., planner=...)``.
PLANNERS = {
    "greedy": greedy_plan,
    "cost": cost_plan,
}


def make_plan(
    query: CRPQ,
    graph: EdgeLabeledGraph,
    planner: str = "cost",
    *,
    stats=None,
) -> list[RPQAtom]:
    """Dispatch to a named planner (``"cost"`` or ``"greedy"``)."""
    if planner == "cost":
        return cost_plan(query, graph, stats=stats)
    if planner == "greedy":
        return greedy_plan(query, graph)
    raise ValueError(
        f"unknown planner {planner!r}; expected one of {sorted(PLANNERS)}"
    )
