"""CRPQ evaluation: joins of RPQ relations (Section 3.1.2).

``q(G) = { h(x1, ..., xk) | h is a node homomorphism from q to G }``.

The evaluator processes atoms in the order chosen by
:mod:`repro.crpq.planning`, maintaining a set of partial bindings (a
relation over the variables seen so far).  Per atom it picks the cheapest
access path:

* left term bound  -> forward reachability from the bound node;
* right term bound -> reachability of the *reversed* expression over the
  incoming edges of the same CSR snapshot (Section 6.2's product
  construction runs equally well backwards; no reversed graph is built);
* neither bound    -> the full ``[[R]]_G`` relation.

Reachability calls are memoized per (expression, start), so star-shaped
joins do not recompute the same BFS.
"""

from __future__ import annotations

from itertools import islice

from repro.crpq.ast import CRPQ, RPQAtom, Var
from repro.crpq.planning import explain_steps, make_plan
from repro.engine import kernel
from repro.engine.limits import BudgetExceeded
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import reverse as regex_reverse
from repro.rpq.evaluation import evaluate_rpq


class _AtomAccess:
    """Memoized access paths for one evaluation run.

    Compilation goes through the engine's process-wide LRU cache (keyed on
    the *alphabet*, so a graph mutated between runs never resurrects a
    stale wildcard automaton) and reachability runs on the kernel, over the
    graph's one CSR snapshot in either direction.
    """

    def __init__(self, graph: EdgeLabeledGraph, stats=None, budget=None):
        self.graph = graph
        self.stats = stats
        # Atom relations are *intermediate* results: they share the query's
        # deadline/cancellation but are exempt from its answer-row ceiling.
        self.budget = budget.subquery() if budget is not None else None
        self._forward: dict = {}
        self._backward: dict = {}
        self._full: dict = {}
        self._compiled: dict = {}

    def _compile(self, regex):
        if regex not in self._compiled:
            self._compiled[regex] = kernel.compile_query(
                regex, self.graph, stats=self.stats
            )
        return self._compiled[regex]

    def forward(self, regex, source: ObjectId) -> set[ObjectId]:
        key = (regex, source)
        if key not in self._forward:
            self._forward[key] = kernel.reachable(
                self._compile(regex),
                self.graph,
                source,
                stats=self.stats,
                budget=self.budget,
            )
        return self._forward[key]

    def backward(self, regex, target: ObjectId) -> set[ObjectId]:
        # The reversed expression walked over incoming edges from the bound
        # target: the sources of ``[[R]]_G`` ending there.
        key = (regex, target)
        if key not in self._backward:
            self._backward[key] = kernel.reachable(
                self._compile(regex_reverse(regex)),
                self.graph,
                target,
                stats=self.stats,
                budget=self.budget,
                backward=True,
            )
        return self._backward[key]

    def full(self, regex) -> set[tuple[ObjectId, ObjectId]]:
        # The unbound-atom hot path: the kernel's one-sweep multi-source
        # evaluation of ``[[R]]_G``.
        if regex not in self._full:
            self._full[regex] = evaluate_rpq(
                regex, self.graph, stats=self.stats, budget=self.budget
            )
        return self._full[regex]


def _resolve(term, binding: dict) -> "ObjectId | None":
    """The node a term denotes under the binding, or None if still free."""
    if isinstance(term, Var):
        return binding.get(term)
    return term


def _extend(
    binding: dict, term, node: ObjectId
) -> "dict | None":
    """Bind ``term`` to ``node`` if consistent; constants must match."""
    if isinstance(term, Var):
        bound = binding.get(term)
        if bound is None:
            extended = dict(binding)
            extended[term] = node
            return extended
        return binding if bound == node else None
    return binding if term == node else None


def evaluate_crpq_bindings(
    query: "CRPQ | str",
    graph: EdgeLabeledGraph,
    plan: "list[RPQAtom] | None" = None,
    *,
    planner: "str | None" = None,
    stats=None,
    budget=None,
    access=None,
) -> list[dict]:
    """All node homomorphisms from ``query`` to ``graph`` as variable->node
    dictionaries (before head projection).

    ``access`` swaps in an alternative atom-access object (the distributed
    coordinator injects one that evaluates each relation on the shard
    fleet); planning still runs over ``graph``, so the cost model keeps
    choosing the atom order — and thereby which atoms run bound
    (shard-local scatter) versus unbound (broadcast sweep).

    ``planner`` selects the atom ordering: ``"cost"`` (the engine's
    cardinality-model planner, the default) or ``"greedy"`` (the seed
    planner).  An explicit ``plan`` overrides both.

    A ``budget`` bounds the whole join: atom reachability calls run under
    ``budget.subquery()`` and the join loop itself ticks per extension.  On
    :class:`BudgetExceeded` the bindings completed so far are attached as
    the partial result (callers with a more final answer shape overwrite).

    This is the engine behind :func:`evaluate_crpq`; the l-CRPQ evaluator of
    Section 3.1.5 also starts from these homomorphisms before attaching list
    bindings per atom.
    """
    if isinstance(query, str):
        from repro.crpq.ast import parse_crpq

        query = parse_crpq(query)
    tracer = get_tracer()
    with tracer.span("crpq.evaluate", query=query.name) as query_span:
        with tracer.span("crpq.plan", planner=planner or "default"):
            if plan is not None:
                ordered = plan
            else:
                ordered = make_plan(query, graph, planner or "cost", stats=stats)
            # When tracing, price the chosen order up front so every
            # per-atom span carries its estimate next to the actual
            # cardinality it produced.
            steps = (
                explain_steps(ordered, graph, stats=stats)
                if tracer.enabled
                else None
            )
        if query_span is not None:
            query_span.set(atoms=len(ordered))
        if access is None:
            access = _AtomAccess(graph, stats=stats, budget=budget)
        bindings: list[dict] = [{}]
        try:
            for position, atom in enumerate(ordered):
                if budget is not None:
                    budget.check()  # natural barrier between atoms
                attributes = {}
                if steps is not None:
                    step = steps[position]
                    attributes = {
                        "atom": step.atom_text,
                        "access": step.access,
                        "estimated_cost": round(step.estimated_cost, 4),
                        "estimated_pairs": round(step.estimated_pairs, 4),
                    }
                with tracer.span("crpq.atom", **attributes) as atom_span:
                    bindings = _apply_atom(atom, bindings, access, graph, budget)
                    if atom_span is not None:
                        atom_span.set(actual_cardinality=len(bindings))
                if not bindings:
                    break
        except BudgetExceeded as exc:
            raise exc.attach_partial(list(bindings))
        if query_span is not None:
            query_span.set(bindings=len(bindings))
    return bindings


def _apply_atom(
    atom: RPQAtom,
    bindings: list[dict],
    access: _AtomAccess,
    graph: EdgeLabeledGraph,
    budget=None,
) -> list[dict]:
    """Join one atom's relation into the current partial bindings."""
    next_bindings: list[dict] = []
    tick = budget.tick if budget is not None else None
    for binding in bindings:
        if tick is not None:
            tick()
        left = _resolve(atom.left, binding)
        right = _resolve(atom.right, binding)
        if left is not None and graph.has_node(left):
            targets = access.forward(atom.regex, left)
            if right is not None:
                if right in targets:
                    next_bindings.append(binding)
            else:
                for node in targets:
                    if tick is not None:
                        tick()
                    extended = _extend(binding, atom.right, node)
                    if extended is not None:
                        next_bindings.append(extended)
        elif right is not None and graph.has_node(right):
            sources = access.backward(atom.regex, right)
            for node in sources:
                if tick is not None:
                    tick()
                extended = _extend(binding, atom.left, node)
                if extended is not None:
                    next_bindings.append(extended)
        elif left is None and right is None:
            for source, target in access.full(atom.regex):
                if tick is not None:
                    tick()
                extended = _extend(binding, atom.left, source)
                if extended is None:
                    continue
                extended = _extend(extended, atom.right, target)
                if extended is not None:
                    next_bindings.append(extended)
        # else: a bound term is not even a node of the graph -> no match
    return next_bindings


def evaluate_crpq(
    query: "CRPQ | str",
    graph: EdgeLabeledGraph,
    plan: "list[RPQAtom] | None" = None,
    *,
    planner: "str | None" = None,
    stats=None,
    budget=None,
    access=None,
) -> set[tuple]:
    """The output ``q(G)`` as a set of head-variable tuples.

    A boolean query (empty head) returns ``{()}`` when satisfiable and
    ``set()`` otherwise.  A custom atom order can be injected via ``plan``;
    ``planner`` picks between the cost-based and greedy orderings (the
    benchmarks and differential tests compare all of them).

    ``budget.max_rows`` applies to these head tuples: the evaluation stops
    once more than ``max_rows`` distinct tuples exist, and the raised
    :class:`BudgetExceeded` carries exactly ``max_rows`` of them.
    """
    if isinstance(query, str):
        from repro.crpq.ast import parse_crpq

        query = parse_crpq(query)
    results: set[tuple] = set()
    try:
        for binding in evaluate_crpq_bindings(
            query, graph, plan=plan, planner=planner, stats=stats,
            budget=budget, access=access,
        ):
            results.add(tuple(binding[var] for var in query.head))
            if budget is not None:
                budget.check_rows(len(results))
    except BudgetExceeded as exc:
        if budget is not None and exc.limit == "max_rows" and budget.max_rows is not None:
            raise exc.attach_partial(set(islice(results, budget.max_rows)))
        raise exc.attach_partial(set(results))
    return results
