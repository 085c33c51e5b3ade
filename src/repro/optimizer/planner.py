"""Selinger-style dynamic-programming join ordering with injected
cardinalities.

The paper modifies PostgreSQL to accept external cardinality estimates for
every subquery (Section 5.6, following Cai et al. 2019); this module is the
equivalent substrate: the DP planner consults an arbitrary cardinality
function, so swapping estimators changes only the numbers it sees.

Every cardinality source speaks one contract — ``name`` plus
``cardinality(query, subset) -> float`` — and :func:`card_fn` turns any
of them into the planner's memoised card function.

Cross products are excluded.  Connectivity comes from a
:class:`JoinGraph` derived from the schema's foreign keys.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable

from ..data.schema import Schema
from .cost import CardFn, Plan, join_cost, scan_cost


class JoinGraph:
    """Join connectivity derived from foreign-key edges.

    Each foreign key contributes an undirected edge child—parent; a table
    subset is connected iff it induces a connected subgraph.  On a star
    schema that is a singleton or any subset holding the center (children
    only meet through it); snowflakes and chains are covered too.
    """

    def __init__(self, edges: Iterable[tuple[str, str]]):
        self.adjacency: dict[str, frozenset[str]] = {}
        adj: dict[str, set[str]] = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        self.adjacency = {name: frozenset(peers)
                          for name, peers in adj.items()}

    @classmethod
    def from_schema(cls, schema: Schema) -> "JoinGraph":
        return cls((fk.child, fk.parent) for fk in schema.foreign_keys)

    def neighbors(self, table: str) -> frozenset[str]:
        return self.adjacency.get(table, frozenset())

    def is_connected(self, subset: frozenset) -> bool:
        """True iff ``subset`` induces one connected component."""
        if not subset:
            return False
        if len(subset) == 1:
            return True
        start = next(iter(subset))
        seen = {start}
        frontier = deque([start])
        while frontier:
            here = frontier.popleft()
            for peer in self.neighbors(here) & subset:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == len(subset)

    def connected_subsets(self, tables: Iterable[str]) -> list[frozenset]:
        """Every non-empty connected subset of ``tables``, smallest
        first and lexicographic within a size — the deterministic
        fragment order the serving-tier sub-plan provider batches in."""
        members = sorted(set(tables))
        out: list[frozenset] = []
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                subset = frozenset(combo)
                if self.is_connected(subset):
                    out.append(subset)
        return out


def card_fn(source, query) -> CardFn:
    """The planner's card function for ``query``: ``source.cardinality``
    memoised per subset.

    ``source`` is any cardinality source — ``name`` plus
    ``cardinality(query, subset) -> float``, the value the planner
    prices with (each source applies its own floor).  The DP asks for a
    subset many times; the source sees it at most once per plan.
    """
    memo: dict[frozenset, float] = {}

    def fn(subset: frozenset) -> float:
        if subset not in memo:
            memo[subset] = source.cardinality(query, subset)
        return memo[subset]
    return fn


def _dp(tables: list[str], graph: JoinGraph, card: CardFn,
        pick) -> Plan:
    """The DP recurrence over connected subsets (<= 2^|tables| states):
    each subset keeps the split ``pick`` (``min`` or ``max``) chooses by
    cost.

    Mirrored partitions cost the same — :func:`~repro.optimizer.cost.
    join_cost` is build/probe-symmetric and both halves' DP costs are
    shared — so each split is enumerated once: left halves run up to
    half the subset size, and an even split keeps the half holding the
    smallest member.  That kept candidate is the one the full
    enumeration's earliest-extremum tie-break chose, so plans are
    bit-identical to the full enumeration at half the partition work.
    """
    if isinstance(graph, str):
        raise TypeError("the planner takes a JoinGraph, not a center-table "
                        "name; build one with JoinGraph.from_schema")
    tables = sorted(tables)
    if not tables:
        raise ValueError("no tables to plan")

    best: dict[frozenset, tuple[float, Plan]] = {}
    for name in tables:
        s = frozenset([name])
        best[s] = (scan_cost(card(s)), Plan(s))

    for size in range(2, len(tables) + 1):
        for combo in combinations(tables, size):
            subset = frozenset(combo)
            if not graph.is_connected(subset):
                continue
            candidates: list[tuple[float, Plan]] = []
            members = sorted(subset)
            out = card(subset)
            for r in range(1, size // 2 + 1):
                for left_combo in combinations(members, r):
                    left = frozenset(left_combo)
                    if 2 * r == size and members[0] not in left:
                        continue
                    right = subset - left
                    if left not in best or right not in best:
                        continue
                    cost = (best[left][0] + best[right][0]
                            + join_cost(card(left), card(right), out))
                    candidates.append(
                        (cost, Plan(subset, best[left][1], best[right][1])))
            if candidates:
                best[subset] = pick(candidates, key=lambda t: t[0])
    full = frozenset(tables)
    if full not in best:
        raise RuntimeError("query graph is disconnected; cannot plan")
    return best[full][1]


def best_plan(tables: list[str], graph: JoinGraph, card: CardFn) -> Plan:
    """The cheapest connected plan under ``card`` (no cross products)."""
    return _dp(tables, graph, card, min)


def worst_plan(tables: list[str], graph: JoinGraph, card: CardFn) -> Plan:
    """The most expensive connected plan under ``card`` — with true
    cardinalities, worst/best cost is a query's plan spread."""
    return _dp(tables, graph, card, max)


def plan_for_query(schema: Schema, tables: list[str], card: CardFn) -> Plan:
    """Best DP plan for the query's tables under a card function."""
    return best_plan(tables, JoinGraph.from_schema(schema), card)
