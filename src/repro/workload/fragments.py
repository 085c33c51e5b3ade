"""Query fragments: sub-queries over table subsets.

The optimizer's DP enumeration asks for the cardinality of every connected
*fragment* of a join query — the sub-query restricted to a table subset.
:func:`extract_fragment` produces that sub-query for any query shape that
carries ``tables`` + ``predicates`` (duck-typed, like
:func:`~repro.workload.predicate.routing_signature`, so the workload layer
never imports the joins package), and :func:`fragment_signature` gives a
stable, hashable identity for caching served fragment estimates per model
version (see :class:`repro.optimizer.subplan.ServingCardinalityProvider`).
"""

from __future__ import annotations

from typing import Iterable


class FragmentError(ValueError):
    """Asked for a fragment over tables the query does not cover."""


def extract_fragment(query, tables: Iterable[str]):
    """The sub-query of ``query`` over the table subset ``tables``.

    Keeps exactly the predicates whose (table-qualified) column belongs
    to a kept table, in their original order, and returns a new query of
    the same type over the sorted subset.  The planner's cardinality
    sources cut their fragments with it, and it underpins cross-schema
    routing: a fragment's
    :func:`~repro.workload.predicate.routing_signature` names only the
    tables it actually touches.

    Raises :class:`FragmentError` when ``tables`` is empty or names a
    table the query does not join.
    """
    wanted = frozenset(tables)
    if not wanted:
        raise FragmentError("cannot extract a fragment over zero tables")
    have = frozenset(getattr(query, "tables", None) or ())
    if not have:
        raise FragmentError(
            f"query {query!s} has no tables; fragments are only defined "
            "for join-shaped queries")
    missing = wanted - have
    if missing:
        raise FragmentError(
            f"tables {sorted(missing)} are not joined by {query!s}")
    preds = tuple(p for p in query.predicates
                  if p.column.split(".", 1)[0] in wanted)
    return type(query)(tuple(sorted(wanted)), preds)


def fragment_signature(query) -> tuple:
    """A stable, hashable identity for a (fragment) query.

    Two queries with the same tables and the same predicate
    multiset share a signature, independent of predicate order —
    the key the serving-tier sub-plan cache is kept on (together
    with the model version).  ``repr`` normalises literals so numpy
    scalars and Python numbers of equal value collide only when their
    reprs do, which is exactly the bit-care the seeded serving path
    wants.
    """
    tables = tuple(sorted(getattr(query, "tables", None) or ()))
    preds = tuple(sorted((p.column, p.op, repr(p.value))
                         for p in query.predicates))
    return tables, preds
