"""Tests for the SQL predicate parser."""

import numpy as np
import pytest

from repro.data import Table
from repro.workload import (DNFQuery, Query, SQLParseError, parse_predicates,
                            parse_query, true_cardinality,
                            true_disjunction_cardinality)


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    return Table.from_raw("t", {
        "a": rng.integers(0, 20, 1000),
        "b": rng.integers(0, 5, 1000),
        "name": rng.choice(np.array(["alice", "bob", "carol"]), 1000),
    })


class TestBasicPredicates:
    def test_comparison_ops(self):
        q = parse_predicates("a >= 3 AND b < 2")
        assert isinstance(q, Query)
        assert len(q) == 2
        assert q.predicates[0].op == ">=" and q.predicates[0].value == 3
        assert q.predicates[1].op == "<" and q.predicates[1].value == 2

    def test_not_equal_variants(self):
        q1 = parse_predicates("a != 3")
        q2 = parse_predicates("a <> 3")
        assert q1.predicates[0].op == q2.predicates[0].op == "!="

    def test_string_literal(self):
        q = parse_predicates("name = 'bob'")
        assert q.predicates[0].value == "bob"

    def test_string_with_escaped_quote(self):
        q = parse_predicates("name = 'o''brien'")
        assert q.predicates[0].value == "o'brien"

    def test_float_literal(self):
        q = parse_predicates("a <= 3.5")
        assert q.predicates[0].value == 3.5

    def test_negative_number(self):
        q = parse_predicates("a >= -2")
        assert q.predicates[0].value == -2

    def test_in_clause(self):
        q = parse_predicates("b IN (1, 2, 3)")
        assert q.predicates[0].op == "IN"
        assert q.predicates[0].value == (1, 2, 3)

    def test_between(self):
        q = parse_predicates("a BETWEEN 2 AND 8")
        assert len(q) == 2
        assert q.predicates[0].op == ">=" and q.predicates[0].value == 2
        assert q.predicates[1].op == "<=" and q.predicates[1].value == 8

    def test_empty_input(self):
        q = parse_predicates("")
        assert isinstance(q, Query) and len(q) == 0


class TestBooleanStructure:
    def test_or_returns_dnf(self):
        q = parse_predicates("a = 1 OR a = 2")
        assert isinstance(q, DNFQuery)
        assert len(q) == 2

    def test_parentheses_and_distribution(self):
        q = parse_predicates("(a = 1 OR a = 2) AND b = 3")
        assert isinstance(q, DNFQuery)
        assert len(q) == 2
        for conj in q.conjunctions:
            cols = [p.column for p in conj.predicates]
            assert "b" in cols

    def test_nested_parens(self):
        q = parse_predicates("((a = 1))")
        assert isinstance(q, Query)
        assert q.predicates[0].value == 1

    def test_semantics_match_execution(self, table):
        text = "(a <= 5 OR a >= 15) AND b = 2"
        parsed = parse_predicates(text)
        raw_a, raw_b = table.raw_column("a"), table.raw_column("b")
        expected = int((((raw_a <= 5) | (raw_a >= 15)) & (raw_b == 2)).sum())
        assert true_disjunction_cardinality(table, parsed) == expected

    def test_between_with_and_chain(self, table):
        parsed = parse_predicates("a BETWEEN 3 AND 10 AND b = 1")
        raw_a, raw_b = table.raw_column("a"), table.raw_column("b")
        expected = int(((raw_a >= 3) & (raw_a <= 10) & (raw_b == 1)).sum())
        assert true_cardinality(table, parsed) == expected


class TestFullQueries:
    def test_select_count_where(self, table):
        parsed = parse_query(
            "SELECT COUNT(*) FROM t WHERE a >= 10 AND name = 'alice'")
        raw_a = table.raw_column("a")
        names = table.raw_column("name")
        expected = int(((raw_a >= 10) & (names == "alice")).sum())
        assert true_cardinality(table, parsed) == expected

    def test_select_without_where(self):
        parsed = parse_query("SELECT COUNT(*) FROM t")
        assert isinstance(parsed, Query) and len(parsed) == 0

    def test_bare_fragment(self):
        parsed = parse_query("a = 1")
        assert len(parsed) == 1

    def test_case_insensitive_keywords(self):
        parsed = parse_query("select count(*) from t where a = 1 and b = 2")
        assert len(parsed) == 2


class TestErrors:
    def test_garbage_input(self):
        with pytest.raises(SQLParseError):
            parse_predicates("a ~~ 3")

    def test_missing_operator(self):
        with pytest.raises(SQLParseError):
            parse_predicates("a 3")

    def test_unclosed_paren(self):
        with pytest.raises(SQLParseError):
            parse_predicates("(a = 1")

    def test_trailing_tokens(self):
        with pytest.raises(SQLParseError):
            parse_predicates("a = 1 b = 2")

    def test_bad_in_list(self):
        with pytest.raises(SQLParseError):
            parse_predicates("a IN (1 2)")


# ----------------------------------------------------------------------
# Property-style fuzz: parse -> routing_signature -> route
# ----------------------------------------------------------------------
from repro.serve import (AmbiguousNamespaceError, MultiTableRegistry,
                         Namespace, UnknownNamespaceError)
from repro.workload import Predicate, routing_signature


def _sql_str(value: str) -> str:
    """Render a string literal with SQL '' quote escaping."""
    return "'" + value.replace("'", "''") + "'"


class _Gen:
    """Seeded random conjunction generator.

    Emits (sql_text, expected Query) pairs where the SQL renders every
    grammar production the parser supports (all comparison ops, ``<>``
    normalisation, ``IN`` lists, ``BETWEEN`` expansion, int/float/string
    literals including embedded quotes) over a chosen column vocabulary.
    """

    STRINGS = ("alice", "bob", "o'brien", "d''arcy", "x y z", "")

    def __init__(self, rng: np.random.Generator, columns: tuple[str, ...]):
        self.rng = rng
        self.columns = columns

    def literal(self) -> tuple[str, object]:
        kind = self.rng.integers(0, 3)
        if kind == 0:
            v = int(self.rng.integers(-50, 50))
            return str(v), v
        if kind == 1:
            v = round(float(self.rng.uniform(-25, 25)), 3)
            return repr(v), v
        v = str(self.rng.choice(self.STRINGS))
        return _sql_str(v), v

    def predicate(self, column: str) -> tuple[str, list[Predicate]]:
        """One source-level predicate: (sql_fragment, expected preds)."""
        op = str(self.rng.choice(
            ["=", "!=", "<>", "<", "<=", ">", ">=", "IN", "BETWEEN"]))
        if op == "IN":
            n = int(self.rng.integers(1, 4))
            pairs = [self.literal() for _ in range(n)]
            sql = f"{column} IN ({', '.join(s for s, _ in pairs)})"
            return sql, [Predicate(column, "IN",
                                   tuple(v for _, v in pairs))]
        if op == "BETWEEN":
            lo = int(self.rng.integers(-50, 0))
            hi = int(self.rng.integers(0, 50))
            sql = f"{column} BETWEEN {lo} AND {hi}"
            return sql, [Predicate(column, ">=", lo),
                         Predicate(column, "<=", hi)]
        lit_sql, lit = self.literal()
        norm = "!=" if op == "<>" else op
        return f"{column} {op} {lit_sql}", [Predicate(column, norm, lit)]

    def conjunction(self) -> tuple[str, Query]:
        n = int(self.rng.integers(1, 5))
        cols = self.rng.choice(self.columns, size=n)  # repeats allowed
        frags, preds = [], []
        for col in cols:
            sql, expanded = self.predicate(str(col))
            frags.append(sql)
            preds.extend(expanded)
        return " AND ".join(frags), Query(tuple(preds))


class _StubServer:
    """Stands in for UAEServer; routing never touches the server."""


def _stub_registry() -> MultiTableRegistry:
    registry = MultiTableRegistry()
    registry.register(Namespace(
        "users", _StubServer(), "table",
        columns=frozenset({"age", "score", "name"})))
    registry.register(Namespace(
        "vehicles", _StubServer(), "table",
        columns=frozenset({"county", "color_code", "weight"})))
    registry.register(Namespace(
        "j_small", _StubServer(), "join",
        tables=frozenset({"title", "movie_companies"})))
    registry.register(Namespace(
        "j_big", _StubServer(), "join",
        tables=frozenset({"title", "movie_companies", "movie_info"})))
    return registry


class _StubJoinQuery:
    """Duck-typed join query: routing_signature keys on ``.tables``."""

    def __init__(self, tables):
        self.tables = frozenset(tables)


NS_COLUMNS = {"users": ("age", "score", "name"),
              "vehicles": ("county", "color_code", "weight")}


class TestParseSignatureRouteFuzz:
    """Seeded property fuzz over parse -> routing_signature -> resolve.

    No hypothesis dependency: a seeded numpy Generator drives a few
    hundred random conjunctions per property, so failures reproduce
    bit-exactly from the hard-coded seed.
    """

    ITERS = 200

    def test_parse_matches_generated_query(self):
        rng = np.random.default_rng(20210807)
        gen = _Gen(rng, NS_COLUMNS["users"] + NS_COLUMNS["vehicles"])
        for _ in range(self.ITERS):
            sql, expected = gen.conjunction()
            parsed = parse_predicates(sql)
            assert isinstance(parsed, Query)
            assert parsed == expected, sql

    def test_str_round_trips_through_the_parser(self):
        """``parse_query(str(q)) == q`` — including NumPy-scalar values,
        which NumPy 2 would otherwise print as ``np.int32(3)`` (a
        ``SQLParseError``), strings with embedded quotes, and IN lists."""
        rng = np.random.default_rng(20260928)
        gen = _Gen(rng, NS_COLUMNS["users"] + NS_COLUMNS["vehicles"])
        wrap = {int: (np.int32, np.int64), float: (np.float64,),
                str: (np.str_,)}

        def numpyfied(value):
            if isinstance(value, tuple):
                return tuple(numpyfied(v) for v in value)
            if rng.integers(0, 2):
                return value
            kinds = wrap[type(value)]
            return kinds[int(rng.integers(0, len(kinds)))](value)

        for _ in range(self.ITERS):
            _sql, plain = gen.conjunction()
            query = Query(tuple(Predicate(p.column, p.op, numpyfied(p.value))
                                for p in plain.predicates))
            text = str(query)
            assert "np." not in text, text
            assert parse_query(text) == plain, text
            assert parse_query(str(plain)) == plain, str(plain)

    def test_parse_is_deterministic(self):
        rng = np.random.default_rng(7)
        gen = _Gen(rng, NS_COLUMNS["users"])
        for _ in range(self.ITERS):
            sql, _ = gen.conjunction()
            first = parse_predicates(sql)
            second = parse_predicates(sql)
            assert first == second
            assert routing_signature(first) == routing_signature(second)

    def test_signature_is_predicated_column_set(self):
        rng = np.random.default_rng(11)
        gen = _Gen(rng, NS_COLUMNS["vehicles"])
        for _ in range(self.ITERS):
            sql, expected = gen.conjunction()
            kind, targets = routing_signature(parse_predicates(sql))
            assert kind == "table"
            assert targets == frozenset(p.column
                                        for p in expected.predicates)

    def test_route_lands_on_owning_namespace(self):
        rng = np.random.default_rng(13)
        registry = _stub_registry()
        gens = {name: _Gen(rng, cols) for name, cols in NS_COLUMNS.items()}
        for i in range(self.ITERS):
            name = ("users", "vehicles")[i % 2]
            sql, _ = gens[name].conjunction()
            parsed = parse_predicates(sql)
            space = registry.resolve(parsed)
            assert space.name == name, sql
            # routing is deterministic: same parsed query, same namespace
            assert registry.resolve(parsed) is space
            assert registry.resolve(parse_predicates(sql)) is space

    def test_unknown_column_always_raises_typed(self):
        """A query touching any unregistered column must raise
        UnknownNamespaceError -- never silently land on a namespace."""
        rng = np.random.default_rng(17)
        registry = _stub_registry()
        gen = _Gen(rng, NS_COLUMNS["users"])
        cols = NS_COLUMNS["users"]
        for i in range(self.ITERS):
            # build per-predicate fragments (no string splitting: BETWEEN
            # fragments contain a nested AND) and splice in an unknown
            # column at a random position
            n = int(rng.integers(1, 4))
            frags = [gen.predicate(str(rng.choice(cols)))[0]
                     for _ in range(n)]
            frags.insert(int(rng.integers(0, n + 1)), f"nope_{i} = 1")
            parsed = parse_predicates(" AND ".join(frags))
            with pytest.raises(UnknownNamespaceError):
                registry.resolve(parsed)

    def test_cross_namespace_mix_raises_typed(self):
        """Conjunctions spanning two table namespaces have no owner."""
        rng = np.random.default_rng(19)
        registry = _stub_registry()
        u = _Gen(rng, NS_COLUMNS["users"])
        v = _Gen(rng, NS_COLUMNS["vehicles"])
        for _ in range(self.ITERS // 2):
            sql = f"{u.conjunction()[0]} AND {v.conjunction()[0]}"
            with pytest.raises(UnknownNamespaceError):
                registry.resolve(parse_predicates(sql))

    def test_join_route_fuzz(self):
        """Join-shaped queries: smallest covering schema wins, unknown
        tables raise UnknownNamespaceError."""
        rng = np.random.default_rng(23)
        registry = _stub_registry()
        for i in range(self.ITERS // 2):
            if rng.integers(0, 2):
                tables = {"title", "movie_companies"}
                expected = "j_small"
            else:
                tables = {"title", "movie_info"}
                expected = "j_big"  # only the big schema covers it
            query = _StubJoinQuery(tables)
            assert registry.resolve(query).name == expected
            with pytest.raises(UnknownNamespaceError):
                registry.resolve(_StubJoinQuery(tables | {f"ghost_{i}"}))

    def test_empty_query_is_ambiguous_not_misrouted(self):
        """The empty conjunction matches every table namespace; the
        router must refuse to guess rather than pick one."""
        registry = _stub_registry()
        with pytest.raises(AmbiguousNamespaceError):
            registry.resolve(parse_predicates(""))

    def test_explicit_namespace_overrides_routing(self):
        rng = np.random.default_rng(29)
        registry = _stub_registry()
        gen = _Gen(rng, NS_COLUMNS["users"])
        for _ in range(20):
            sql, _ = gen.conjunction()
            parsed = parse_predicates(sql)
            assert registry.resolve(parsed,
                                    namespace="vehicles").name == "vehicles"
            with pytest.raises(UnknownNamespaceError):
                registry.resolve(parsed, namespace="missing")
