"""Seeded workload generation: labelled SQL streams and request bytes.

Everything the load generator sends is built here, before any timing
starts, from ``--seed`` alone: the same seed gives byte-identical
payloads.  Queries follow the paper's in-workload recipe (Section 5.1.2:
a range on the large-domain attribute plus random filters whose literals
come from a real tuple), with two changes that make generation cheap
enough to run on every benchmark invocation:

* the anchor tuple is drawn from the rows *inside* the bounded range, so
  most candidates are non-empty (the library generator rejects ~7 of 8);
* true cardinalities are counted on that range's rows only, through a
  sort index on the bounded column, instead of a full-table scan.

SQL is rendered here rather than with ``str(Query)``: under NumPy 2 that
prints ``county >= np.int32(992)``, which ``parse_query`` rejects.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

import spec

_OPS = ("=", "<", "<=", ">", ">=")
CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")


# ----------------------------------------------------------------------
# SQL rendering
# ----------------------------------------------------------------------
def render_literal(value) -> str:
    """A literal ``parse_query`` reads back as the same Python value."""
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(render_literal(v) for v in value) + ")"
    if isinstance(value, (str, np.str_)):
        return "'" + str(value).replace("'", "''") + "'"
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean literals are not part of the grammar")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = repr(float(value))
        if "e" in text or "inf" in text or "nan" in text:
            raise ValueError(f"float {value!r} has no plain decimal form")
        return text
    raise TypeError(f"cannot render literal {value!r}")


def render_sql(table: str, predicates) -> str:
    """``predicates`` is an iterable of ``(column, op, literal)``."""
    where = " AND ".join(f"{col} {op} {render_literal(val)}"
                         for col, op, val in predicates)
    return f"SELECT COUNT(*) FROM {table} WHERE {where}"


# ----------------------------------------------------------------------
# Labelled streams
# ----------------------------------------------------------------------
_FIELDS = ("sql", "namespace", "truth", "rows")


@dataclass
class Labelled:
    """SQL strings with their namespace, true cardinality and the row
    count of the table the truth was counted on (the estimate's upper
    bound)."""

    sql: list = field(default_factory=list)
    namespace: list = field(default_factory=list)
    truth: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sql)

    def take(self, indices) -> "Labelled":
        indices = list(indices)
        return Labelled(*([getattr(self, f)[i] for i in indices]
                          for f in _FIELDS))

    def extend(self, other: "Labelled") -> None:
        for f in _FIELDS:
            getattr(self, f).extend(getattr(other, f))

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in _FIELDS}

    @classmethod
    def from_json(cls, data: dict) -> "Labelled":
        return cls(*(data[f] for f in _FIELDS))


class TableSampler:
    """In-workload query generator over one table's code matrix."""

    def __init__(self, name: str, columns, codes: np.ndarray,
                 bounded: int | None = None):
        self.name = name
        self.columns = columns
        self.sizes = np.array([c.size for c in columns])
        self.bounded = int(np.argmax(self.sizes)) if bounded is None \
            else int(bounded)
        order = np.argsort(codes[:, self.bounded], kind="stable")
        self.block = np.ascontiguousarray(codes[order])
        self.key = self.block[:, self.bounded]
        self.others = np.array([j for j in range(len(columns))
                                if j != self.bounded])
        self.num_rows = len(codes)
        self._seen: set = set()         # canonical forms handed out so far

    def generate(self, n: int, rng: np.random.Generator, *,
                 volume: float = 0.01, center_range=(0.0, 1.0),
                 filters=(5, 11)) -> tuple[list, list]:
        """``n`` non-empty queries as ``(predicate lists, truths)``.  No
        two queries this sampler ever returns select the same rows by
        construction of their per-column code intervals, so the result
        cache (keyed on exactly those) can never answer one from
        another."""
        preds_out: list = []
        truths: list = []
        while len(preds_out) < n:
            want = n - len(preds_out)
            self._candidates(max(64, int(want * 1.6)), rng, volume,
                             center_range, filters, preds_out, truths, n)
        return preds_out, truths

    def _candidates(self, m, rng, volume, center_range, filters,
                    preds_out, truths, n) -> None:
        nb = int(self.sizes[self.bounded])
        width = max(1, int(round(volume * nb)))
        c_lo = int(center_range[0] * (nb - 1))
        c_hi = max(int(center_range[1] * (nb - 1)), 1)
        centers = rng.integers(c_lo, c_hi + 1, size=m)
        lo = np.maximum(0, centers - width // 2)
        hi = np.minimum(nb - 1, lo + width - 1)
        start = np.searchsorted(self.key, lo, side="left")
        stop = np.searchsorted(self.key, hi, side="right")
        anchor = start + (rng.random(m) * (stop - start)).astype(np.int64)
        f_hi = min(filters[1], len(self.others))
        f_lo = min(filters[0], f_hi)
        nf = rng.integers(f_lo, f_hi + 1, size=m)
        picks = np.argsort(rng.random((m, len(self.others))), axis=1)[:, :f_hi]
        ops = rng.integers(0, len(_OPS), size=(m, f_hi))
        bcol = self.columns[self.bounded]
        for i in range(m):
            if len(preds_out) >= n:
                return
            if stop[i] <= start[i]:
                continue
            cols = self.others[picks[i, :nf[i]]]
            a = self.block[anchor[i], cols]
            size = self.sizes[cols]
            op = np.where(size <= 2, 0, ops[i, :nf[i]])
            # op -> inclusive code interval around the anchor's code
            lows = np.where(op == 3, a + 1, np.where(op == 4, a,
                            np.where(op == 0, a, 0)))
            highs = np.where(op == 1, a - 1, np.where(op == 2, a,
                             np.where(op == 0, a, size - 1)))
            blk = self.block[start[i]:stop[i]][:, cols]
            card = int(((blk >= lows) & (blk <= highs)).all(axis=1).sum())
            if card == 0:
                continue
            key = (int(lo[i]), int(hi[i])) + tuple(sorted(
                (j, lw, hg) for j, lw, hg, sz in zip(
                    cols.tolist(), lows.tolist(), highs.tolist(),
                    size.tolist()) if lw > 0 or hg < sz - 1))
            if key in self._seen:
                continue
            self._seen.add(key)
            preds = [(bcol.name, ">=", bcol.values[lo[i]].item()),
                     (bcol.name, "<=", bcol.values[hi[i]].item())]
            for j, o, code in zip(cols.tolist(), op.tolist(), a.tolist()):
                col = self.columns[j]
                preds.append((col.name, _OPS[o], col.values[code].item()))
            preds_out.append(preds)
            truths.append(card)

    def labelled(self, n: int, rng, **kwargs) -> Labelled:
        preds, truths = self.generate(n, rng, **kwargs)
        return Labelled([render_sql(self.name, p) for p in preds],
                        [self.name] * n, [float(t) for t in truths],
                        [self.num_rows] * n)


def interleave(parts: list) -> Labelled:
    """Round-robin merge of per-namespace streams."""
    n = min(len(p) for p in parts)
    return Labelled(*([getattr(p, f)[i] for i in range(n) for p in parts]
                      for f in _FIELDS))


def zipf_indices(pool: int, draws: int, exponent: float,
                 rng: np.random.Generator) -> np.ndarray:
    """``draws`` indices into a pool whose popularity is Zipf(exponent)
    over a seeded rank permutation."""
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    ranks = rng.permutation(pool)
    return ranks[rng.choice(pool, size=draws, p=weights)]


# ----------------------------------------------------------------------
# Request bytes
# ----------------------------------------------------------------------
def estimate_payload(sql: str) -> bytes:
    return json.dumps({"sql": sql}).encode("utf-8")


def batch_payload(sqls: list, seed: int) -> bytes:
    return json.dumps({"sql": sqls, "seed": int(seed)}).encode("utf-8")


def feedback_payload(sql: str, truth: float) -> bytes:
    return json.dumps({"sql": sql, "true_cardinality": float(truth)}
                      ).encode("utf-8")


def digest(payloads) -> str:
    h = hashlib.sha256()
    for body in payloads:
        h.update(len(body).to_bytes(4, "big"))
        h.update(body)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Plans: everything one run sends
# ----------------------------------------------------------------------
def load_tables(names=spec.NAMESPACES) -> dict:
    from repro.data import load
    return {name: load(name, rows=spec.ROWS[name]) for name in names}


def _stream(tables: dict, n_total: int, rng) -> Labelled:
    per = -(-n_total // len(tables))
    return interleave([
        TableSampler(name, t.columns, t.codes).labelled(per, rng)
        for name, t in tables.items()])


def _pool_size(workload: str, seconds: float, trace: bool) -> int:
    """Requests to generate: a warm-up per round, then `POOL_HEADROOM` x
    what the reference host gets through in `seconds` of windows (a
    traced run has one round and adds a quarter-length untraced
    reference window)."""
    window = (1.25 if trace else 1.0) * seconds \
        * spec.REFERENCE_QPS[workload]
    return int((1 if trace else spec.ROUNDS) * spec.WARMUP_REQUESTS
               + spec.POOL_HEADROOM * window)


def plan_single(workload: str, seed: int, seconds: float,
                trace: bool) -> dict:
    """`unique` / `cluster`: the never-repeating stream S."""
    rng = np.random.default_rng([seed, 1])
    stream = _stream(load_tables(), _pool_size(workload, seconds, trace),
                     rng)
    return {"stream": stream.to_json()}


def plan_hot(seed: int, seconds: float, trace: bool) -> dict:
    """Zipf over a HOT_POOL-query pool.  The pool itself is the same
    for every seed — only which queries are popular and the order they
    arrive in are seeded — because the q-error of 64 queries drawn
    afresh would swing by tens of percent between seeds and say nothing
    about the program."""
    rng = np.random.default_rng([spec.HOT_POOL_SEED, 1])
    pool = _stream(load_tables(), spec.HOT_POOL, rng)
    order = zipf_indices(spec.HOT_POOL, _pool_size("hot", seconds, trace),
                         spec.HOT_ZIPF, np.random.default_rng([seed, 2]))
    return {"stream": pool.to_json(), "order": order.tolist()}


def plan_batch(seed: int, seconds: float, trace: bool) -> dict:
    """BATCH_QUERIES queries of one namespace per request, namespaces
    taken in `BATCH_ROTATION` order; request i carries ``seed = i``."""
    rng = np.random.default_rng([seed, 3])
    tables = load_tables()
    size = spec.BATCH_QUERIES
    warmups = (1 if trace else spec.ROUNDS) * spec.WARMUP_REQUESTS
    n_req = _pool_size("batch", seconds, trace) - warmups + warmups // size
    rotation = spec.BATCH_ROTATION
    turns = {name: rotation.count(name) * -(-n_req // len(rotation))
             for name in tables}
    parts = {name: TableSampler(name, t.columns, t.codes).labelled(
        turns[name] * size, rng) for name, t in tables.items()}
    used = dict.fromkeys(tables, 0)
    stream = Labelled()
    for i in range(n_req):
        name = rotation[i % len(rotation)]
        stream.extend(parts[name].take(range(used[name],
                                             used[name] + size)))
        used[name] += size
    return {"stream": stream.to_json()}


def plan_refresh(seed: int, seconds: float, trace: bool) -> dict:
    """Reader pool on the base table; shifted feedback and held-out
    probes on the inserted rows' key region, labelled on the grown
    table.  The reader's queries and their order are seeded; the shifted
    feedback and probes are the same for every seed, like `hot`'s pool:
    what the refined model learned from 300 freshly drawn queries moves
    its held-out qerr_p95 by 20 % between seeds, which would drown any
    change to the trainer."""
    from repro.data import load
    rng = np.random.default_rng([seed, 4])
    name = spec.REFRESH_TABLE
    full = load(name, rows=spec.ROWS[name])
    base, inserts = spec.drift_split(full.codes)
    reader = TableSampler(name, full.columns, base, bounded=0).labelled(
        spec.REFRESH_READER_POOL, rng)
    # a round is work-based (`seconds` does not size it): reads for
    # four times as long as the rounds take on the reference host
    reads = int(spec.REFRESH_READER_RATE * 4 * spec.REFRESH_SECONDS
                * spec.ROUNDS)
    order = zipf_indices(spec.REFRESH_READER_POOL, reads,
                         spec.REFRESH_READER_ZIPF, rng)
    top = full.columns[0].size - 1
    region = (min(0.95, int(inserts[:, 0].min()) / top + 0.02), 1.0)
    sampler = TableSampler(name, full.columns,
                           np.vstack([base, inserts]), bounded=0)
    shift_rng = np.random.default_rng([spec.REFRESH_SHIFT_SEED, 5])
    kw = dict(volume=spec.SHIFT_VOLUME, center_range=region,
              filters=spec.SHIFT_FILTERS)
    return {"stream": reader.to_json(), "order": order.tolist(),
            "feedback": sampler.labelled(spec.REFRESH_FEEDBACK, shift_rng,
                                         **kw).to_json(),
            "probes": sampler.labelled(spec.REFRESH_PROBES, shift_rng,
                                       **kw).to_json()}


def _spec_hash() -> str:
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("spec.py", "workloads.py"):
        with open(os.path.join(here, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build_plan(workload: str, seed: int, seconds: float,
               trace: bool = False, use_cache: bool = True) -> dict:
    """The run's full input, from `perf/.cache/` when this (workload,
    seed, seconds, trace, spec) was generated before.  `cluster` shares
    `unique`'s stream — same generator, same seed, sized for the faster
    of the two fronts — so their difference is the front alone."""
    kind = "unique" if workload == "cluster" else workload
    seconds = float(seconds)
    if kind == "unique":
        sized = max(("unique", "cluster"),
                    key=lambda w: spec.REFERENCE_QPS[w])
        args = (sized, seed, seconds, trace)
        make = plan_single
    else:
        args = (seed, seconds, trace)
        make = {"hot": plan_hot, "batch": plan_batch,
                "refresh": plan_refresh}[kind]
    path = os.path.join(CACHE_DIR, f"{kind}-s{seed}-t{seconds:g}-"
                        f"x{int(trace)}-{_spec_hash()}.json")
    if use_cache and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    plan = make(*args)
    if use_cache:
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        os.replace(tmp, path)
    return plan


def check_roundtrip(stream: Labelled) -> None:
    """Every SQL string must parse back to the predicates it renders —
    the wire path is only real if the server's parser accepts it."""
    from repro.workload.sqlparse import parse_query
    for sql in stream.sql:
        query = parse_query(sql)
        again = render_sql(sql.split(" FROM ", 1)[1].split(" ", 1)[0],
                           [(p.column, p.op, p.value)
                            for p in query.predicates])
        if again != sql:
            raise AssertionError(f"SQL does not round-trip: {sql!r} -> "
                                 f"{again!r}")
