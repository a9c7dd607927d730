"""Query execution: scan -> filter -> aggregate/project -> sort -> limit.

The executor is chunk-vectorized: pages stream through as column-chunk
environments, predicates and scalar expressions evaluate with numpy, and
aggregates fold per-group segments.  A one-rule planner swaps the sequential
scan for the table's lookup path when the WHERE clause pins a column with an
equality conjunct — on a heap table the B-tree index scan the paper's
benchmark relies on for per-household queries.

A table is anything with a ``schema``, ``scan_column_chunks(names)`` and
``lookup(column, key)``: the heap :class:`~repro.relational.table.Table`,
or the in-place :class:`~repro.relational.view.ReadingsView` of a dataset.

Supported SQL shape is the subset of :mod:`repro.sql`; deliberate
limitations (documented, enforced with clear errors): single-table queries,
no NULLs, ORDER BY may only reference output columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.exceptions import SqlAnalysisError
from repro.relational.expr import (
    SCALAR_FUNCTIONS,
    collect_aggregates,
    contains_aggregate,
    evaluate,
)
from repro.relational.functions import AGGREGATES, Aggregate
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    SelectItem,
    SelectStatement,
    Star,
    UnaryOp,
)


@dataclass
class ResultSet:
    """A query result: ordered column names and materialized rows."""

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> np.ndarray:
        """One output column as an array."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise SqlAnalysisError(
                f"result has no column {name!r}; available: {self.columns}"
            ) from None
        values = [row[idx] for row in self.rows]
        if values and isinstance(values[0], np.ndarray):
            out = np.empty(len(values), dtype=object)
            out[:] = values
            return out
        return np.array(values)

    def to_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlAnalysisError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


# Planning helpers ----------------------------------------------------------


def _conjuncts(expr: Expression | None) -> list[Expression]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _recombine(conjuncts: list[Expression]) -> Expression | None:
    if not conjuncts:
        return None
    expr = conjuncts[0]
    for c in conjuncts[1:]:
        expr = BinaryOp("and", expr, c)
    return expr


def _index_access(
    where: Expression | None, table
) -> tuple[Iterator[dict[str, np.ndarray]] | None, Expression | None]:
    """Find a ``column = literal`` conjunct the table has an access path for.

    Returns ``(chunks, rest)``: the table's lookup chunks (None when no
    conjunct qualifies, so the caller scans) and the residual WHERE.
    """
    remaining: list[Expression] = []
    chunks = None
    for conj in _conjuncts(where):
        if chunks is None and isinstance(conj, BinaryOp) and conj.op == "=":
            sides = (conj.left, conj.right)
            for a, b in (sides, sides[::-1]):
                if isinstance(a, ColumnRef) and isinstance(b, Literal):
                    chunks = table.lookup(a.name, b.value)
                    if chunks is not None:
                        break
            else:
                remaining.append(conj)
            continue
        remaining.append(conj)
    return chunks, _recombine(remaining)


# Aggregation ---------------------------------------------------------------


class _GroupState:
    """Per-group accumulator: one state slot per aggregate call."""

    __slots__ = ("key_values", "states")

    def __init__(self, key_values: tuple, aggregates: list[Aggregate]) -> None:
        self.key_values = key_values
        self.states = [agg.create() for agg in aggregates]


def _segment_indices(key_arrays: list[np.ndarray], n: int) -> dict[tuple, np.ndarray]:
    """Row indices per distinct key tuple within one chunk."""
    if not key_arrays:
        return {(): np.arange(n)}
    groups: dict[tuple, list[int]] = {}
    for row, key in enumerate(zip(*key_arrays)):
        groups.setdefault(key, []).append(row)
    return {k: np.asarray(v) for k, v in groups.items()}


def _eval_scalar(expr: Expression, subst: Mapping, extra_fns: Mapping) -> object:
    """Evaluate an expression over per-group scalars with substitutions."""
    if expr in subst:
        return subst[expr]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        raise SqlAnalysisError(
            f"column {expr.name!r} must appear in GROUP BY or inside an aggregate"
        )
    if isinstance(expr, UnaryOp):
        value = _eval_scalar(expr.operand, subst, extra_fns)
        return -value if expr.op == "-" else (not bool(value))
    if isinstance(expr, BinaryOp):
        left = _eval_scalar(expr.left, subst, extra_fns)
        right = _eval_scalar(expr.right, subst, extra_fns)
        ops = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left / right,
            "%": lambda: left % right,
            "=": lambda: left == right,
            "!=": lambda: left != right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
            ">": lambda: left > right,
            ">=": lambda: left >= right,
            "and": lambda: bool(left) and bool(right),
            "or": lambda: bool(left) or bool(right),
        }
        try:
            return ops[expr.op]()
        except KeyError:
            raise SqlAnalysisError(f"unknown operator {expr.op!r}") from None
    if isinstance(expr, FunctionCall):
        fn = extra_fns.get(expr.name) or SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise SqlAnalysisError(f"unknown function {expr.name!r}")
        args = [_eval_scalar(a, subst, extra_fns) for a in expr.args]
        return fn(*args)
    raise SqlAnalysisError(f"cannot evaluate {expr!r} per group")


# Main entry ------------------------------------------------------------------


def execute_select(
    db,
    stmt: SelectStatement,
    scalar_functions: Mapping | None = None,
    aggregates: Mapping[str, Aggregate] | None = None,
) -> ResultSet:
    """Execute a parsed SELECT against a :class:`Database`."""
    table = db.table(stmt.table)
    agg_registry = dict(AGGREGATES)
    if aggregates:
        agg_registry.update(aggregates)
    extra_fns = dict(scalar_functions or {})
    agg_names = set(agg_registry)

    if stmt.joins and any(isinstance(i.expression, Star) for i in stmt.items):
        raise SqlAnalysisError("SELECT * is not supported with JOIN; list columns")
    items = _expand_star(stmt.items, table)
    is_aggregate_query = bool(stmt.group_by) or any(
        contains_aggregate(item.expression, agg_names) for item in items
    )

    if stmt.joins:
        chunks = iter([_joined_env(db, stmt, extra_fns)])
        residual_where = stmt.where
    else:
        chunks, residual_where = _index_access(stmt.where, table)
        if chunks is None:
            chunks = (
                dict(c) for c in table.scan_column_chunks(table.schema.names)
            )

    if is_aggregate_query:
        result = _run_aggregate(
            items, stmt, chunks, residual_where, extra_fns, agg_registry, agg_names
        )
    else:
        if stmt.having is not None:
            raise SqlAnalysisError("HAVING requires GROUP BY")
        result = _run_projection(items, chunks, residual_where, extra_fns)

    if stmt.distinct:
        result = ResultSet(columns=result.columns, rows=_distinct(result.rows))
    result = _order_and_limit(result, stmt, extra_fns)
    return result


def _distinct(rows: list[tuple]) -> list[tuple]:
    """Deduplicate rows, preserving first-seen order.

    Array-valued cells are keyed by their bytes so DISTINCT works on the
    array layouts too.
    """
    seen: set = set()
    out: list[tuple] = []
    for row in rows:
        key = tuple(
            v.tobytes() if isinstance(v, np.ndarray) else v for v in row
        )
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


# Joins ------------------------------------------------------------------


def _table_env(db, table_name: str, alias: str | None) -> dict[str, np.ndarray]:
    """Materialize one table as a qualified-name environment.

    Every column appears as ``<alias>.<col>`` (alias defaults to the table
    name); bare names are added later, only where unambiguous.  Join inputs
    are materialized fully — joins in this engine serve the analytics
    workloads, which are small relative to the readings table.
    """
    table = db.table(table_name)
    name = alias or table_name
    chunks: dict[str, list[np.ndarray]] = {c: [] for c in table.schema.names}
    for chunk in table.scan_column_chunks(table.schema.names):
        for col, arr in chunk.items():
            chunks[col].append(arr)
    env: dict[str, np.ndarray] = {}
    for col, parts in chunks.items():
        env[f"{name}.{col}"] = (
            np.concatenate(parts) if parts else np.array([])
        )
    return env


def _env_rows(env: dict[str, np.ndarray]) -> int:
    return next(iter(env.values())).shape[0] if env else 0


def _split_join_keys(
    on: Expression, left_env: dict, right_env: dict
) -> tuple[list[tuple[ColumnRef, ColumnRef]], list[Expression]]:
    """Partition the ON condition into equi-key pairs and residual conjuncts."""
    keys: list[tuple[ColumnRef, ColumnRef]] = []
    residual: list[Expression] = []
    for conj in _conjuncts(on):
        if isinstance(conj, BinaryOp) and conj.op == "=":
            a, b = conj.left, conj.right
            if isinstance(a, ColumnRef) and isinstance(b, ColumnRef):
                if a.name in left_env and b.name in right_env:
                    keys.append((a, b))
                    continue
                if b.name in left_env and a.name in right_env:
                    keys.append((b, a))
                    continue
        if isinstance(conj, Literal) and conj.value is True:
            continue  # ON TRUE: explicit cross join
        residual.append(conj)
    return keys, residual


def _hash_join(
    left_env: dict, right_env: dict, keys: list[tuple[ColumnRef, ColumnRef]]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs produced by an equi hash join."""
    n_left = _env_rows(left_env)
    build: dict[tuple, list[int]] = {}
    right_key_arrays = [right_env[r.name] for _, r in keys]
    for row, key in enumerate(zip(*right_key_arrays)):
        build.setdefault(key, []).append(row)
    left_idx: list[int] = []
    right_idx: list[int] = []
    left_key_arrays = [left_env[l.name] for l, _ in keys]
    for row, key in enumerate(zip(*left_key_arrays)):
        for match in build.get(key, ()):
            left_idx.append(row)
            right_idx.append(match)
    return np.asarray(left_idx, dtype=np.int64), np.asarray(
        right_idx, dtype=np.int64
    )


def _joined_env(db, stmt: SelectStatement, extra_fns) -> dict[str, np.ndarray]:
    """Execute the FROM clause's join chain into one environment."""
    env = _table_env(db, stmt.table, stmt.table_alias)
    for join in stmt.joins:
        right = _table_env(db, join.table, join.alias)
        overlap = set(env) & set(right)
        if overlap:
            raise SqlAnalysisError(
                f"duplicate table alias in join: {sorted(overlap)[:3]}; "
                "give each occurrence a distinct alias"
            )
        keys, residual = _split_join_keys(join.on, env, right)
        n_left, n_right = _env_rows(env), _env_rows(right)
        if keys:
            left_idx, right_idx = _hash_join(env, right, keys)
        else:
            # Key-less join: nested-loop cross product (the plan shape the
            # paper's Hive similarity self-join suffered from).
            left_idx = np.repeat(np.arange(n_left), n_right)
            right_idx = np.tile(np.arange(n_right), n_left)
        env = {
            **{name: arr[left_idx] for name, arr in env.items()},
            **{name: arr[right_idx] for name, arr in right.items()},
        }
        if residual:
            n = _env_rows(env)
            mask = np.asarray(
                evaluate(_recombine(residual), env, n, extra_fns), dtype=bool
            )
            env = {name: arr[mask] for name, arr in env.items()}
    # Add bare column names where they are unambiguous.
    bare_counts: dict[str, int] = {}
    for name in env:
        bare = name.split(".", 1)[1]
        bare_counts[bare] = bare_counts.get(bare, 0) + 1
    for name in list(env):
        bare = name.split(".", 1)[1]
        if bare_counts[bare] == 1:
            env[bare] = env[name]
    return env


def _expand_star(items: tuple[SelectItem, ...], table) -> list[SelectItem]:
    out: list[SelectItem] = []
    for item in items:
        if isinstance(item.expression, Star):
            out.extend(
                SelectItem(ColumnRef(name), None) for name in table.schema.names
            )
        else:
            out.append(item)
    return out


def _output_names(items: list[SelectItem]) -> list[str]:
    return [item.output_name(f"col{i + 1}") for i, item in enumerate(items)]


def _run_projection(items, chunks, where, extra_fns) -> ResultSet:
    names = _output_names(items)
    rows: list[tuple] = []
    for chunk in chunks:
        n = next(iter(chunk.values())).shape[0] if chunk else 0
        if n == 0:
            continue
        if where is not None:
            mask = np.asarray(evaluate(where, chunk, n, extra_fns), dtype=bool)
            if not mask.any():
                continue
            chunk = {k: v[mask] for k, v in chunk.items()}
            n = int(mask.sum())
        outputs = [evaluate(item.expression, chunk, n, extra_fns) for item in items]
        rows.extend(zip(*(np.asarray(o) for o in outputs)))
    return ResultSet(columns=names, rows=rows)


def _run_aggregate(
    items, stmt, chunks, where, extra_fns, agg_registry, agg_names
) -> ResultSet:
    # Collect the distinct aggregate calls across SELECT items and HAVING.
    agg_calls: list[FunctionCall] = []
    agg_sources = [item.expression for item in items]
    if stmt.having is not None:
        agg_sources.append(stmt.having)
    for expr in agg_sources:
        for call in collect_aggregates(expr, agg_names):
            if call not in agg_calls:
                agg_calls.append(call)
    agg_impls = [agg_registry[c.name] for c in agg_calls]

    group_exprs = list(stmt.group_by)
    groups: dict[tuple, _GroupState] = {}

    for chunk in chunks:
        n = next(iter(chunk.values())).shape[0] if chunk else 0
        if n == 0:
            continue
        if where is not None:
            mask = np.asarray(evaluate(where, chunk, n, extra_fns), dtype=bool)
            if not mask.any():
                continue
            chunk = {k: v[mask] for k, v in chunk.items()}
            n = int(mask.sum())
        key_arrays = [
            np.asarray(evaluate(e, chunk, n, extra_fns)) for e in group_exprs
        ]
        # Evaluate each aggregate's arguments once per chunk.
        call_args: list[list[np.ndarray]] = []
        for call in agg_calls:
            if len(call.args) == 1 and isinstance(call.args[0], Star):
                call_args.append([np.ones(n)])  # count(*): any column works
            else:
                call_args.append(
                    [np.asarray(evaluate(a, chunk, n, extra_fns)) for a in call.args]
                )
        for key, idx in _segment_indices(key_arrays, n).items():
            state = groups.get(key)
            if state is None:
                state = _GroupState(key, agg_impls)
                groups[key] = state
            for slot, (impl, args) in enumerate(zip(agg_impls, call_args)):
                segments = [a[idx] for a in args]
                state.states[slot] = impl.update(state.states[slot], *segments)

    # No groups and no GROUP BY: SQL still returns one row of aggregates.
    if not groups and not group_exprs:
        groups[()] = _GroupState((), agg_impls)

    names = _output_names(items)
    rows: list[tuple] = []
    for key, state in groups.items():
        subst: dict = {}
        for expr, value in zip(group_exprs, key):
            subst[expr] = value
        for call, impl, acc in zip(agg_calls, agg_impls, state.states):
            subst[call] = impl.finalize(acc)
        if stmt.having is not None and not bool(
            _eval_scalar(stmt.having, subst, extra_fns)
        ):
            continue
        rows.append(
            tuple(_eval_scalar(item.expression, subst, extra_fns) for item in items)
        )
    return ResultSet(columns=names, rows=rows)


def _order_and_limit(result: ResultSet, stmt, extra_fns) -> ResultSet:
    if stmt.order_by:
        env = {
            name: result.column(name) for name in result.columns
        }
        n = len(result.rows)
        keys: list[np.ndarray] = []
        for item in reversed(stmt.order_by):
            values = np.asarray(evaluate(item.expression, env, n, extra_fns))
            if not item.ascending:
                if values.dtype == object:
                    raise SqlAnalysisError(
                        "DESC ordering on non-numeric columns is not supported"
                    )
                values = -values
            keys.append(values)
        order = np.lexsort(keys) if keys else np.arange(n)
        result = ResultSet(
            columns=result.columns, rows=[result.rows[i] for i in order]
        )
    if stmt.limit is not None:
        result = ResultSet(columns=result.columns, rows=result.rows[: stmt.limit])
    return result
