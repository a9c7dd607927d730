"""A miniature relational DBMS — the PostgreSQL analogue substrate.

Architecture (deliberately conventional):

* :mod:`repro.relational.types` — schema and column types (including the
  ``FLOAT_ARRAY`` type used by the paper's Figure 9 array layout);
* :mod:`repro.relational.storage` — disk-backed, column-chunked pages with
  an LRU buffer pool (cold start = empty pool, warm start = populated);
* :mod:`repro.relational.btree` — a B-tree secondary index (the paper
  builds one on household id);
* :mod:`repro.relational.table` / :mod:`repro.relational.catalog` — heap
  tables and the database catalog;
* :mod:`repro.relational.expr` / :mod:`repro.relational.functions` —
  vectorized expression evaluation and the function registries;
* :mod:`repro.relational.executor` — Volcano-style operators plus a small
  planner that compiles parsed SELECT statements;
* :mod:`repro.relational.madlib` — the in-database analytics library
  (histogram, quantile, linear regression, ...) modelled on MADLib;
* :mod:`repro.relational.layouts` — the three smart-meter table layouts of
  Figure 9;
* :mod:`repro.relational.view` — the READINGS layout read in place from a
  dataset's matrices, bit-identical to the heap with no load (what the
  serving plane queries).
"""

from repro.relational.catalog import Database
from repro.relational.types import Column, ColumnType, Schema

__all__ = ["Column", "ColumnType", "Database", "Schema"]
