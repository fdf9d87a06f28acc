"""Policy pushdown: compile Early Pruning into the SQL statement itself.

Every policied read used to fetch facet rows and resolve each guarding
label in Python -- O(labels) policy evaluations per request.  This module
materialises policy *outcomes* instead: a label-assignment store table
(:data:`STORE_TABLE`) holds, per ``(model table, viewer)``, every non-empty
``jvars`` encoding whose branches are all consistent with the viewer's
resolved label assignment.  A pruned query then appends one predicate per
involved table::

    (jvars = '' OR jvars IN (SELECT jvars FROM "__jacq_labels__"
                             WHERE table_name = ? AND viewer_key = ?))

and the *database engine* prunes -- one SQL statement for
``filter().fetch()``, ``count()`` and ``aggregate()`` on both backends.

Correctness is by construction, not by re-deriving policies in SQL: the
store is populated by the same :func:`repro.form.manager._resolve_label`
pipeline the Python path uses (the Python path stays both the fallback and
the differential-testing oracle, see ``tests/fuzz/``).  Population is set
at a time: one table scan, then each distinct label evaluated once against
the pre-read secret instance -- two statements per refill (the scan and
the slice swap) at any table size.  Because label names
embed the record (``Table.jid.group``) and :func:`repro.form.marshal.format_jvars`
canonicalises branch order, a non-empty ``jvars`` string identifies its
label assignment exactly, so membership of the *string* decides visibility
of the *row*.

The decision procedure consumes :mod:`repro.analysis.classify` shapes:

* ``viewer-independent`` / ``equality-on-viewer`` models are eligible;
* any ``opaque`` group keeps the model on the Python path and counts
  ``plan.policy_pushdown.opaque_fallback`` -- no silent third state.

Invalidation (epoch coherence):

* every store entry is stamped with the global policy epoch, the schema
  generation and a write mark taken *before* the population read;
* models whose policies provably read only their own row (shape checks
  pass, inferred read set is not TOP, no cross-record reads, no ORM query
  in the policy body) invalidate *narrowly* on their own table's write
  generation; everything else invalidates on any write (a broad counter
  fed by the invalidation bus);
* out-of-band policy inputs (e.g. the conference phase) must call
  :func:`repro.cache.epoch.bump_policy_epoch` -- the same contract the
  label cache already imposes.

>>> _label_parts("not a label") is None
True
>>> _viewer_key_text(("User", 3))
"('User', 3)"
"""

from __future__ import annotations

import ast
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.analysis import symbolic as sym
from repro.cache.bus import InvalidationBus, subscribe_weak
from repro.cache.epoch import policy_epoch
from repro.cache.label_cache import viewer_cache_key
from repro.db.expr import (
    AndExpr,
    ColumnRef,
    Comparison,
    Expression,
    FacetBranch,
    InSubquery,
    IsNull,
    Literal,
    NotExpr,
    NullSafeEq,
    OrExpr,
    and_all,
    eq,
    ne,
    prefix_range,
)
from repro.db.query import Query
from repro.db.schema import Column, ColumnType, IndexSpec, TableSchema
from repro.form.marshal import parse_jvars

#: The label-assignment store: per (model table, viewer), the jvars
#: encodings visible to that viewer.  The double-underscore name keeps it
#: out of the application namespace, like Django's own meta tables.
STORE_TABLE = "__jacq_labels__"


def _store_schema() -> TableSchema:
    # The composite (table_name, viewer_key) index backs the store-slice
    # subselect every pushed-down statement joins against -- one probe per
    # (model table, viewer) slice instead of two single-column narrowings.
    return TableSchema(
        STORE_TABLE,
        (
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("table_name", ColumnType.TEXT, indexed=True),
            Column("viewer_key", ColumnType.TEXT, indexed=True),
            Column("jvars", ColumnType.TEXT, default=""),
        ),
        indexes=(IndexSpec(("table_name", "viewer_key")),),
    )


def _viewer_key_text(viewer_key: Hashable) -> str:
    """The stored spelling of a viewer identity (stable across requests)."""
    return repr(viewer_key)


def _label_parts(name: str) -> Optional[Tuple[str, int, str]]:
    """``(table, jid, group key)`` of a ``Table.jid.group`` label name, or
    ``None`` when the name does not follow the FORM convention.

    >>> _label_parts("Paper.3.title")
    ('Paper', 3, 'title')
    """
    parts = name.split(".")
    if len(parts) != 3:
        return None
    table, jid_text, group_key = parts
    try:
        jid = int(jid_text)
    except ValueError:
        return None
    return table, jid, group_key


def _is_model_group(table: str, group_key: str) -> bool:
    """Whether a label's ``(table, group key)`` names a registered model's
    policy group.

    Anything else (pc labels pushed by application code, ad-hoc value-facet
    labels) has no write/epoch invalidation hook the store could subscribe
    to, so tables carrying such labels stay on the Python path.
    """
    from repro.form.model import ModelRegistry

    try:
        model = ModelRegistry.get(table)
    except LookupError:
        return False
    return any(g.key == group_key for g in model._meta.policy_groups)


def _has_orm_query(node: Optional[ast.AST]) -> bool:
    """Whether a policy body mentions ``.objects`` anywhere.

    Read-set inference only flags cross-record reads it can prove; an ORM
    query whose argument is an attribute chain escapes it.  For *narrow*
    invalidation we must be certain the policy reads nothing but its own
    row, so any ``.objects`` mention forces broad invalidation.
    """
    if node is None:
        return True
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "objects"
        for sub in ast.walk(node)
    )


@dataclass(frozen=True)
class PushdownProfile:
    """The per-model decision record of the pushdown planner.

    ``eligible`` -- every policy group is viewer-independent or
    equality-on-viewer (classifier shapes), so the store can serve this
    model.  ``opaque`` -- at least one group is opaque; queries touching the
    model fall back and count ``plan.policy_pushdown.opaque_fallback``.
    ``narrow`` -- outcomes provably depend only on the model's own rows
    (plus epoch-guarded globals): invalidate on the own-table write
    generation instead of every write.

    ``tier`` is the *static* ceiling the symbolic predicate IR admits:

    * ``"direct"`` -- every group's compiled predicate renders inline with
      two-valued atoms (equality on viewer values, membership, null
      tests), skipping the label store entirely.  A model with several
      groups renders inline only when every predicate folds to a boolean
      for the viewer at bind time;
    * ``"indexable"`` -- like direct but with prefix/range atoms that
      compile through ``Like``/``Between``-family expressions over
      non-nullable columns (servable from ordered indexes);
    * ``"store"`` -- eligible, served by the label-assignment store;
    * ``"opaque"`` -- Python fallback; ``"none"`` -- no policy groups.

    ``predicates`` maps each group key to its compiled IR when the tier is
    inline; ``namespaces`` maps it to the policy function's globals, where
    the IR's :class:`~repro.analysis.symbolic.GlobalAttr` sources bind.  Runtime conditions (branch-key gate, viewer bind failure, a
    TOP reached at bind time, a multi-group predicate that does not fold)
    can still demote direct/indexable to store per query; demotion is
    counted (``plan.policy_pushdown.demoted``) and never skips to the
    Python path while the model stays eligible.
    """

    eligible: bool
    narrow: bool
    opaque: bool
    shapes: Dict[str, str] = field(default_factory=dict)
    tier: str = "store"
    predicates: Optional[Dict[str, sym.Pred]] = None
    namespaces: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def inline(self) -> bool:
        return self.tier in ("direct", "indexable")


#: Atom ops renderable as two-valued equality-family SQL (direct tier).
_DIRECT_OPS = frozenset(
    {"eq", "ne", "in", "not-in", "is-null", "not-null", "truthy"}
)
#: Atom ops renderable as range/prefix probes (indexable tier).
_RANGE_OPS = frozenset({"lt", "le", "gt", "ge", "prefix"})


def _atom_tier(atom: sym.Atom) -> Optional[str]:
    """``"direct"`` / ``"indexable"`` when the atom is renderable, else
    ``None`` (store fallback).

    Atoms not reading an own-row column fold to booleans at bind time with
    Python semantics, so any op is fine.  Own-column atoms must render with
    *two-valued* SQL: equality-family ops use ``IS``-style comparisons;
    range and prefix ops are only exact on non-nullable columns (a NULL
    would be UNKNOWN in SQL where Python raises).
    """
    lhs, rhs = atom.lhs, atom.rhs
    lhs_own = isinstance(lhs, sym.OwnColumn)
    rhs_own = isinstance(rhs, sym.OwnColumn)
    if not lhs_own and not rhs_own:
        if {type(lhs), type(rhs)} == {sym.RowSelf, sym.ViewerSelf}:
            return "direct" if atom.op in ("eq", "ne") else None
        if isinstance(lhs, sym.RowSelf) or isinstance(rhs, sym.RowSelf):
            return None
        return "direct"  # viewer/global/constant only: folds at bind time
    if not lhs_own:
        return None  # own column in a non-canonical position (e.g. prefix rhs)
    value_ok = isinstance(
        rhs, (sym.ConstVal, sym.ViewerAttr, sym.GlobalAttr, sym.OwnColumn)
    )
    if atom.op in ("eq", "ne"):
        return "direct" if value_ok else None
    if atom.op in ("in", "not-in"):
        return (
            "direct"
            if isinstance(rhs, sym.ConstVal) and isinstance(rhs.value, tuple)
            else None
        )
    if atom.op in ("is-null", "not-null"):
        return "direct"
    if atom.op == "truthy":
        return "direct" if lhs.kind == "bool" else None
    if atom.op in ("lt", "le", "gt", "ge"):
        if lhs.nullable or not value_ok:
            return None
        if rhs_own and rhs.nullable:
            return None
        return "indexable"
    if atom.op == "prefix":
        if lhs.kind != "text" or lhs.nullable or rhs_own:
            return None
        return "indexable" if value_ok else None
    return None


def _predicate_tier(pred: sym.Pred, guarded_columns: frozenset) -> str:
    """The static tier one compiled group predicate admits.

    A TOP is admitted only behind a conjunct that reads nothing but
    globals and constants (:func:`~repro.analysis.symbolic.tops_guarded`):
    bind-time folding skips it in some global states, and reaching it
    demotes that query.
    """
    if sym.contains_top(pred) and not sym.tops_guarded(pred):
        return "store"
    if sym.own_columns(pred) & guarded_columns:
        # The predicate reads a guarded column: the negative facet row
        # carries the public value, so inline evaluation would diverge
        # from the oracle.
        return "store"
    tier = "direct"
    for atom in sym.iter_atoms(pred):
        atom_tier = _atom_tier(atom)
        if atom_tier is None:
            return "store"
        if atom_tier == "indexable":
            tier = "indexable"
    return tier


def _compute_profile(model: type) -> PushdownProfile:
    meta = model._meta
    if not meta.policy_groups:
        return PushdownProfile(
            eligible=True, narrow=True, opaque=False, tier="none"
        )
    try:
        from repro.analysis.classify import classify_policy
        from repro.analysis.facts import facts_for_model

        facts = facts_for_model(model)
        records = [classify_policy(group, facts) for group in facts.groups]
    except Exception:
        # Classification itself failing (lost source, exotic bodies) is the
        # opaque case: the Python evaluator stays the oracle.
        return PushdownProfile(
            eligible=False, narrow=False, opaque=True, tier="opaque"
        )
    shapes = {record["group"]: record["shape"] for record in records}
    opaque = any(record["shape"] == "opaque" for record in records)
    eligible = not opaque and len(records) == len(meta.policy_groups)
    narrow = eligible and all(
        record["reads"] != "TOP" and not record["cross_record"]
        for record in records
    ) and not any(_has_orm_query(group.node) for group in facts.groups)
    tier = "store" if eligible else "opaque"
    predicates: Optional[Dict[str, sym.Pred]] = None
    namespaces: Dict[str, Dict[str, Any]] = {}
    if eligible:
        guarded = frozenset(
            meta.fields[name].column_name
            for group in facts.groups
            for name in group.fields
            if name in meta.fields
        )
        compiled = {
            group.key: sym.compile_policy(group, facts) for group in facts.groups
        }
        group_tiers = {_predicate_tier(pred, guarded) for pred in compiled.values()}
        if "store" not in group_tiers:
            tier = "indexable" if "indexable" in group_tiers else "direct"
            predicates = compiled
            namespaces = {
                group.key: group.namespace or {} for group in facts.groups
            }
    return PushdownProfile(
        eligible=eligible, narrow=narrow, opaque=opaque or not eligible,
        shapes=shapes, tier=tier, predicates=predicates, namespaces=namespaces,
    )


def profile_for(model: type) -> PushdownProfile:
    """The (cached) pushdown profile of a model class."""
    meta = model._meta
    try:
        return meta._pushdown_profile
    except AttributeError:
        meta._pushdown_profile = _compute_profile(model)
    return meta._pushdown_profile


class LabelAssignmentStore:
    """Maintains :data:`STORE_TABLE` write-through and tracks its validity.

    One instance per FORM, subscribed (weakly) to the database's
    invalidation bus.  ``ensure()`` is the only populater: it snapshots the
    validity stamps *before* reading, resolves every distinct non-empty
    jvars encoding through the Python resolver (one table scan, then each
    distinct label evaluated once against the pre-read secret instance),
    and swaps the viewer's slice of the store atomically with
    ``replace_rows`` -- so a write racing the population can only make the
    recorded stamps stale, never leave a stale store looking valid.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: (table, viewer_key) -> (narrow, epoch, schema_gen, mark, ok)
        self._valid: Dict[Tuple[str, Hashable], Tuple[bool, int, int, int, bool]] = {}
        #: bumped on every non-store write (the broad invalidation mark)
        self._any_write = 0
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._subscription = None

    # -- bus wiring -----------------------------------------------------------------

    def bind(self, bus: InvalidationBus) -> None:
        self._subscription = subscribe_weak(
            bus, self, LabelAssignmentStore._on_write
        )

    def _on_write(self, table: str) -> None:
        # The store's own repopulation writes must not invalidate the store.
        if table == STORE_TABLE:
            return
        with self._count_lock:
            self._any_write += 1

    # -- re-entrancy ------------------------------------------------------------------

    @property
    def populating(self) -> bool:
        """Whether *this thread* is inside a population resolution cycle.

        Policies evaluated during population may issue queries of their
        own; those nested queries must take the Python path (the store
        being filled is not yet trustworthy, and recursing into ensure()
        could loop).
        """
        return getattr(self._local, "active", False)

    # -- validity ---------------------------------------------------------------------

    def _entry_current(
        self, bus: InvalidationBus, table: str,
        entry: Tuple[bool, int, int, int, bool],
    ) -> bool:
        narrow, epoch, schema, mark, _ok = entry
        if epoch != policy_epoch() or schema != bus.schema_generation:
            return False
        current = bus.write_generation(table) if narrow else self._any_write
        return mark == current

    def predicts(self, model: type, viewer_key: Hashable) -> bool:
        """Whether planning (``explain``) should assume the store serves
        this (table, viewer) -- without populating it.

        Optimistic for never-attempted pairs (profiles were already
        checked); pessimistic after a recorded population failure, which
        only unknown (non-model) labels cause and which writes rarely cure.
        """
        entry = self._valid.get((model._meta.table_name, viewer_key))
        return True if entry is None else entry[4]

    # -- population --------------------------------------------------------------------

    def ensure(self, form: Any, model: type, viewer: Any, viewer_key: Hashable) -> bool:
        """Make the store current for ``(model's table, viewer)``.

        A refill is one table scan, then each distinct label evaluated
        once against the pre-read secret instance (:meth:`_visible_jvars`),
        then one ``replace_rows`` swap of the viewer's slice.

        Returns ``True`` when the store can serve the pruning predicate;
        ``False`` when population failed (some stored label does not follow
        the model convention) and the caller must fall back.
        """
        meta = model._meta
        table = meta.table_name
        bus = form.database.invalidation
        with self._lock:
            entry = self._valid.get((table, viewer_key))
            if entry is not None and self._entry_current(bus, table, entry):
                return entry[4]
            if not form.database.has_table(STORE_TABLE):
                form.database.create_table(_store_schema())
            # Stamp snapshots come BEFORE the read they guard (the label
            # cache's fill-vs-write pattern): a racing write makes the
            # recorded entry stale, forcing repopulation on the next query.
            epoch = policy_epoch()
            schema = bus.schema_generation
            narrow_mark = bus.write_generation(table)
            broad_mark = self._any_write
            self._local.active = True
            try:
                outcome = self._visible_jvars(form, model, viewer)
            finally:
                self._local.active = False
            profile = profile_for(model)
            if outcome is None:
                ok, narrow = False, profile.narrow
            else:
                visible, only_own = outcome
                ok = True
                narrow = profile.narrow and only_own
                key_text = _viewer_key_text(viewer_key)
                where = and_all(
                    [eq("table_name", table), eq("viewer_key", key_text)]
                )
                rows = [
                    {"table_name": table, "viewer_key": key_text, "jvars": encoded}
                    for encoded in visible
                ]
                form.database.replace_rows(STORE_TABLE, where, rows)
                obs.add("pushdown.store.refresh")
            mark = narrow_mark if narrow else broad_mark
            self._valid[(table, viewer_key)] = (narrow, epoch, schema, mark, ok)
            return ok

    def _visible_jvars(
        self, form: Any, model: type, viewer: Any
    ) -> Optional[Tuple[List[str], bool]]:
        """Resolve every distinct non-empty jvars encoding of a table.

        Returns ``(visible encodings, only own-table labels seen)``, or
        ``None`` when an encoding mentions a label the store cannot keep
        coherent (population failure -> Python fallback).

        One table scan, then each distinct label evaluated once against the
        pre-read secret instance.  The scan reads every row of each record
        that has a faceted row, so it yields both the encodings and, per
        record, the facet rows :func:`repro.form.writes.secret_row` picks
        the secret facet from (in the order a per-record ``find`` returns
        them).  Resolution goes through the exact oracle pipeline
        (:func:`_resolve_label`); labels of other tables, and of records
        the scan did not see, fall back to its point lookup.  The
        model-label check runs once per distinct ``Table.group``.
        """
        from repro.form import writes
        from repro.form.manager import _instance_from_row, _resolve_label

        table = model._meta.table_name
        rows_by_jid: Dict[int, List[Dict[str, Any]]] = {}
        encodings: Dict[str, None] = {}
        # Only records with a faceted row carry labels, so a mostly public
        # table is not materialised row by row.
        faceted = Query(table=table).select("jid").filter(ne("jvars", ""))
        scan = Query(table=table, where=InSubquery(ColumnRef("jid"), faceted))
        for row in form.database.execute(scan):
            rows_by_jid.setdefault(int(row["jid"]), []).append(row)
            encoded = row.get("jvars")
            if encoded:
                encodings[encoded] = None
        prefix = f"{table}."
        instances: Dict[int, Any] = {}
        model_groups: Dict[Tuple[str, str], bool] = {}
        memo: Dict[str, bool] = {}
        visible: List[str] = []
        only_own = True
        for encoded in encodings:
            keep = True
            for name, polarity in parse_jvars(encoded):
                own = name.startswith(prefix)
                if not own:
                    only_own = False
                outcome = memo.get(name)
                if outcome is None:
                    parts = _label_parts(name)
                    if parts is None:
                        return None
                    label_table, jid, group_key = parts
                    group = (label_table, group_key)
                    if group not in model_groups:
                        model_groups[group] = _is_model_group(*group)
                    if not model_groups[group]:
                        return None
                    if own and jid not in instances and jid in rows_by_jid:
                        instances[jid] = _instance_from_row(
                            model, writes.secret_row(rows_by_jid[jid])
                        )
                    outcome = bool(
                        _resolve_label(
                            form, name, viewer, instances if own else None
                        )
                    )
                    memo[name] = outcome
                if outcome != polarity:
                    keep = False
                    break
            if keep:
                visible.append(encoded)
        return visible, only_own

    # -- lifecycle ---------------------------------------------------------------------

    def reset(self) -> None:
        """Forget all validity stamps (``FORM.clear()``)."""
        with self._lock:
            self._valid.clear()


# -- inline predicate rendering (direct / indexable tiers) -----------------------


class _Demote(Exception):
    """Raised while rendering inline when this (model, viewer) query must
    fall back to the label store -- never past it to Python.  ``reason``
    is what ``explain()`` reports."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _viewer_value(source: sym.ViewerAttr, viewer: Any) -> Any:
    """Resolve a ``viewer.a.b`` chain against the live viewer object."""
    value = viewer
    for index, attr in enumerate(source.path):
        last = index == len(source.path) - 1
        try:
            if last and source.has_default:
                value = getattr(value, attr, source.default)
            else:
                value = getattr(value, attr)
        except AttributeError:
            # The oracle would raise here too; the store tier reproduces
            # that (population evaluates the policy in Python).
            raise _Demote(f"bind failure: viewer has no attribute {attr!r}")
    return value


def _global_value(source: sym.GlobalAttr, namespace: Dict[str, Any]) -> Any:
    """Read a global chain through the policy function's ``__globals__`` --
    the namespace its body resolves free names in."""
    head, *attrs = source.path
    try:
        value = namespace[head]
        for attr in attrs:
            value = getattr(value, attr)
    except (KeyError, AttributeError):
        raise _Demote(
            f"bind failure: global {'.'.join(source.path)!r} not found"
        )
    return value


def _bind_value(source: sym.Source, viewer: Any, namespace: Dict[str, Any]) -> Any:
    if isinstance(source, sym.ConstVal):
        return source.value
    if isinstance(source, sym.ViewerAttr):
        return _viewer_value(source, viewer)
    if isinstance(source, sym.GlobalAttr):
        return _global_value(source, namespace)
    if isinstance(source, sym.ViewerSelf):
        return viewer
    raise _Demote(f"bind failure: unbindable source {type(source).__name__}")


def _bound_literal(column: sym.OwnColumn, value: Any) -> Any:
    """Validate a bound value against the column's kind; demote on doubt.

    Values bind *raw* (no ``to_db`` coercion): Python ``==`` inside the
    oracle compares the unconverted viewer value, so coercing here would
    make e.g. ``5 == "5"`` true in SQL but false in Python.  For the same
    reason the value's type must match the column's kind -- SQLite applies
    column affinity to comparison operands (``owner_id IS '5'`` matches
    ``5``), which Python equality never does.  Model instances demote:
    their equality semantics live in ``JModel.__eq__``, not in the stored
    foreign-key integer.
    """
    import datetime

    from repro.form.model import JModel

    if isinstance(value, JModel):
        raise _Demote("bind failure: model-instance operand")
    if value is None:
        return None
    kind = column.kind
    if kind == "text":
        ok = isinstance(value, str)
    elif kind in ("int", "float"):
        ok = isinstance(value, (int, float))
    elif kind == "bool":
        ok = isinstance(value, (bool, int))
    elif kind == "datetime":
        ok = isinstance(value, datetime.datetime)
    else:
        ok = False
    if not ok:
        raise _Demote(
            f"bind failure: value {value!r} does not match column kind {kind!r}"
        )
    return value


_PY_OPS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
    "not-in": lambda a, b: a not in b,
    "prefix": lambda a, b: a.startswith(b),
}

_RANGE_SQL = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _fold_atom(atom: sym.Atom, viewer: Any, namespace: Dict[str, Any]) -> bool:
    """Evaluate an atom with no own-column operand to a plain boolean."""
    lhs = _bind_value(atom.lhs, viewer, namespace)
    try:
        if atom.op == "is-null":
            return lhs is None
        if atom.op == "not-null":
            return lhs is not None
        if atom.op == "truthy":
            return bool(lhs)
        rhs = _bind_value(atom.rhs, viewer, namespace)
        return bool(_PY_OPS[atom.op](lhs, rhs))
    except _Demote:
        raise
    except Exception as error:
        # The oracle would raise evaluating this; let the store tier (same
        # Python evaluation) reproduce the behaviour faithfully.
        raise _Demote(f"bind failure: evaluation raised {error!r}")


def _bind_atom(
    atom: sym.Atom, model: type, viewer: Any, colname, namespace: Dict[str, Any]
) -> "bool | Expression":
    lhs, rhs = atom.lhs, atom.rhs
    if {type(lhs), type(rhs)} == {sym.RowSelf, sym.ViewerSelf}:
        # ``viewer == row``: JModel.__eq__ is type-strict and compares
        # jids; an unsaved viewer (jid None) falls back to object identity,
        # which no fetched record satisfies.
        if type(viewer) is model and viewer.jid is not None:
            return NullSafeEq(
                ColumnRef(colname("jid")), Literal(viewer.jid), atom.op == "ne"
            )
        return atom.op == "ne"
    if not isinstance(lhs, sym.OwnColumn):
        return _fold_atom(atom, viewer, namespace)
    column = ColumnRef(colname(lhs.column))
    if atom.op in ("is-null", "not-null"):
        return IsNull(column, negated=atom.op == "not-null")
    if atom.op == "truthy":
        return NullSafeEq(column, Literal(True))
    if isinstance(rhs, sym.OwnColumn):
        other = ColumnRef(colname(rhs.column))
        if atom.op in ("eq", "ne"):
            return NullSafeEq(column, other, atom.op == "ne")
        if atom.op in _RANGE_SQL and not lhs.nullable and not rhs.nullable:
            return Comparison(_RANGE_SQL[atom.op], column, other)
        raise _Demote(f"bind failure: column/column op {atom.op!r}")
    if atom.op in ("in", "not-in"):
        values = _bind_value(rhs, viewer, namespace)
        members = [
            NullSafeEq(column, Literal(_bound_literal(lhs, item)))
            for item in values
        ]
        if not members:
            return atom.op == "not-in"
        matched: Expression = members[0]
        for member in members[1:]:
            matched = OrExpr(matched, member)
        return NotExpr(matched) if atom.op == "not-in" else matched
    value = _bound_literal(lhs, _bind_value(rhs, viewer, namespace))
    if atom.op in ("eq", "ne"):
        return NullSafeEq(column, Literal(value), atom.op == "ne")
    if atom.op == "prefix":
        if not isinstance(value, str):
            raise _Demote("bind failure: prefix bound to a non-string value")
        return prefix_range(colname(lhs.column), value)
    if atom.op in _RANGE_SQL:
        if value is None:
            raise _Demote("bind failure: range bound to None")
        return Comparison(_RANGE_SQL[atom.op], column, Literal(value))
    raise _Demote(f"bind failure: op {atom.op!r} not renderable")


def _bind_predicate(
    pred: sym.Pred, model: type, viewer: Any, colname, namespace: Dict[str, Any]
) -> "bool | Expression":
    """Render IR to a two-valued expression, folding viewer/global parts.

    ``and``/``or`` fold left to right and stop at the first absorbing
    boolean, so a TOP behind a conjunct that folds false is never reached.
    Returns a plain bool when the whole predicate folds.  Raises
    :class:`_Demote` when some part cannot be rendered for this viewer,
    including a TOP that is reached.
    """
    if isinstance(pred, sym.Const):
        return pred.value
    if isinstance(pred, (sym.And, sym.Or)):
        is_and = isinstance(pred, sym.And)
        absorbing = not is_and
        parts: List[Expression] = []
        for item in pred.items:
            bound = _bind_predicate(item, model, viewer, colname, namespace)
            if isinstance(bound, bool):
                if bound == absorbing:
                    return absorbing
                continue
            parts.append(bound)
        if not parts:
            return not absorbing
        combined = parts[0]
        for part in parts[1:]:
            combined = AndExpr(combined, part) if is_and else OrExpr(combined, part)
        return combined
    if isinstance(pred, sym.Not):
        bound = _bind_predicate(pred.item, model, viewer, colname, namespace)
        if isinstance(bound, bool):
            return not bound
        # Sound because every rendered atom is two-valued (IS-family,
        # IS NULL, or ranges over non-nullable columns).
        return NotExpr(bound)
    if isinstance(pred, sym.Atom):
        return _bind_atom(pred, model, viewer, colname, namespace)
    if isinstance(pred, sym.Top):
        raise _Demote(f"top reached: {pred.reason}")
    raise _Demote(f"bind failure: unrenderable node {type(pred).__name__}")


def _inline_conjunct(
    form: Any, model: type, viewer: Any, qualify: bool, probe: bool = True
) -> Expression:
    """The direct/indexable-tier conjunct for one model.

    Raises :class:`_Demote` with its reason when a runtime condition sends
    this (model, viewer) query to the store tier.  Soundness gates checked
    here, per query:

    * the table's facet rows name only their own record's labels of this
      model's policy groups, canonically ordered
      (:meth:`~repro.db.engine.Database.facet_branch_keys`), so a
      :class:`~repro.db.expr.FacetBranch` match selects a record's rows
      by their label assignment;
    * every predicate binds against this viewer (attribute chains and
      globals resolve, values convert, no TOP is reached);
    * with two or more groups, every predicate folds to a boolean, so the
      visible rows are those whose ``jvars`` is a sub-assignment of the
      folded outcomes.

    ``probe=False`` (``explain``) skips the facet-row probe statement and
    uses the gate's verdict only when it is already known -- the same
    optimistic stance the store's :meth:`LabelAssignmentStore.predicts`
    takes for never-attempted pairs.

    With one group, the conjunct admits unguarded rows (``jvars = ''``),
    positive-branch rows where the bound predicate holds, and
    negative-branch rows where its (two-valued) negation holds.  The
    predicate provably reads no guarded column, so evaluating it on either
    facet row of a record gives the record's policy outcome.
    """
    meta = model._meta
    table = meta.table_name
    branch_keys = form.database.facet_branch_keys(table, probe)
    if branch_keys is None or not branch_keys <= {
        group.key for group in meta.policy_groups
    }:
        raise _Demote("branch-key gate")  # exotic labels: only the store
    colname = (lambda name: f"{table}.{name}") if qualify else (lambda name: name)
    profile = profile_for(model)
    predicates = profile.predicates
    outcomes: Dict[str, bool] = {}
    for key, pred in predicates.items():
        bound = _bind_predicate(pred, model, viewer, colname, profile.namespaces[key])
        if not isinstance(bound, bool):
            if len(predicates) > 1:
                raise _Demote("multi-group predicate does not fold")
            positive = FacetBranch(table, {key: True}, qualify)
            negative = FacetBranch(table, {key: False}, qualify)
            return OrExpr(
                eq(colname("jvars"), ""),
                OrExpr(AndExpr(positive, bound), AndExpr(negative, NotExpr(bound))),
            )
        outcomes[key] = bound
    return OrExpr(eq(colname("jvars"), ""), FacetBranch(table, outcomes, qualify))


# -- the planning entry point ----------------------------------------------------


@dataclass(frozen=True)
class PushdownPlan:
    """What ``pruning_conjuncts`` decided: the per-table predicates plus
    the tier each policied table is served at (``explain()`` reports it)."""

    conjuncts: List[Expression]
    tiers: Dict[str, str]
    #: table -> why its inline tier fell back to the store for this query
    demoted: Dict[str, str] = field(default_factory=dict)


def pruning_conjuncts(
    form: Any,
    model: type,
    joined_tables: List[str],
    viewer: Any,
    populate: bool = True,
) -> Optional[PushdownPlan]:
    """The per-table pruning predicates of a viewer-context query, or
    ``None`` when the Python path must prune.

    One conjunct per involved table (base plus joins).  Per table, the
    profile's static tier is tried first: direct/indexable render the
    compiled predicate inline (no store round-trip); runtime demotion or a
    ``policy_pushdown_tier_cap`` of ``"store"`` falls back to
    ``jvars = '' OR jvars IN (store slice)``.  A demotion at execution
    counts ``plan.policy_pushdown.demoted``; its reason lands in the
    plan's ``demoted`` map, which ``explain()`` reports.  ``populate=False`` builds
    the same predicates without touching the store (``explain``); no
    predicate's SQL depends on the store's *contents*, so the reported
    statement string-equals the executed one.
    """
    if not getattr(form, "policy_pushdown_enabled", True):
        return None
    store = getattr(form, "pushdown_store", None)
    if store is None or store.populating:
        return None
    key = viewer_cache_key(viewer)
    if key is None:
        return None
    from repro.form.model import ModelRegistry

    models = [model]
    for table in joined_tables:
        try:
            models.append(ModelRegistry.get(table))
        except LookupError:
            return None
    if not any(m._meta.policy_groups for m in models):
        # Nothing policied anywhere in the query: the existing paths are
        # already optimal (and unpolicied pc-label rows stay on the
        # resolver path, whose semantics they were written against).
        return None
    for m in models:
        profile = profile_for(m)
        if not profile.eligible:
            if profile.opaque:
                obs.add("plan.policy_pushdown.opaque_fallback")
            return None
    qualify = bool(joined_tables)
    cap = getattr(form, "policy_pushdown_tier_cap", None)
    tiers: Dict[str, str] = {}
    inline: Dict[str, Expression] = {}
    demoted: Dict[str, str] = {}
    for m in models:
        table = m._meta.table_name
        profile = profile_for(m)
        tier = profile.tier
        if tier in ("direct", "indexable") and cap != "store":
            try:
                inline[table] = _inline_conjunct(
                    form, m, viewer, qualify, probe=populate
                )
            except _Demote as demotion:
                demoted[table] = demotion.reason
                if populate:
                    obs.add("plan.policy_pushdown.demoted")
            else:
                tiers[table] = tier
                continue
        # Unpolicied tables ("none") take the store path too: population
        # walks their stored encodings, so a pc/ad-hoc label on such a
        # table still forces the Python fallback instead of being hidden.
        tiers[table] = "store"
    for m in models:
        if tiers[m._meta.table_name] in ("direct", "indexable"):
            continue
        if populate:
            if not store.ensure(form, m, viewer, key):
                return None
        elif not store.predicts(m, key):
            return None
    key_text = _viewer_key_text(key)
    conjuncts: List[Expression] = []
    for m in models:
        table = m._meta.table_name
        tier = tiers[table]
        if tier in ("direct", "indexable"):
            obs.add(f"plan.policy_pushdown.{tier}")
            conjuncts.append(inline[table])
            continue
        column = f"{table}.jvars" if qualify else "jvars"
        store_slice = (
            Query(table=STORE_TABLE)
            .select("jvars")
            .filter(eq("table_name", table))
            .filter(eq("viewer_key", key_text))
        )
        conjuncts.append(
            OrExpr(eq(column, ""), InSubquery(ColumnRef(column), store_slice))
        )
    return PushdownPlan(conjuncts, tiers, demoted)
