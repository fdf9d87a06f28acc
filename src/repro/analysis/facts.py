"""Symbol facts: what the analyzer knows about modules, models and methods.

Two front doors build the same :class:`ModelFacts` shape:

* :func:`facts_for_source` / :func:`facts_for_path` -- purely syntactic,
  used by the linter CLI over application source trees (no imports run);
* :func:`facts_for_model` -- built from a *live* registered model class
  (``model._meta``), used at runtime by read-set inference.

Model detection in source is nominal: a class is a Jacqueline model when a
base is spelled ``JModel`` (possibly qualified) or is another model defined
earlier in the same module.  Fields are class-level assignments calling a
constructor whose name ends in ``Field`` or is ``ForeignKey``; a foreign
key ``author`` stores into column ``author_id``, as in the FORM.

>>> mod = facts_for_source('''
... class Paper(JModel):
...     title = CharField()
...     author = ForeignKey("User")
...     @staticmethod
...     @label_for("title")
...     def restrict_title(row, viewer):
...         return viewer == row.author
...     def jacqueline_get_public_title(self):
...         return "[redacted]"
... ''', "m.py")
>>> model = mod.models[0]
>>> sorted(model.columns)
['author_id', 'title']
>>> model.groups[0].fields
('title',)
>>> sorted(model.public_methods)
['title']
"""

from __future__ import annotations

import ast
import inspect
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.astutils import (
    attach_parents,
    const_str,
    dotted_name,
    function_ast,
    parse_source,
    positional_params,
)

#: Spellings that mark a base class as the Jacqueline model root.
MODEL_BASE_NAMES = ("JModel",)

#: The public-facet naming convention (kept in sync with repro.form.policies).
PUBLIC_METHOD_PREFIX = "jacqueline_get_public_"


@dataclass
class FieldFacts:
    """One declared field: its name, backing column, and kind.

    ``ctor`` records the constructor spelling (``"CharField"``,
    ``"ForeignKey"``, ...) so type environments can assign a value kind;
    ``fk_target`` is the referenced model name for foreign keys when it can
    be determined; ``nullable`` mirrors the field declaration (fields are
    nullable unless declared otherwise).
    """

    name: str
    column: str
    is_foreign_key: bool
    line: int = 0
    ctor: Optional[str] = None
    fk_target: Optional[str] = None
    nullable: bool = True


@dataclass
class GroupFacts:
    """One ``@label_for`` declaration found on a model."""

    fields: Tuple[str, ...]
    method_name: str
    node: Optional[ast.FunctionDef]
    line: int = 0
    #: the live policy function's ``__globals__`` (``None`` when parsed
    #: from source): where its body resolves free names and helpers
    namespace: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )
    #: names the live body reads from enclosing function scopes (closure
    #: cells); they are not globals
    freevars: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return self.fields[0]


@dataclass
class ModelFacts:
    """Everything the analyzer knows about one model class."""

    name: str
    file: str
    line: int = 0
    fields: Dict[str, FieldFacts] = field(default_factory=dict)
    groups: List[GroupFacts] = field(default_factory=list)
    #: field name -> (method name, definition AST or None when source lost)
    public_methods: Dict[str, Tuple[str, Optional[ast.FunctionDef]]] = field(
        default_factory=dict
    )
    #: every method defined on the class, by name
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: resolver for same-module helper functions: name -> AST or None
    helper: Callable[[str], Optional[ast.FunctionDef]] = lambda name: None

    @property
    def columns(self) -> frozenset:
        return frozenset(f.column for f in self.fields.values())

    def column_for(self, attr: str) -> Optional[str]:
        """The column an attribute read of ``attr`` lands on, if any."""
        facts = self.fields.get(attr)
        if facts is not None:
            return facts.column
        for facts in self.fields.values():
            if facts.column == attr:
                return facts.column
        return None

    def group_for_field(self, field_name: str) -> Optional[GroupFacts]:
        for group in self.groups:
            if field_name in group.fields:
                return group
        return None

    @property
    def policied_fields(self) -> frozenset:
        return frozenset(f for g in self.groups for f in g.fields)


@dataclass
class ModuleFacts:
    """One parsed source file: its models and module-level helpers."""

    path: str
    tree: ast.Module
    models: List[ModelFacts] = field(default_factory=list)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    def model_named(self, name: str) -> Optional[ModelFacts]:
        for model in self.models:
            if model.name == name:
                return model
        return None


def _is_model_base(base: ast.AST, known_models: Dict[str, ModelFacts]) -> bool:
    name = dotted_name(base)
    if name is None:
        return False
    leaf = name.rsplit(".", 1)[-1]
    return leaf in MODEL_BASE_NAMES or leaf in known_models


def _label_for_fields(func: ast.FunctionDef) -> Optional[Tuple[str, ...]]:
    """The field tuple of a ``@label_for(...)`` decorator, if present."""
    for deco in func.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = dotted_name(deco.func)
        if name is None or name.rsplit(".", 1)[-1] != "label_for":
            continue
        names = tuple(
            value for value in (const_str(arg) for arg in deco.args)
            if value is not None
        )
        return names
    return None


def _field_call_kind(value: ast.AST) -> Optional[str]:
    """``"fk"`` / ``"field"`` when a class-level value is a field ctor call."""
    if not isinstance(value, ast.Call):
        return None
    name = dotted_name(value.func)
    if name is None:
        return None
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "ForeignKey":
        return "fk"
    if leaf.endswith("Field"):
        return "field"
    return None


def _field_decl_details(value: ast.Call) -> Tuple[str, Optional[str], bool]:
    """(ctor leaf, fk target, nullable) for a field constructor call."""
    ctor = dotted_name(value.func).rsplit(".", 1)[-1]
    fk_target: Optional[str] = None
    if ctor == "ForeignKey" and value.args:
        fk_target = const_str(value.args[0]) or dotted_name(value.args[0])
    nullable = True
    for keyword in value.keywords:
        if keyword.arg == "nullable" and isinstance(keyword.value, ast.Constant):
            nullable = bool(keyword.value.value)
    return ctor, fk_target, nullable


def _model_from_classdef(
    node: ast.ClassDef, path: str, helper: Callable[[str], Optional[ast.FunctionDef]]
) -> ModelFacts:
    model = ModelFacts(name=node.name, file=path, line=node.lineno, helper=helper)
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            kind = _field_call_kind(stmt.value)
            if kind is None:
                continue
            ctor, fk_target, nullable = _field_decl_details(stmt.value)
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                column = target.id + "_id" if kind == "fk" else target.id
                model.fields[target.id] = FieldFacts(
                    target.id,
                    column,
                    kind == "fk",
                    stmt.lineno,
                    ctor=ctor,
                    fk_target=fk_target,
                    nullable=nullable,
                )
        elif isinstance(stmt, ast.FunctionDef):
            model.methods[stmt.name] = stmt
            guarded = _label_for_fields(stmt)
            if guarded is not None:
                model.groups.append(
                    GroupFacts(guarded, stmt.name, stmt, stmt.lineno)
                )
            if stmt.name.startswith(PUBLIC_METHOD_PREFIX):
                field_name = stmt.name[len(PUBLIC_METHOD_PREFIX):]
                model.public_methods[field_name] = (stmt.name, stmt)
    return model


def facts_for_source(source: str, path: str) -> ModuleFacts:
    """Extract module facts from source text (parent links attached)."""
    tree = parse_source(source, path)
    attach_parents(tree)
    module = ModuleFacts(path=path, tree=tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            module.functions[node.name] = node

    known: Dict[str, ModelFacts] = {}

    def helper(name: str) -> Optional[ast.FunctionDef]:
        return module.functions.get(name)

    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            _is_model_base(base, known) for base in node.bases
        ):
            model = _model_from_classdef(node, path, helper)
            known[model.name] = model
            module.models.append(model)
    return module


def facts_for_path(path: str) -> ModuleFacts:
    """Parse a file on disk into module facts."""
    with open(path, "r", encoding="utf-8") as handle:
        return facts_for_source(handle.read(), path)


def namespace_helper(namespace: Dict[str, Any], name: str) -> Optional[ast.FunctionDef]:
    """The AST of the plain function ``namespace[name]``, or ``None``.

    Only functions whose own globals *are* ``namespace`` and that capture
    no closure cells qualify: their free names then resolve in the same
    namespace as the caller's (an imported helper's resolve in its own
    module).  Decorated functions do not qualify -- the wrapper, not the
    recovered source, is what runs.
    """
    target = namespace.get(name)
    if getattr(target, "__globals__", None) is not namespace:
        return None
    if hasattr(target, "__wrapped__") or target.__code__.co_freevars:
        return None
    return function_ast(target)


def facts_for_model(model) -> ModelFacts:
    """Model facts from a *live* registered model class.

    Field and group structure come from ``model._meta`` (authoritative);
    method bodies are recovered with ``inspect.getsource`` and may be
    ``None`` when the source is lost (doctest-defined classes), which
    read-set inference treats as TOP.  Helpers defined in the model's own
    module resolve through ``sys.modules[model.__module__]``; each group
    also records its live policy function's globals and closure names, the
    namespace the symbolic compiler resolves the body's free names in.
    """
    meta = model._meta
    defining_module = sys.modules.get(model.__module__)
    facts = ModelFacts(
        name=meta.table_name,
        file=getattr(defining_module, "__file__", "<live>") or "<live>",
    )
    module_namespace = getattr(defining_module, "__dict__", {})

    def helper(name: str) -> Optional[ast.FunctionDef]:
        return namespace_helper(module_namespace, name)

    facts.helper = helper
    for name, fld in meta.fields.items():
        fk_target: Optional[str] = None
        if fld.column_name != name:
            try:
                fk_target = fld.target_model().__name__
            except Exception:
                fk_target = None
        facts.fields[name] = FieldFacts(
            name,
            fld.column_name,
            fld.column_name != name,
            ctor=type(fld).__name__,
            fk_target=fk_target,
            nullable=bool(getattr(fld, "nullable", True)),
        )
    for group in meta.policy_groups:
        body = inspect.unwrap(group.method)
        code = getattr(body, "__code__", None)
        facts.groups.append(
            GroupFacts(
                group.fields,
                group.method.__name__,
                function_ast(group.method),
                namespace=getattr(body, "__globals__", None),
                freevars=tuple(code.co_freevars) if code else (),
            )
        )
    for field_name, method in meta.public_methods.items():
        facts.public_methods[field_name] = (method.__name__, function_ast(method))
    for attr_name in dir(model):
        attr = getattr(model, attr_name, None)
        if callable(attr) and not attr_name.startswith("__"):
            node = function_ast(attr)
            if node is not None:
                facts.methods[attr_name] = node
    return facts


def first_param(node: Optional[ast.FunctionDef]) -> Optional[str]:
    """The row-binding parameter of a method node (its first positional).

    >>> import ast
    >>> first_param(ast.parse("def f(self): pass").body[0])
    'self'
    """
    if node is None:
        return None
    params = positional_params(node)
    return params[0] if params else None
