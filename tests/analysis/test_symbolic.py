"""Unit tests for the symbolic policy compiler (``repro.analysis.symbolic``).

Covers the typed abstract interpreter (source modelling, getattr
defaults, startswith/prefix atoms, TOP on unmodelled constructs),
normalization, the IR queries (``contains_top``, ``own_columns``), the
satisfiability decision procedure, and a golden-JSON regression pinning
the predicate IR of every demo application's policy.
"""

import json
import os

from repro.analysis import cli
from repro.analysis.facts import facts_for_model, facts_for_source
from repro.analysis.symbolic import (
    And,
    Atom,
    Const,
    ConstVal,
    GlobalAttr,
    Not,
    Or,
    OwnColumn,
    Top,
    ViewerAttr,
    ViewerSelf,
    atom_text,
    compile_policy,
    contains_top,
    iter_atoms,
    normalize,
    own_columns,
    predicate_json,
    predicate_text,
    tops_guarded,
    unsatisfiable,
)

from repro.form import CharField, JModel, label_for

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def _compile(body: str):
    """Compile a one-group policy body over a small typed model."""
    source = f'''
class Doc(JModel):
    title = CharField(max_length=64)
    path = CharField(max_length=64, nullable=False, default="/")
    score = IntegerField()
    owner = ForeignKey("User")

    @staticmethod
    @label_for("title")
    def restrict(doc, viewer):
        return {body}
'''
    model = facts_for_source(source, "m.py").models[0]
    return compile_policy(model.groups[0], model)


def test_equality_on_viewer_attr_compiles_to_a_typed_atom():
    pred = _compile("doc.owner_id == viewer.jid")
    assert pred == Atom(
        "eq", OwnColumn("owner_id", "int"), ViewerAttr(("jid",))
    )


def test_getattr_default_is_carried_on_the_viewer_source():
    pred = _compile('getattr(viewer, "name", None) == "ada"')
    assert pred == Atom(
        "eq", ViewerAttr(("name",), True, None), ConstVal("ada")
    )


def test_startswith_compiles_to_a_prefix_atom_with_nullability():
    pred = _compile("doc.path.startswith(viewer.prefix)")
    assert pred == Atom(
        "prefix",
        OwnColumn("path", "text", nullable=False),
        ViewerAttr(("prefix",)),
    )


def test_boolean_structure_and_none_guard():
    pred = _compile("viewer is not None and doc.score >= 3")
    assert pred == And((
        Atom("not-null", ViewerSelf()),
        Atom("ge", OwnColumn("score", "int"), ConstVal(3)),
    ))


def test_unmodelled_constructs_become_top_not_errors():
    pred = _compile("mystery(doc)")
    assert contains_top(pred)
    assert "TOP" in predicate_text(pred)
    # TOP poisons the tree through connectives but never raises.
    assert contains_top(_compile("viewer is not None and mystery(doc)"))


def _compile_body(lines: str):
    """Compile a multi-statement policy body over the same typed model."""
    body = "\n".join("        " + line for line in lines.strip().splitlines())
    source = f'''
class Doc(JModel):
    score = IntegerField()

    @staticmethod
    @label_for("score")
    def restrict(doc, viewer):
{body}
'''
    model = facts_for_source(source, "m.py").models[0]
    return compile_policy(model.groups[0], model)


PHASE = GlobalAttr(("Phase", "current"))


def test_if_return_chain_compiles_left_to_right():
    pred = _compile_body('''
if Phase.current == "final":
    return True
return doc.score > 3
''')
    final = Atom("eq", PHASE, ConstVal("final"))
    assert pred == Or((
        final,
        And((Atom("ne", PHASE, ConstVal("final")),
             Atom("gt", OwnColumn("score", "int"), ConstVal(3)))),
    ))


def test_module_names_and_attribute_chains_are_globals():
    assert _compile("STRICT") == Atom("truthy", GlobalAttr(("STRICT",)))
    assert _compile("Phase.current == viewer.phase") == Atom(
        "eq", PHASE, ViewerAttr(("phase",))
    )


def test_a_local_assigned_only_on_another_branch_is_not_a_global():
    pred = _compile_body('''
if viewer is None:
    limit = 3
return limit == 3
''')
    # On the branch that skips the assignment Python raises; never read a
    # module global of the same name there.
    assert "limit" not in predicate_text(pred).replace("TOP", "")
    assert contains_top(pred)


#: Module globals sharing names with the closure cells below.
LEVEL = "module"


def level_ok(viewer):
    return viewer.level == LEVEL


def _closure_policy_model(LEVEL, level_ok):
    """A live model whose policy reads names captured from this call."""

    class ClosureDoc(JModel):
        title = CharField(max_length=64)

        @staticmethod
        @label_for("title")
        def restrict(doc, viewer):
            return viewer.level == LEVEL or level_ok(viewer)

    return ClosureDoc


def test_closure_captured_names_are_not_globals():
    model = _closure_policy_model("closure", lambda viewer: True)
    facts = facts_for_model(model)
    (group,) = facts.groups
    assert set(group.freevars) == {"LEVEL", "level_ok"}
    assert group.namespace is globals()
    # Python reads both names from the closure cells, so neither may bind
    # (or inline) the same-named module global.
    pred = compile_policy(group, facts)
    assert not tops_guarded(pred)
    assert all(
        GlobalAttr(("LEVEL",)) not in (atom.lhs, atom.rhs)
        for atom in iter_atoms(pred)
    )
    assert predicate_text(pred).count("TOP") == 2


def test_tops_behind_a_globals_only_conjunct_are_guarded():
    pred = _compile_body('''
if Phase.current != "final":
    return False
return lookup(doc) and viewer is not None
''')
    assert contains_top(pred) and tops_guarded(pred)
    unguarded = _compile_body('''
if viewer is None:
    return False
return lookup(doc)
''')
    assert contains_top(unguarded) and not tops_guarded(unguarded)


def test_normalize_flattens_folds_and_cancels():
    nested = And((And((Const(True), Atom("truthy", OwnColumn("score")))),
                  Not(Not(Atom("not-null", ViewerSelf())))))
    flat = normalize(nested)
    assert flat == And((
        Atom("truthy", OwnColumn("score")),
        Atom("not-null", ViewerSelf()),
    ))
    assert normalize(Or((Const(False),))) == Const(False)
    assert normalize(Not(Atom("eq", OwnColumn("a"), ConstVal(1)))) == Atom(
        "ne", OwnColumn("a"), ConstVal(1)
    )


def test_own_columns_lists_the_row_reads():
    pred = _compile("doc.score > 2 and doc.path.startswith('/x')")
    assert own_columns(pred) == {"score", "path"}


def test_unsatisfiable_finds_conflicting_range_atoms():
    pred = _compile("doc.score > 5 and doc.score < 3")
    atoms = unsatisfiable(pred)
    assert atoms is not None
    assert sorted(atom_text(a) for a in atoms) == ["score < 3", "score > 5"]


def test_unsatisfiable_is_none_for_satisfiable_and_top():
    assert unsatisfiable(_compile("doc.score > 5")) is None
    assert unsatisfiable(_compile("mystery(doc) and doc.score > 5")) is None
    assert unsatisfiable(Const(False)) == []


def test_predicate_json_round_trips_through_json():
    pred = _compile('viewer is not None and doc.owner_id == viewer.jid')
    payload = predicate_json(pred)
    assert json.loads(json.dumps(payload)) == payload
    assert payload == {
        "and": [
            {"atom": "not-null", "lhs": {"viewer-self": True}},
            {
                "atom": "eq",
                "lhs": {"column": "owner_id", "type": "int", "nullable": True},
                "rhs": {"viewer": "jid"},
            },
        ]
    }


def test_demo_app_predicates_match_the_golden_json():
    """Golden regression: the compiled predicate IR of every policy of the
    four demo applications.  Regenerate (after inspecting the diff!) with::

        PYTHONPATH=src python -c "
        import json; from repro.analysis import cli
        r = cli.analyze_paths(['src/repro/apps'])
        print(json.dumps({f'{p[\\"model\\"]}.{p[\\"group\\"]}': p['predicate']
                          for p in r.policies}, indent=2, sort_keys=True))"
    """
    report = cli.analyze_paths([os.path.join(REPO, "src", "repro", "apps")])
    actual = {
        f"{rec['model']}.{rec['group']}": rec["predicate"]
        for rec in report.policies
    }
    with open(os.path.join(HERE, "golden_demo_predicates.json")) as handle:
        golden = json.load(handle)
    assert actual == golden
