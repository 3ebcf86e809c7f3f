"""Value classes: each keeps its fields, equality, hash, repr, immutability
and copying.  The pinned reprs are those the classes printed when they were
dataclasses; syntax-tree positions and ``ModelAst.file`` stay out of
equality."""
from __future__ import annotations

import copy
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import promisekit
from promisekit.analysis import (
    CheckReport,
    ClassHierarchy,
    ClassNode,
    Finding,
    IsAVerdict,
    Role,
    RoleClasses,
    Severity,
    SpanningClass,
)
from promisekit.constraints import ExclusivityVerdict
from promisekit.dsl import Diagnostic, LineIndex, ParseResult, ResolveResult, SourceSpan
from promisekit.dsl.ast_nodes import (
    AgentDecl,
    BodyNode,
    BundleDecl,
    BundleRef,
    CmpLiteralNode,
    ConditionNode,
    FlagDecl,
    FlagLiteralNode,
    IdentTerm,
    ModelAst,
    NumberTerm,
    ParamTerm,
    PromiseDecl,
    StringTerm,
    TypeDecl,
)
from promisekit.errors import InvalidBodyError
from promisekit.model import (
    Agent,
    Attribute,
    AutonomyFinding,
    Bundle,
    CmpLiteral,
    Condition,
    EqConstraint,
    FlagLiteral,
    give,
    NamedConst,
    NumConst,
    Parameter,
    Promise,
    PromiseBody,
    PromiseGraph,
    PromiseTypeDecl,
    StrConst,
    use,
)
from promisekit.report import FileEntry, Report
from promisekit.value import Value
from promisekit.worlds import World

LINES = LineIndex("abc\ndef\n")
SPAN = SourceSpan("m.pml", 0, 3, LINES)

WIDTH, W = Attribute("width"), Parameter("w")
READY = FlagLiteral("ready")
EQ = EqConstraint(W, WIDTH)
BODY = give("width", EQ)
PROMISE = Promise("a", "b", BODY, "a->b|body:+width=$w")
DIAGNOSTIC = Diagnostic("warning", "W-AUTONOMY-001", "m", SPAN)
FINDING = Finding(Severity.RESTRICTED, "isa-restricted", "m", ("a -> b: +width=$w",))
ROLE = Role(((("out", "give", "width"), 1),), "gives:width", ("a",))
CLASS_NODE = ClassNode("ready", ("+width=$w",))
ROLE_CLASSES = RoleClasses(ROLE, ClassNode("", ()), (CLASS_NODE,))


def offset_twins(cls, *fields, **names):
    """The node read at two places, with the names it places at two places
    too: equal, since positions are not compared.  ``names`` maps each field
    that places a name to its value in either twin."""
    here = {"start": 0, "end": 3, **{field: pair[0] for field, pair in names.items()}}
    there = {"start": 4, "end": 9, **{field: pair[1] for field, pair in names.items()}}
    return lambda: cls(*fields, **here), lambda: cls(*fields, **there)


def twins(cls, *fields, **keywords):
    """Two separately built, equal objects."""
    return lambda: cls(*fields, **keywords), lambda: cls(*fields, **keywords)


# Class name -> (make, make an equal object, the repr the dataclass printed).
CASES = {
    "Attribute": (*twins(Attribute, "width"), "Attribute(name='width')"),
    "Parameter": (*twins(Parameter, "w", scope="g"), "Parameter(name='w', scope='g')"),
    "NumConst": (*twins(NumConst, 1.5), "NumConst(value=1.5)"),
    "StrConst": (*twins(StrConst, 'a"b'), "StrConst(value='a\"b')"),
    "NamedConst": (*twins(NamedConst, "red"), "NamedConst(name='red')"),
    "EqConstraint": (
        *twins(EqConstraint, W, WIDTH),
        "EqConstraint(lhs=Attribute(name='width'), rhs=Parameter(name='w', scope=''))",
    ),
    "CmpLiteral": (
        *twins(CmpLiteral, W, "neq", NumConst(2)),
        "CmpLiteral(lhs=NumConst(value=2), op='neq', rhs=Parameter(name='w', scope=''))",
    ),
    "FlagLiteral": (
        *twins(FlagLiteral, "ready", negated=True),
        "FlagLiteral(name='ready', negated=True)",
    ),
    "Condition": (
        lambda: Condition.of(READY), lambda: Condition(frozenset({READY})),
        "Condition(literals=frozenset({FlagLiteral(name='ready', negated=False)}))",
    ),
    "PromiseBody": (
        lambda: give("width", EQ), lambda: PromiseBody("give", "width", frozenset({EQ})),
        "PromiseBody(polarity='give', type='width', constraints=frozenset({"
        "EqConstraint(lhs=Attribute(name='width'), rhs=Parameter(name='w', scope=''))}), "
        "condition=Condition(literals=frozenset()))",
    ),
    "Promise": (
        *twins(Promise, "a", "b", use("width"), group="g"),
        "Promise(promiser='a', promisee='b', body=PromiseBody(polarity='use', type='width', "
        "constraints=frozenset(), condition=Condition(literals=frozenset())), group='g')",
    ),
    "Bundle": (
        *twins(Bundle, "Child", (use("width"),), parent="Base"),
        "Bundle(name='Child', bodies=(PromiseBody(polarity='use', type='width', "
        "constraints=frozenset(), condition=Condition(literals=frozenset())),), "
        "parent='Base')",
    ),
    "Agent": (
        lambda: Agent.make("a", {"x": NumConst(1)}), lambda: Agent("a", (("x", NumConst(1)),)),
        "Agent(name='a', private_attrs=(('x', NumConst(value=1)),))",
    ),
    "PromiseTypeDecl": (
        *twins(PromiseTypeDecl, "width", "num"),
        "PromiseTypeDecl(name='width', kind='num')",
    ),
    "AutonomyFinding": (
        *twins(AutonomyFinding, Promise("a", "b", use("w")), "f", "m"),
        "AutonomyFinding(promise=Promise(promiser='a', promisee='b', body=PromiseBody("
        "polarity='use', type='w', constraints=frozenset(), condition=Condition("
        "literals=frozenset())), group=''), type_name='f', message='m')",
    ),
    "PromiseGraph": (
        *twins(PromiseGraph, (Agent("a"),), (PromiseTypeDecl("w", "num"),), (), ()),
        "PromiseGraph(agents=(Agent(name='a', private_attrs=()),), "
        "types=(PromiseTypeDecl(name='w', kind='num'),), bundles=(), promises=())",
    ),
    "IdentTerm": (*offset_twins(IdentTerm, "x"), "IdentTerm(name='x')"),
    "ParamTerm": (*offset_twins(ParamTerm, "x"), "ParamTerm(name='x')"),
    "NumberTerm": (*offset_twins(NumberTerm, 2), "NumberTerm(value=2)"),
    "StringTerm": (*offset_twins(StringTerm, "s"), "StringTerm(value='s')"),
    "CmpLiteralNode": (
        *offset_twins(CmpLiteralNode, IdentTerm("x", 0, 1), "==", NumberTerm(1, 5, 6)),
        "CmpLiteralNode(lhs=IdentTerm(name='x'), op='==', rhs=NumberTerm(value=1))",
    ),
    "FlagLiteralNode": (
        *offset_twins(FlagLiteralNode, "f", True, name_start=(2, 8)),
        "FlagLiteralNode(name='f', negated=True)",
    ),
    "ConditionNode": (
        *offset_twins(ConditionNode, (FlagLiteralNode("f"),)),
        "ConditionNode(literals=(FlagLiteralNode(name='f', negated=False),))",
    ),
    "BodyNode": (
        *offset_twins(BodyNode, "give", IdentTerm("width"), ParamTerm("w"), None),
        "BodyNode(polarity='give', subject=IdentTerm(name='width'), "
        "value=ParamTerm(name='w'), condition=None)",
    ),
    "AgentDecl": (
        *offset_twins(AgentDecl, ("a", "b"), name_starts=((0, 2), (5, 7))),
        "AgentDecl(names=('a', 'b'))",
    ),
    "TypeDecl": (
        *offset_twins(TypeDecl, "w", "num", name_start=(1, 5), name_end=(2, 6)),
        "TypeDecl(name='w', kind='num')",
    ),
    "FlagDecl": (
        *offset_twins(FlagDecl, "f", name_start=(1, 5)), "FlagDecl(name='f')"
    ),
    "BundleDecl": (
        *offset_twins(
            BundleDecl, "B", "A", (BodyNode("use", IdentTerm("w")),),
            name_start=(1, 5), parent_start=(2, 6),
        ),
        "BundleDecl(name='B', parent='A', bodies=(BodyNode("
        "polarity='use', subject=IdentTerm(name='w'), value=None, condition=None),))",
    ),
    "BundleRef": (
        *offset_twins(BundleRef, "B", ConditionNode(()), name_start=(1, 5)),
        "BundleRef(name='B', condition=ConditionNode(literals=()))",
    ),
    "PromiseDecl": (
        *offset_twins(PromiseDecl, "a", "b", BundleRef("B"), promisee_start=(1, 5)),
        "PromiseDecl(promiser='a', promisee='b', "
        "item=BundleRef(name='B', condition=None))",
    ),
    "ModelAst": (
        lambda: ModelAst((FlagDecl("f"),), "m.pml"),
        lambda: ModelAst((FlagDecl("f", 4, 9, 6),), "n.pml", LineIndex("\n\n\n\nflag f;")),
        "ModelAst(decls=(FlagDecl(name='f'),), file='m.pml')",
    ),
    "Finding": (
        *twins(Finding, Severity.RESTRICTED, "c", "m", ("p",)),
        "Finding(severity=<Severity.RESTRICTED: 3>, code='c', message='m', promises=('p',))",
    ),
    "CheckReport": (
        *twins(CheckReport, (FINDING,)),
        "CheckReport(findings=(Finding(severity=<Severity.RESTRICTED: 3>, "
        "code='isa-restricted', message='m', promises=('a -> b: +width=$w',)),))",
    ),
    "Role": (
        *twins(Role, ((("out", "give", "width"), 1),), "gives:width", ("a",)),
        "Role(signature=((('out', 'give', 'width'), 1),), label='gives:width', members=('a',))",
    ),
    "SpanningClass": (
        *twins(SpanningClass, "B", ("B", "C"), (("x",),)),
        "SpanningClass(representative='B', members=('B', 'C'), signature=(('x',),))",
    ),
    "IsAVerdict": (
        *twins(IsAVerdict, "restricted", ("d",), ("i",)),
        "IsAVerdict(outcome='restricted', details=('d',), involved=('i',))",
    ),
    "ClassNode": (
        *twins(ClassNode, "ready", ("+w",)), "ClassNode(condition='ready', bodies=('+w',))"
    ),
    "RoleClasses": (
        *twins(RoleClasses, ROLE, ClassNode("", ()), (CLASS_NODE,)),
        "RoleClasses(role=Role(signature=((('out', 'give', 'width'), 1),), "
        "label='gives:width', members=('a',)), base=ClassNode(condition='', bodies=()), "
        "subtypes=(ClassNode(condition='ready', bodies=('+width=$w',)),))",
    ),
    "ClassHierarchy": (
        *twins(ClassHierarchy, (ROLE_CLASSES,)),
        f"ClassHierarchy(classes=({ROLE_CLASSES!r},), findings=())",
    ),
    "FileEntry": (
        *twins(FileEntry, "m.pml", (DIAGNOSTIC,)),
        f"FileEntry(path='m.pml', diagnostics=({DIAGNOSTIC!r},))",
    ),
    "Report": (
        *twins(Report, findings=(FINDING,), notes=("n",)),
        f"Report(files=(), findings=({FINDING!r},), roles=(), hierarchy=None, notes=('n',))",
    ),
    "ExclusivityVerdict": (
        *twins(ExclusivityVerdict, False, (("ready", "true"),)),
        "ExclusivityVerdict(exclusive=False, witness=(('ready', 'true'),))",
    ),
    "World": (
        *twins(World, frozenset({Condition.of(READY)}), (EQ,), ((W, NumConst(1)),)),
        "World(active=frozenset({Condition(literals=frozenset({FlagLiteral(name='ready', "
        "negated=False)}))}), eqs=(EqConstraint(lhs=Attribute(name='width'), "
        "rhs=Parameter(name='w', scope='')),), neqs=((Parameter(name='w', scope=''), "
        "NumConst(value=1)),))",
    ),
    "Diagnostic": (
        *twins(Diagnostic, "warning", "W-AUTONOMY-001", "m", SPAN),
        "Diagnostic(severity='warning', code='W-AUTONOMY-001', message='m', "
        f"span=SourceSpan(file='m.pml', start_offset=0, end_offset=3, lines={LINES!r}))",
    ),
    "ParseResult": (
        *twins(ParseResult, ModelAst(()), [DIAGNOSTIC]),
        f"ParseResult(ast=ModelAst(decls=(), file='<model>'), diagnostics=[{DIAGNOSTIC!r}])",
    ),
    "ResolveResult": (
        *twins(ResolveResult, None, []), "ResolveResult(graph=None, diagnostics=[])"
    ),
}



# Class name -> its constructor"s parameters, as the dataclass had them.
FIELDS = {
    "Attribute": "name",
    "Parameter": "name, scope=''",
    "NumConst": "value",
    "StrConst": "value",
    "NamedConst": "name",
    "EqConstraint": "lhs, rhs",
    "CmpLiteral": "lhs, op, rhs",
    "FlagLiteral": "name, negated=False",
    "Condition": "literals=frozenset()",
    "PromiseBody": (
        "polarity, type, constraints=frozenset(), condition=Condition(literals=frozenset())"
    ),
    "Promise": "promiser, promisee, body, group=''",
    "Bundle": "name, bodies, parent=None",
    "Agent": "name, private_attrs=()",
    "PromiseTypeDecl": "name, kind",
    "AutonomyFinding": "promise, type_name, message",
    "PromiseGraph": "agents, types, bundles, promises",
    "IdentTerm": "name, start=0, end=0",
    "ParamTerm": "name, start=0, end=0",
    "NumberTerm": "value, start=0, end=0",
    "StringTerm": "value, start=0, end=0",
    "CmpLiteralNode": "lhs, op, rhs, start=0, end=0",
    "FlagLiteralNode": "name, negated=False, start=0, end=0, name_start=0",
    "ConditionNode": "literals, start=0, end=0",
    "BodyNode": "polarity, subject, value=None, condition=None, start=0, end=0",
    "AgentDecl": "names, start=0, end=0, name_starts=None",
    "TypeDecl": "name, kind, start=0, end=0, name_start=0, name_end=0",
    "FlagDecl": "name, start=0, end=0, name_start=0",
    "BundleDecl": "name, parent, bodies, start=0, end=0, name_start=0, parent_start=0",
    "BundleRef": "name, condition=None, start=0, end=0, name_start=0",
    "PromiseDecl": "promiser, promisee, item, start=0, end=0, promisee_start=0",
    "ModelAst": "decls, file='<model>', lines=None",
    "Finding": "severity, code, message, promises",
    "CheckReport": "findings=()",
    "Role": "signature, label, members",
    "SpanningClass": "representative, members, signature",
    "IsAVerdict": "outcome, details=(), involved=()",
    "ClassNode": "condition, bodies",
    "RoleClasses": "role, base, subtypes",
    "ClassHierarchy": "classes, findings=()",
    "FileEntry": "path, diagnostics=()",
    "Report": "files=(), findings=(), roles=(), hierarchy=None, notes=()",
    "ExclusivityVerdict": "exclusive, witness=None",
    "World": "active, eqs, neqs",
    "Diagnostic": "severity, code, message, span",
    "ParseResult": "ast, diagnostics",
    "ResolveResult": "graph, diagnostics",
}


def fields_of(cls) -> str:
    """The constructor's parameters in order, each with its default, as in
    ``name, scope=''``."""
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values()
    )


def _hash(value):
    """hash(value), or TypeError for a value that holds a list."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_contract(name):
    make, make_equal, expected = CASES[name]
    value, equal = make(), make_equal()
    cls = type(value)
    assert cls.__name__ == name
    assert fields_of(cls) == FIELDS[name]
    assert repr(value) == expected

    # Equality over the compared fields only, and a hash that agrees.
    assert value == equal and not value != equal and value is not equal
    assert _hash(value) == _hash(equal)

    # Every field is a keyword; a subclass with the same fields is not equal.
    names = list(inspect.signature(cls).parameters)
    keywords = {n: getattr(value, n) for n in names}
    assert cls(**keywords) == value
    twin = type("Twin", (cls,), {})(**keywords)
    assert twin != value and value != twin

    # Immutable: no field can be set or deleted, and no attribute added.
    for attr in (*names, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == equal

    # A shallow copy is a distinct, equal object of the same class.
    copied = copy.copy(value)
    assert copied == value and copied is not value and type(copied) is cls


def _value_classes() -> list[type]:
    """Every ``Value`` subclass that a module of the package defines."""
    for module in pkgutil.walk_packages(promisekit.__path__, "promisekit."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    found, bases = [], [Value]
    while bases:
        for cls in bases.pop().__subclasses__():
            bases.append(cls)
            if cls.__module__.startswith("promisekit."):
                found.append(cls)
    return found


def test_each_slot_is_written_through_its_own_descriptor():
    """A class's ``_setters`` holds the ``__set__`` of each of its slots but
    ``__dict__``, in ``__slots__`` order, so a constructor that unpacks it
    names its writers in the order the slots are listed."""
    classes = _value_classes()
    assert sorted(cls.__name__ for cls in classes) == sorted(CASES)
    for cls in classes:
        slots = [name for name in cls.__slots__ if name != "__dict__"]
        assert [setter.__self__ for setter in cls._setters] == [cls.__dict__[n] for n in slots]


def test_terms_of_different_kinds_are_never_equal():
    assert IdentTerm("x") != ParamTerm("x")
    assert FlagDecl("x") != IdentTerm("x")
    assert Attribute("x") != NamedConst("x") and Attribute("x") != Parameter("x")
    assert StrConst("1") != NumConst(1)
    assert len({IdentTerm("x"), ParamTerm("x"), FlagDecl("x")}) == 3


def test_sides_are_stored_in_term_order():
    assert EqConstraint(W, WIDTH) == EqConstraint(WIDTH, W)
    assert (EqConstraint(W, WIDTH).lhs, EqConstraint(W, WIDTH).rhs) == (WIDTH, W)
    literal = CmpLiteral(W, "eq", NumConst(1))
    assert (literal.lhs, literal.op, literal.rhs) == (NumConst(1), "eq", W)
    assert literal == CmpLiteral(NumConst(1), "eq", W) != CmpLiteral(W, "neq", NumConst(1))


def test_constructors_keep_their_checks():
    with pytest.raises(InvalidBodyError, match="unknown polarity: 'take'"):
        PromiseBody("take", "width")
    with pytest.raises(InvalidBodyError, match="use body for 'width' must not carry"):
        PromiseBody("use", "width", frozenset({EQ}))
    with pytest.raises(ValueError, match="at least one promise"):
        Finding(Severity.RESTRICTED, "c", "m", ())
    with pytest.raises(TypeError, match="unhashable"):
        Condition({READY})  # a shared value hashes at construction


def test_cached_properties_are_made_once_per_object():
    body = give("width", EQ)
    assert body.text == "+width=$w" and body.text is body.text
    assert vars(body)["text"] == "+width=$w"
    graph = PromiseGraph((Agent("a"),), (), (), (PROMISE,))
    assert graph.agent("a") == Agent("a") and graph.promises_from("a") == (PROMISE,)
    assert {"_agent_map", "_outgoing"} <= set(vars(graph))
    copied = copy.copy(graph)
    assert copied == graph and copied.agent("a") == Agent("a")
    condition = Condition.of(READY, FlagLiteral("go", negated=True))
    assert condition.text == "not go and ready" and condition.text is condition.text
    assert vars(condition)["text"] == "not go and ready"
    world = World(frozenset({Condition.of(READY), Condition.of(FlagLiteral("go"))}), (), ())
    assert world.when == " (when go & ready)"
    assert World(frozenset(), (), ()).when == ""


# The classes shared across a request, which compute their hash once.
STORED_HASH = (
    "Attribute", "Parameter", "NumConst", "StrConst", "NamedConst",
    "EqConstraint", "CmpLiteral", "FlagLiteral", "Condition", "PromiseBody",
)


def test_only_shared_values_store_their_hash():
    stored = {name for name, (make, _, _) in CASES.items() if "_hash" in type(make()).__slots__}
    assert stored == set(STORED_HASH)


@pytest.mark.parametrize("name", STORED_HASH)
def test_a_shared_value_computes_its_key_once(name, monkeypatch):
    """A shared value computes its compared key only when asked for it: the
    constructor hashes its own arguments, in the key's order, and hashing
    reads the stored hash, which is that of the key."""
    make, _, _ = CASES[name]
    cls = type(make())
    key, computed = cls._key, []
    monkeypatch.setattr(cls, "_key", staticmethod(lambda obj: computed.append(obj) or key(obj)))
    values = [make() for _ in range(3)]
    for value in values:
        hash(value)
        assert {value: 1}[value] == 1 and value in {value}
    assert computed == []
    assert all(hash(value) == hash(key(value)) for value in values)


@pytest.mark.parametrize("name", STORED_HASH)
def test_the_stored_hash_is_not_a_field(name):
    make, _, _ = CASES[name]
    value = make()
    cls = type(value)
    assert "_hash" not in repr(value)
    assert cls.__match_args__ == cls._fields == tuple(inspect.signature(cls).parameters)
    assert value.__reduce__() == (cls, tuple(getattr(value, f) for f in cls._fields))


def test_an_unpickled_value_hashes_as_one_built_in_its_process():
    """A value pickled under one ``PYTHONHASHSEED`` and loaded under another
    hashes equal to an equal value built there, so no stored hash crosses
    processes.  String hashes differ between the two seeds, so a stale hash
    would show."""
    build = (
        "from promisekit.model import *\n"
        "body = give('width', EqConstraint(Attribute('width'), Parameter('w', 'g')),"
        " condition=Condition.of(FlagLiteral('ready'),"
        " CmpLiteral(NamedConst('red'), 'neq', StrConst('s')),"
        " CmpLiteral(Attribute('h'), 'eq', NumConst(2))))\n"
    )
    dump = build + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(body))\n"
    load = (
        build + "import pickle, sys\nloaded = pickle.loads(sys.stdin.buffer.read())\n"
        "print(loaded == body, hash(loaded) == hash(body), hash(body))\n"
    )
    src = str(Path(promisekit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code: str, seed: str, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": seed}
        return subprocess.run(
            [sys.executable, "-c", code], input=data, env=env,
            capture_output=True, check=True, timeout=60,
        ).stdout

    pickled = run(dump, "1")
    equal, same_hash, there = run(load, "2", pickled).split()
    assert (equal, same_hash) == (b"True", b"True")
    here = run(build + "print(hash(body))\n", "1").strip()
    assert int(there) != int(here)
