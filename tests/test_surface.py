"""Dead-code guard: every definition in ``rootline`` has a caller.

A top-level function or class, or a public method, passes when its name
appears somewhere in ``src/rootline`` or ``bench/`` outside its own
definition, as a ``Name`` or an ``Attribute``.  Imports and the
package's ``__all__`` do not count: importing or re-exporting a name is
not calling it.  The only other way to pass is an entry in ``KEEP`` with
its reason, and ``KEEP`` lists only names the guard would flag without
it: an entry whose name has gained a caller fails.  Tests do not count
as callers: a helper only the tests use belongs in the tests.

A second guard holds defaulted parameters to the rule: every parameter
with a default, of a definition that src/ or bench/ calls by name, is
passed at one of those calls (positionally, by keyword or through
``*``/``**``), or is listed in ``KEEP_PARAMS`` with its reason.  A
default no caller overrides is a constant, and is written as one.  As
with ``KEEP``, an entry whose parameter has gained a caller fails.

A third guard holds the command line to the same rule: every option a
subcommand declares is read by its handler, so no option is accepted
and then ignored.
"""

import argparse
import ast
import inspect
from pathlib import Path

import pytest

import rootline
from rootline import cli

SRC = Path(rootline.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

#: qualified name -> why it stays without a caller in src/ or bench/
KEEP = {
    "chebyshev.cheb_poly": "named in bench/spans.py's TRACED list, whose probe test fails on a "
                           "name it has to skip",
    "symfuncs.extended_power_sums": "named in bench/spans.py's TRACED list, whose probe test "
                                    "fails on a name it has to skip",
}


#: "module.definition(parameter)" -> why its default stays though no call
#: in src/ or bench/ passes it
KEEP_PARAMS = {
    "cli.main(argv)": "None reads sys.argv, as the console script does; the tests pass "
                      "their own argument lists",
    "selftest.random_ks_instance(max_outcomes)": "criterion 9 draws instances of up to 4096 "
                                                 "outcomes; the tests draw smaller ones",
}


def _references(tree):
    """[(name, enclosing definitions)] for every name the module mentions."""
    out = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (node,)
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return out


def _definitions(module, tree):
    """[(qualified name, simple name, node)] of top-level defs and public methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((f"{module}.{node.name}.{item.name}", item.name, item))
    return out


def unreferenced(keep=KEEP):
    files = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, name, node in _definitions(path.stem, trees[path]):
            if qualname in keep:
                continue
            if not any(ref == name and node not in enclosing for ref, enclosing in refs):
                missing.append(qualname)
    return missing


def test_every_definition_has_a_caller():
    assert unreferenced() == []


def test_keep_entries_have_no_caller():
    assert sorted(set(KEEP) - set(unreferenced(keep=()))) == []


def test_keep_entries_still_exist():
    names = {qualname for path in SRC.glob("*.py")
             for qualname, _, _ in _definitions(path.stem, ast.parse(path.read_text()))}
    assert set(KEEP) <= names


def _defaulted(node, bound):
    """[(name, positional index or None)] of the defaulted parameters of a
    function, its first ``bound`` positional parameters (self, cls) left out."""
    args = node.args
    pos = (args.posonlyargs + args.args)[bound:]
    out = [(p.arg, i) for i, p in enumerate(pos) if i >= len(pos) - len(args.defaults)]
    return out + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _defaulted_parameters(node, is_method):
    """The defaulted parameters a call of the definition can pass: a
    function's or method's own, a class's ``__init__``'s, or a dataclass's
    defaulted fields."""
    if isinstance(node, ast.FunctionDef):
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        return _defaulted(node, int(is_method and not static))
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return _defaulted(item, 1)
    fields = [item for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def _passes(call, name, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if index is not None and len(call.args) > index:
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def unset_defaults(keep=KEEP_PARAMS):
    files = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, name, node in _definitions(path.stem, ast.parse(path.read_text())):
            is_method = qualname.count(".") == 2
            for param, index in _defaulted_parameters(node, is_method):
                entry = f"{qualname}({param})"
                if name in calls and entry not in keep and not any(
                        _passes(call, param, index) for call in calls[name]):
                    missing.append(entry)
    return missing


def test_every_default_is_passed_by_a_caller():
    assert unset_defaults() == []


def test_keep_params_entries_have_no_caller():
    assert sorted(set(KEEP_PARAMS) - set(unset_defaults(keep=()))) == []


def _read_keys(handler):
    """Keys the handler reads as params[...], params.get(...) or needed(...)."""
    keys = set()
    for node in ast.walk(ast.parse(inspect.getsource(handler))):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "params"):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args and (
                isinstance(node.func, ast.Name) and node.func.id == "needed"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "params"):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


@pytest.mark.parametrize("subcommand", sorted(cli._HANDLERS))
def test_every_option_is_read_by_its_handler(subcommand):
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    declared = {a.dest for a in sub.choices[subcommand]._actions
                if not isinstance(a, argparse._HelpAction)} - {"out", "seed"}
    assert _read_keys(cli._HANDLERS[subcommand]) == declared
