"""Guards on the library source itself."""

import argparse
import ast
import dataclasses
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "adsq"
sys.path.insert(0, str(SRC.parents[1] / "perfbench"))

from tracing import SPANS  # noqa: E402


def test_library_has_no_assert_statements():
    """``python -O`` strips assert statements, so a runtime guard written
    as one silently disappears; library checks must raise instead."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# calls that open a path for writing without taking an ``open`` mode
PATH_WRITERS = {"tofile", "write_bytes", "write_text", "save", "savez", "savez_compressed",
                "savetxt"}


def _writes_or_imports_struct(path):
    """Lines of ``path`` that import ``struct`` or open a file for writing:
    an ``open`` whose mode is not a literal read-only mode, or a numpy /
    pathlib call that writes a path itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            bad = any(a.name.split(".")[0] == "struct" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module or "").split(".")[0] == "struct"
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                bad = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                           and not set(mode.value) & set("wax+"))
            else:
                bad = name in PATH_WRITERS
        else:
            bad = False
        if bad:
            found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_only_the_file_container_writes_files_or_packs_structs():
    """Every write goes through ``adsq.fileio`` so that it is atomic, and
    every binary layout is laid out and checked there alone."""
    container = SRC / "fileio.py"
    assert _writes_or_imports_struct(container), "the scan no longer sees the container's writes"
    found = [line for path in sorted(SRC.rglob("*.py")) if path != container
             for line in _writes_or_imports_struct(path)]
    assert found == []


def _unread_parameters(path):
    """``name:line:param`` for each parameter of a function in ``path`` that
    its body (nested functions included) never reads. Dunder protocol
    methods take their parameters from the protocol and are exempt."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                (node.name.startswith("__") and node.name.endswith("__")):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.relative_to(SRC)}:{node.lineno}:{node.name}({p})"
                  for p in params if p not in read]
    return found


def test_every_parameter_is_read():
    """A parameter no body reads misleads every caller that fills it in."""
    found = [line for path in sorted(SRC.rglob("*.py")) for line in _unread_parameters(path)]
    assert found == []


ROOT = SRC.parents[1]
# serialised whole by astuple / asdict, so every field is read without a name
WHOLE_RECORDS = {"LogRow", "HyperParams", "SynthSpec"}


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _dataclass_fields(path):
    """``(class, field)`` for each annotated field of a ``@dataclass`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.name, stmt.target.id)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            and node.name not in WHOLE_RECORDS
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def test_every_dataclass_field_is_read():
    """A field nothing reads is state every constructor must still fill in.
    Each field must be loaded as an attribute somewhere in the library,
    the tests, the scripts or the benchmark."""
    sources = [p for d in ("src/adsq", "tests", "scripts", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    loaded = {n.attr for p in sources
              for n in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = [f for path in sorted(SRC.rglob("*.py")) for f in _dataclass_fields(path)]
    assert len(fields) > 20, "the scan no longer sees the dataclass fields"
    assert [f"{cls}.{name}" for cls, name in fields if name not in loaded] == []

# top-level library names the tests may be alone in naming, each with the
# reason; both are also traced spans today, so they stay in the library
TEST_REFERENCES = {
    "bstep_objective": "acceptance 3's dense reference for the B-step",
    "build_similarity": "the dense reference for LabelPatterns",
}


def _top_level_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _loaded_names(path):
    """``(owner, name)`` for each name loaded in ``path`` as a variable or an
    attribute; ``owner`` is the top-level definition it sits in, or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {(getattr(top, "name", None), n.id if isinstance(n, ast.Name) else n.attr)
            for top in tree.body for n in ast.walk(top)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_library_names_have_a_non_test_caller():
    """Every top-level function and class of the library is named outside its
    own definition by the library, the scripts or the benchmark (the traced
    attributes in ``SPANS`` included). A name only the tests use is surface
    kept for them alone; the few that are references are listed."""
    places = {}
    for d in ("src/adsq", "scripts", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for owner, name in _loaded_names(path):
                places.setdefault(name, set()).add((path, owner))
    for span in SPANS:
        for name in span[2].split("."):
            places.setdefault(name, set()).add((None, None))
    defined = [(path, name) for path in sorted(SRC.rglob("*.py"))
               for name in _top_level_names(path)]
    assert len(defined) > 50, "the scan no longer sees the library's definitions"
    assert [f"{path.relative_to(SRC)}:{name}" for path, name in defined
            if name not in TEST_REFERENCES
            and not places.get(name, set()) - {(path, name)}] == []


def _methods(path):
    """``(class, name)`` for each method and property of a class in ``path``;
    dunder protocol methods are called by the language and are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.name, f.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def test_library_methods_have_a_non_test_caller():
    """Every method and property of a library class is loaded as an
    attribute by the library, the scripts or the benchmark (the traced
    attributes in ``SPANS`` included); one only the tests load is surface
    kept for them alone."""
    loaded = {name for span in SPANS for name in span[2].split(".")}
    for d in ("src/adsq", "scripts", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            loaded |= {n.attr for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                                          filename=str(path)))
                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    methods = [(path, cls, name) for path in sorted(SRC.rglob("*.py"))
               for cls, name in _methods(path)]
    assert len(methods) > 10, "the scan no longer sees the library's methods"
    assert [f"{path.relative_to(SRC)}:{cls}.{name}" for path, cls, name in methods
            if name not in loaded] == []


# defaulted parameters the tests may be alone in passing, each with the reason
TEST_ARGUMENTS = {
    "evaluate(recall_grid)": "acceptance 4 checks PR on a grid of its own against the oracle",
}
# defaulted parameters that every run fills in, each with the reason the default stays
TEST_DEFAULTS = {
    "encode_matrix(names)": "acceptance 6-8 encode as an in-process user does, unnamed",
}


def _defaulted_parameters(path):
    """``(function, parameter, position)`` for each parameter of a function
    in ``path`` that has a default. ``position`` counts the call's own
    positional arguments, so a method's ``self`` is not counted; it is None
    for a keyword-only parameter. Dunder protocol methods are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                (node.name.startswith("__") and node.name.endswith("__")):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        skip = id(node) in methods and not any(getattr(d, "id", None) == "staticmethod"
                                               for d in node.decorator_list)
        found += [(node.name, p.arg, i - skip)
                  for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
        found += [(node.name, p.arg, None)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def _passes(call, param, position):
    """Whether ``call`` fills in ``param``; a starred argument fills in all."""
    return any(isinstance(arg, ast.Starred) for arg in call.args) or \
        any(k.arg in (None, param) for k in call.keywords) or \
        (position is not None and len(call.args) > position)


def _defaults_and_their_fillings():
    """``(name(param), [whether each call fills it in])`` for each defaulted
    parameter of the library, over every call of its name in the library,
    the scripts and the benchmark."""
    calls = {}
    for d in ("src/adsq", "scripts", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    defaulted = [f for path in sorted(SRC.rglob("*.py")) for f in _defaulted_parameters(path)]
    assert {("forward", "keep_hidden", 2), ("atomic_open", "mode", 1)} <= set(defaulted), \
        "the scan no longer sees the library's defaults"
    return [(f"{name}({param})", [_passes(call, param, position)
                                  for call in calls.get(name, [])])
            for name, param, position in defaulted]


def test_every_default_is_overridden_outside_the_tests():
    """A defaulted parameter that no caller in the library, the scripts or
    the benchmark fills in is an option kept for the tests alone: read the
    value inside, or list the parameter with the reason it stays."""
    unused = [name for name, fills in _defaults_and_their_fillings() if not any(fills)]
    assert sorted(unused) == sorted(TEST_ARGUMENTS)


def test_every_default_is_taken_outside_the_tests():
    """A defaulted parameter that every caller in the library, the scripts
    and the benchmark fills in has a default kept for the tests alone: make
    the parameter required, or list it with the reason its default stays.
    One that no such caller reaches is left to the test above."""
    always = [name for name, fills in _defaults_and_their_fillings() if fills and all(fills)]
    assert sorted(always) == sorted(TEST_DEFAULTS)


# HyperParams fields that no library code, script or benchmark sets, each
# with the reason it stays: all are paper settings that the user sets
USER_SETTINGS = {
    "alpha": "the paper's weight of the semantic pairwise likelihood",
    "beta": "the paper's weight of the code pairwise likelihood",
    "gamma": "the paper's weight of the label network's binary regularizer",
    "delta": "the paper's weight of the classification term",
    "nu": "the paper's weight of the bit-balance term",
    "eta": "the paper's weight of the quantization term",
    "batch_size": "the paper's SGD minibatch size",
    "momentum": "the paper's SGD momentum",
    "weight_decay": "the paper's SGD weight decay",
}


def _named_settings(path):
    """Names ``path`` gives as settings: a call keyword, a string dict key,
    a string-subscript store such as ``overrides["k_half"] = ...``, or the
    ``name`` of a string constant ``name=...`` (a ``--set`` argument). A
    ``**`` spread names nothing."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.keyword) and node.arg is not None:
            found.add(node.arg)
        elif isinstance(node, ast.Dict):
            found |= {k.value for k in node.keys
                      if isinstance(k, ast.Constant) and isinstance(k.value, str)}
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and \
                isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
            found.add(node.slice.value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and \
                "=" in node.value:
            found.add(node.value.split("=", 1)[0])
    return found


def test_every_setting_is_set_by_some_run():
    """A ``HyperParams`` field that no library code, script or benchmark
    sets keeps a configuration alive for the tests alone: delete it, or
    list it with the reason it stays."""
    from adsq.config import HyperParams

    named = set()
    for d in ("src/adsq", "scripts", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path != SRC / "config.py":
                named |= _named_settings(path)
    fields = [f.name for f in dataclasses.fields(HyperParams)]
    assert {"k_half", "seed", "lr_min"} <= named, "the scan no longer sees the settings"
    assert sorted(f for f in fields if f not in named) == sorted(USER_SETTINGS)


def _reaches_training(path):
    """Lines of ``path`` that import ``adsq.trainer`` or load the name
    ``HyperParams``: training or its settings built outside ``adsq train``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            bad = any(a.name == "adsq.trainer" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "adsq.trainer" or (
                node.module == "adsq" and any(a.name == "trainer" for a in node.names))
        else:
            bad = (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                   and getattr(node, "id", getattr(node, "attr", None)) == "HyperParams")
        if bad:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_scripts_train_only_through_the_command():
    """A script that trains in-process measures a copy of ``adsq train``
    that can drift from the command; scripts reach training through
    ``adsq.cli`` alone."""
    scripts = sorted((ROOT / "scripts").rglob("*.py"))
    assert scripts, f"no scripts found under {ROOT / 'scripts'}"
    assert [line for path in scripts for line in _reaches_training(path)] == []


# adsq options that no script or benchmark passes, each with the reason it stays
USER_OPTIONS = {
    "train --config": "a JSON file of settings that the user writes",
    "synth --overlap": "the multi-label rate of the benchmark workloads' data "
                       "(perfbench/workloads.py OVERLAP), which a user makes with adsq synth",
}


def _passed_options(path):
    """The ``--`` string constants of ``path``, but for the options that its
    own parser adds."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    own = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
           and getattr(node.func, "attr", None) == "add_argument" for arg in node.args}
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and isinstance(n.value, str) and n.value.startswith("--") and id(n) not in own}


def test_every_option_is_passed_by_some_run():
    """An ``adsq`` option that no script or benchmark passes is a second way
    in kept for the tests alone: delete it, or list it with the reason it
    stays."""
    from adsq.cli import build_parser

    passed = {opt for d in ("scripts", "perfbench") for path in sorted((ROOT / d).rglob("*.py"))
              for opt in _passed_options(path)}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = [f"{name} {opt}" for name, parser in commands.items() for a in parser._actions
               for opt in a.option_strings if opt.startswith("--") and opt != "--help"]
    assert len(options) > 20, "the scan no longer sees the options"
    assert sorted(o for o in options if o.split()[1] not in passed) == sorted(USER_OPTIONS)
