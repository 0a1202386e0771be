"""Every ``admtrack`` name that the demos and the benchmark use still exists
and still takes the arguments they pass.

The names are collected with ``ast``: ``from admtrack... import NAME``, and
``ALIAS.NAME`` after ``import admtrack as ALIAS``. A call of such a name, or
the benchmark's ``call(label, FUNCTION, *args, **kwargs)`` wrapper around
one, is bound to the function's signature. A deleted or renamed public name
would otherwise show only as a failed benchmark run or demo.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])


def admtrack_uses(path: Path) -> tuple[dict, list]:
    """(local name -> (module, attribute)) of the file's admtrack names, and
    each call of one as (name node, positional count or None, keywords)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "admtrack":
            names.update({a.asname or a.name: (node.module, a.name) for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name.split(".")[0] == "admtrack"})

    def resolve(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return modules[node.value.id], node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and resolve(node):
            names[ast.unparse(node)] = resolve(node)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        wrapper = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if not resolve(func) and wrapper == "call" and len(args) >= 2 and resolve(args[1]):
            func, args = args[1], args[2:]  # the benchmark's call(label, function, *args, **kwargs)
        if resolve(func):
            positional = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
            calls.append((resolve(func), positional, [k.arg for k in node.keywords if k.arg is not None]))
    return names, calls


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_admtrack_name_a_caller_uses_exists(path):
    names, calls = admtrack_uses(path)
    missing = [f"{module}.{attr}" for module, attr in set(names.values())
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    for (module, attr), positional, keywords in calls:
        function = getattr(importlib.import_module(module), attr)
        try:
            signature = inspect.signature(function)
        except (TypeError, ValueError):  # a builtin or an enum without a signature
            continue
        if positional is None:
            signature.bind_partial(**dict.fromkeys(keywords))
        else:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))


def test_the_callers_use_admtrack():
    # the collection itself works: the benchmark's workloads reach verify_theorem
    # through call(...) with the keywords it passes
    names, calls = admtrack_uses(ROOT / "perfbench" / "workloads.py")
    assert ("admtrack", "verify_theorem") in set(names.values())
    assert (("admtrack", "verify_theorem"), 3, ["oversample_factor", "start_index"]) in calls
    assert any(name == ("admtrack", "Trace") and keywords == ["params", "records"] for name, _, keywords in calls)
