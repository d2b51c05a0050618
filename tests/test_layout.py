"""Layout guard: every top-level function and class of the package is used.

A helper that no module of the package references, and that no __all__
lists, is dead code or a test-only tool; such helpers are deleted (or
moved to tests/_util.py) rather than kept in src/.  The allowlist names
the few that stay for another reason.  References are matched by name, so
a local variable or attribute of the same name also counts as a use.

Cache guard: every lru_cache of the package names an integer maxsize, and
functools.cache is not used, so no cache grows without bound.  The
comment block directly above each @lru_cache holds a "# reuse:" line with
the reuse measured for that cache.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import chaincodes

SRC = Path(chaincodes.__file__).resolve().parent

ALLOWED = {
    "chain._ref_from_int": "the element kernel's tuple reference, read by the kernel tests",
    "chain.from_u_adic": "perfbench/run.py reads its cache_info()",
    "ringcodes.enumerate_codewords": "the signature tests decode codeword sets with it",
}


def _sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}


def _modules():
    return {name: ast.parse(source) for name, source in _sources().items()}


def _exported(tree):
    """The names listed in a module's __all__."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(elt.value for elt in node.value.elts)
    return out


def _names(node):
    """Names loaded and attributes read anywhere in node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_definitions():
    """module.name of each top-level function or class that no other
    top-level statement of the package references (its own body, such as
    a recursive call, does not count) and no __all__ lists."""
    modules = _modules()
    exported = set().union(*map(_exported, modules.values()))
    statements = [(name, node, _names(node)) for name, tree in modules.items() for node in tree.body]
    uses = Counter(ref for _, _, refs in statements for ref in refs)
    return sorted(
        f"{name}.{node.name}"
        for name, node, refs in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and uses[node.name] == (node.name in refs)
    )


def test_every_top_level_definition_is_used_in_the_package():
    assert sorted(set(unused_definitions()) - set(ALLOWED)) == []


def test_the_allowlist_holds_only_unused_definitions():
    # an allowed name that gains a caller in src/ no longer needs its entry
    assert sorted(set(ALLOWED) - set(unused_definitions())) == []


def unbounded_caches(tree):
    """Line numbers of each lru_cache without an integer maxsize and of
    each functools.cache in a parsed module."""
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                bounded.add(id(node.func))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            out += [node.lineno] if getattr(node.value, "id", None) == "functools" else []
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            out += [] if id(node) in bounded else [node.lineno]
    return sorted(out)


def test_every_cache_has_an_integer_bound():
    # a long-lived process must not grow without bound through a cache
    found = {name: unbounded_caches(tree) for name, tree in _modules().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from functools import lru_cache\n@lru_cache(maxsize=16)\ndef f(): pass", []),
        ("import functools\n@functools.lru_cache(8)\ndef f(): pass", []),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass", [2]),
        ("from functools import lru_cache\n@lru_cache\ndef f(): pass", [2]),
        ("from functools import lru_cache\n@lru_cache()\ndef f(): pass", [2]),
        ("from functools import lru_cache\n@lru_cache(maxsize=True)\ndef f(): pass", [2]),
        ("import functools\n@functools.cache\ndef f(): pass", [2]),
        ("from functools import cache\n@cache\ndef f(): pass", [1]),
    ],
)
def test_the_cache_guard_flags_unbounded_caches(source, lines):
    assert unbounded_caches(ast.parse(source)) == lines


def caches_without_reuse(source):
    """Line numbers of each @lru_cache whose comment block directly above
    has no "# reuse:" line."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(target, "id", getattr(target, "attr", None)) != "lru_cache":
                continue
            above = deco.lineno - 2  # index of the line above the decorator
            block = []
            while above >= 0 and lines[above].lstrip().startswith("#"):
                block.append(lines[above].strip())
                above -= 1
            if not any(line.startswith("# reuse:") for line in block):
                out.append(deco.lineno)
    return sorted(out)


def test_every_cache_states_its_measured_reuse():
    found = {name: caches_without_reuse(source) for name, source in _sources().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from functools import lru_cache\n# reuse: 3 hits\n@lru_cache(maxsize=4)\ndef f(): pass",
         []),
        ("import functools\n# why\n# reuse: 3 hits\n@functools.lru_cache(4)\ndef f(): pass", []),
        ("from functools import lru_cache\n@lru_cache(maxsize=4)\ndef f(): pass", [2]),
        ("from functools import lru_cache\n# why, no figure\n@lru_cache(maxsize=4)\ndef f(): pass",
         [3]),
        ("from functools import lru_cache\n# reuse: 3 hits\n\n@lru_cache(maxsize=4)\ndef f(): pass",
         [4]),
        ("from functools import lru_cache\n# reuse: 3 hits\n@lru_cache(maxsize=4)\ndef f(): pass\n"
         "@lru_cache(maxsize=4)\ndef g(): pass", [5]),
    ],
)
def test_the_reuse_guard_flags_caches_without_a_figure(source, lines):
    assert caches_without_reuse(source) == lines
