"""Layout guard: every top-level function and class of the package is used.

A helper that no module of the package references, and that no __all__
lists, is dead code or a test-only tool; such helpers are deleted (or
moved to tests/_util.py) rather than kept in src/.  The allowlist names
the few that stay for another reason.  References are matched by name, so
a local variable or attribute of the same name also counts as a use.
"""

import ast
from collections import Counter
from pathlib import Path

import chaincodes

SRC = Path(chaincodes.__file__).resolve().parent

ALLOWED = {
    "chain._ref_from_int": "the element kernel's tuple reference, read by the kernel tests",
    "chain.from_u_adic": "perfbench/run.py reads its cache_info()",
    "galois.residue": "the Teichmuller tests check against it",
    "ringcodes.enumerate_codewords": "the signature tests decode codeword sets with it",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


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
