"""No dead names in the library.

Every top-level function, class and class method of `src/chevmc` must
be named somewhere in `src/` or `perfbench/` outside its own body: as a
name, an attribute, an imported name or a string constant equal to it
(the harness wraps names by string), or as the console script of the
package metadata.  One mention anywhere is enough, so this is a check on
names, not on calls: it does not follow what actually runs, a helper
named only by a test-only library function passes, and methods that
share a name satisfy each other.  A name that only `tests/` mentions
fails.  Every module-level assignment must be named somewhere besides
its own definition, tests included.

The G/P pair waits to be wired into the command line (ROADMAP item 5)
and is exempt by name; the exemption fails once either is reached, so
it cannot outlive its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chevmc"
EXEMPT = ["chevalley_parabolic", "expand_product_parabolic"]


def _sources(*dirs):
    return [p.read_text(encoding="utf-8")
            for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def _named(node):
    """The names `node` and its descendants refer to, one per mention."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _definitions(tree):
    """The top-level functions and classes of a module and the functions
    in the bodies of its classes, as AST nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item


def _assigned(tree):
    """The names that the module's top-level assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_library_name_is_used():
    named = Counter(n for text in _sources("src", "perfbench")
                    for n in _named(ast.parse(text)))
    named.update(re.findall(
        r"\w+", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    words = Counter(w for text in _sources("src", "tests", "perfbench")
                    for w in re.findall(r"\w+", text))
    unreached, unused = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _definitions(tree):
            own = sum(n == node.name for n in _named(node))
            if not _dunder(node.name) and named[node.name] <= own:
                unreached.append(node.name)
        unused += ["%s: %s" % (path.name, name) for name in _assigned(tree)
                   if not _dunder(name) and words[name] < 2]
    assert sorted(unreached) == sorted(EXEMPT), "unreached: " + ", ".join(
        sorted(unreached))
    assert not unused, unused
