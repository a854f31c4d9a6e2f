"""No dead names in the library.

Every top-level function, class, class method and module-level
assignment of `src/chevmc` must be named somewhere besides its own
definition: in the library, the tests, the benchmark harness or the
package metadata.  A name written only once is read by nothing.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chevmc"


def _defined(tree):
    """The names the module defines at top level and in the bodies of
    its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def test_every_library_name_is_used():
    texts = [p.read_text(encoding="utf-8")
             for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    texts.append((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    words = Counter(w for t in texts for w in re.findall(r"\w+", t))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _defined(tree):
            if not (name.startswith("__") and name.endswith("__")) and (
                    words[name] < 2):
                dead.append("%s: %s" % (path.name, name))
    assert not dead, dead
