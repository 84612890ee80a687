"""Every top-level function and class of the package has a reader: its
name occurs in src/, demos/ or benchmarks/ outside its own definition.
The tests do not count."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Unread until the planned diagnostics.csv (ROADMAP item 8A) uses it.
ALLOWED = {"metrics.kernel_mse_curves"}


def test_every_top_level_name_has_a_reader():
    texts = {path: path.read_text() for folder in ("src", "demos", "benchmarks")
             for path in (ROOT / folder).rglob("*.py")}
    unread = []
    for path in sorted((ROOT / "src" / "domkl").glob("*.py")):
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            name = "%s.%s" % (path.stem, getattr(node, "name", ""))
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or name in ALLOWED):
                continue
            rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
            others = [text for other, text in texts.items() if other != path]
            if not any(re.search(r"\b%s\b" % node.name, text)
                       for text in others + ["\n".join(rest)]):
                unread.append(name)
    assert unread == []
