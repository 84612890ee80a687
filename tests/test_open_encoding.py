"""Every ``open`` call of the package names its text encoding, so how a
file decodes never depends on the locale."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_open_names_an_encoding():
    unnamed = []
    for path in sorted((ROOT / "src" / "domkl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and not any(kw.arg == "encoding" for kw in node.keywords)):
                unnamed.append("%s:%d" % (path.name, node.lineno))
    assert unnamed == []
