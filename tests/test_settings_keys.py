"""The README's model-settings table names every settings key the library reads,
and its expression table every name the expression evaluator knows."""

import ast
import re
from pathlib import Path

from modelkit import expr

ROOT = Path(__file__).resolve().parents[1]


def _keys_read():
    """String keys read as ``<x>.settings.get("key")`` or ``<x>.settings["key"]``
    anywhere in src/modelkit."""
    keys = set()
    for path in sorted((ROOT / "src" / "modelkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and node.args):
                target, key = node.func.value, node.args[0]
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                target, key = node.value, node.slice
            else:
                continue
            if (isinstance(target, ast.Attribute) and target.attr == "settings"
                    and isinstance(key, ast.Constant) and isinstance(key.value, str)):
                keys.add(key.value)
    return keys


def _keys_documented():
    """First-column keys of the table under README's "Model settings" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Model settings", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `([a-z_]+)` \|", section, re.MULTILINE))


def test_every_settings_key_read_is_in_the_readme_table():
    assert _keys_read() == _keys_documented()


def _names_documented():
    """The backquoted names in the first column of the table under README's
    "Expressions" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Expressions", 1)[1].split("\n#", 1)[0]
    cells = re.findall(r"^\| ([^|]+) \|", section, re.MULTILINE)
    return {name for cell in cells for name in re.findall(r"`([a-z_]+)`", cell)}


def test_every_expression_name_is_in_the_readme_table():
    assert _names_documented() == set(expr._REGISTRY)
