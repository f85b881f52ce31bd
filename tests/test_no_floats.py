"""The library source is float-free: no float literals, conversions or float math."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "laurentreal"

# math names that produce floats (plus every log*)
FLOAT_MATH = {"inf", "nan", "pi", "e", "tau", "sqrt", "exp", "pow", "fsum"}
# (module, enclosing function, math name): +infinity is the valuation of zero
ALLOWED = {("series.py", "t_valuation", "inf")}


def is_float_math(name: str) -> bool:
    return name in FLOAT_MATH or name.startswith("log")


def float_uses(path: Path) -> list[str]:
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where} float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where} float() call")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and is_float_math(node.attr)
              and (path.name, function, node.attr) not in ALLOWED):
            found.append(f"{where} math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where} from math import {alias.name}"
                         for alias in node.names if is_float_math(alias.name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_source_is_float_free():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [use for path in files for use in float_uses(path)]
    assert found == []


def test_guard_catches_float_uses(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import math\n"
        "from math import gcd, log10\n"
        "def f(x):\n"
        "    return float(x) + 0.5 + math.log2(x) + math.sqrt(x) + math.inf + gcd(x, 2)\n"
    )
    assert len(float_uses(sample)) == 6
