"""The README's library quickstart runs and prints what its comments say."""

import ast
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def matches(value, stated: str) -> bool:
    """`~x`: value rounds to x at the digits shown; `a...b`: repr(value)
    is a, some elided digits and b; anything else is a Python literal equal
    to value."""
    if stated.startswith("~"):
        return round(value, len(stated.partition(".")[2])) == float(stated[1:])
    if "..." in stated:
        head, _, tail = stated.partition("...")
        return re.fullmatch(re.escape(head) + r"\d*" + re.escape(tail), repr(value)) is not None
    return value == pytest.approx(ast.literal_eval(stated))


def test_readme_quickstart_states_its_values():
    namespace, checked = {}, 0
    for line in quickstart().splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        if comment and isinstance(ast.parse(code).body[0], ast.Expr):
            value = eval(code, namespace)
            assert matches(value, comment), (code, value, comment)
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 7
