#!/usr/bin/env python3
"""Print the size figures that ROADMAP.md's State section quotes.

    python3 bench/size.py

Counts, for the checkout the script lives in: the lines of ``src/trifocal``
and of ``tests`` (as ``wc -l`` counts them), the branch nodes of ``src``
(``ast`` If, For, While, Try, IfExp, BoolOp and comprehension nodes), and
the five functions with the most branch nodes.  A function's count takes in
the functions nested in it.
"""
from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BRANCHES = (ast.If, ast.For, ast.While, ast.Try, ast.IfExp, ast.BoolOp, ast.comprehension)


def lines(directory: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in directory.glob("*.py"))


def branch_count(node: ast.AST) -> int:
    return sum(isinstance(n, BRANCHES) for n in ast.walk(node))


def functions(node: ast.AST, prefix: str):
    """(qualified name, branch count) of every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, branch_count(child)
            yield from functions(child, name)
        else:
            yield from functions(child, prefix)


def main() -> int:
    src = REPO / "src" / "trifocal"
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    print(f"src lines: {lines(src)}")
    print(f"tests lines: {lines(REPO / 'tests')}")
    print(f"src branch nodes: {sum(branch_count(t) for t in trees.values())}")
    ranked = sorted(
        (f for module, tree in trees.items() for f in functions(tree, module)),
        key=lambda f: -f[1],
    )
    print("most branched functions:")
    for name, count in ranked[:5]:
        print(f"  {count:3d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
