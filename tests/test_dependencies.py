"""The package's only runtime dependency is numpy."""

import ast
import sys
from pathlib import Path

import lensdist

# Read statically: at run time sys.modules also holds what site hooks import.
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_src_imports_only_numpy_and_the_standard_library():
    sources = sorted(Path(lensdist.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"
