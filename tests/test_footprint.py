"""Footprint guards: the size of the package's source, counted as AST
nodes, and the modules importing it loads.

Without bytecode caches every run compiles the package, and the peak RSS
of the light benchmark workloads follows the compiled size, so code growth
has to be deliberate.  A change that raises ``CEILING`` says why in a
CHANGES.md line.  Counted with Python 3.11's ``ast``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

CEILING = 24786

SRC = Path(__file__).resolve().parents[1] / "src" / "strichartz_lab"


def test_ast_node_total_within_ceiling():
    total = sum(sum(1 for _ in ast.walk(ast.parse(p.read_text("utf-8"))))
                for p in sorted(SRC.glob("*.py")))
    assert total <= CEILING, f"{total} AST nodes in src/, ceiling {CEILING}"


def test_import_leaves_numpy_polynomial_unloaded():
    # only the vdc quadrature reads Gauss-Legendre nodes; the 1.6 MiB of
    # numpy.polynomial modules load on its first call
    code = ("import sys, strichartz_lab, strichartz_lab.harness; "
            "print('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
