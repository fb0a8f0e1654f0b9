#!/usr/bin/env python3
"""Code lines of every module under ``src/``: the size figure kept next to the timings.

    python3 tools/src_lines.py [ROOT]

It prints one JSON object mapping each module's path (relative to
``ROOT/src``) to its code lines, with their sum under ``"total"``, the sum
over the modules that a fresh ``import proxgap.harness.cli`` loads (found by
importing it in a subprocess that writes no ``__pycache__``) under
``"runtime"``, and the physical line count under ``"physical"``.  A code
line holds a token other than a comment, a line break or indentation, and is
not part of a docstring (the string that opens a module, class or function
body).  ``ROOT`` defaults to the checkout this script lives in.
"""

import argparse
import ast
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(root: Path) -> dict:
    src = root / "src"
    out, physical = {}, 0
    for path in sorted(src.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        out[path.relative_to(src).as_posix()] = code_lines(source)
        physical += len(source.splitlines())
    out["total"] = sum(out.values())
    out["runtime"] = sum(out[name] for name in runtime_modules(src))
    out["physical"] = physical
    return out


def runtime_modules(src: Path) -> list:
    """Paths, relative to ``src``, of the modules that a fresh interpreter
    loads from ``src`` when it imports the command-line interface."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import proxgap.harness.cli\n"
            "print('\\n'.join(m.__file__ for m in list(sys.modules.values())\n"
            "                 if getattr(m, '__file__', None)))\n")
    src = src.resolve()
    # -B: the import writes no __pycache__ into the checkout it counts
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    files = (Path(line).resolve() for line in done.stdout.splitlines())
    return sorted(path.relative_to(src).as_posix() for path in files
                  if path.is_relative_to(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ is counted (default: this one)")
    args = parser.parse_args(argv)
    print(json.dumps(count(Path(args.root))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
