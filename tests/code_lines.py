"""Code lines of each ``src/wcost`` module: no docstrings, comment-only lines or blank lines.

    python3 tests/code_lines.py [--base REV] [--json PATH]

A line counts when a token of code starts on it or spans it, so each line
of a multi-line expression or string counts, while a docstring (the string
that opens a module, class or function) does not.  Prints the count per
module and in total for the working tree and, with ``--base``, for REV,
which ``git archive`` unpacks into a temporary directory, and the change.
``--json`` also writes the counts to PATH.  Not collected as tests.
"""

import argparse
import ast
import io
import json
import os
import subprocess
import tarfile
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "wcost")
#: Tokens that are not code: comments, line ends and the indentation markers.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code, docstrings left out."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def counts(directory: str) -> dict[str, int]:
    """``code_lines`` of each module in ``directory``, by file name."""
    found = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                found[name] = code_lines(fh.read())
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="also count REV, and the change from it")
    parser.add_argument("--json", metavar="PATH", help="also write the counts to PATH as JSON")
    args = parser.parse_args()
    sides = {"tree": counts(os.path.join(ROOT, PACKAGE))}
    if args.base:
        with tempfile.TemporaryDirectory() as tmp:
            archive = subprocess.run(["git", "-C", ROOT, "archive", args.base, PACKAGE],
                                     check=True, capture_output=True).stdout
            tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp, filter="data")
            sides["base"] = counts(os.path.join(tmp, PACKAGE))
    names = sorted(set().union(*sides.values()))
    rows = {name: {side: found.get(name, 0) for side, found in sides.items()} for name in names}
    rows["total"] = {side: sum(found.values()) for side, found in sides.items()}
    print(f"{PACKAGE}, working tree" + (f" against {args.base}" if args.base else ""))
    print(f"{'module':<20}{'tree':>8}" + (f"{'base':>8}{'change':>8}" if args.base else ""))
    for name, row in rows.items():
        change = f"{row['base']:>8}{row['tree'] - row['base']:>+8}" if args.base else ""
        print(f"{name:<20}{row['tree']:>8}{change}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"base": args.base, "modules": rows}, fh, indent=1)


if __name__ == "__main__":
    main()
