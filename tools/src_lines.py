"""Physical and code lines of each module under src/phasefeas/, and the totals.

Physical lines are counted as `wc -l` counts them: newline characters.
Code lines are the lines that hold a token other than a comment, once
the module, class and function docstrings are dropped; a token that spans
several lines, such as a multi-line string, counts every line it spans.

Usage: python tools/src_lines.py [SRC_DIR]   (default: the repository's
src/phasefeas)
"""

import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(physical lines, code lines) of one module's source text."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "phasefeas")
    names = sorted(f for f in os.listdir(root) if f.endswith(".py"))
    total_physical = total_code = 0
    print(f"{'module':<20}{'physical':>10}{'code':>8}")
    for name in names:
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            physical, code = count(fh.read())
        total_physical += physical
        total_code += code
        print(f"{name:<20}{physical:>10}{code:>8}")
    print(f"{'total':<20}{total_physical:>10}{total_code:>8}")


if __name__ == "__main__":
    main(sys.argv)
