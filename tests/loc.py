"""Size of the package: the line counts each change to src/ is measured by.

Run with `python tests/loc.py` (the standard library only).  For
src/rbswipt/*.py it prints the `wc -l` count (newlines) and the `tokenize`
count: lines holding a token other than a comment, a docstring (a string
statement on its own line), NL, NEWLINE, INDENT or DEDENT; a token spanning
lines counts each of them.  It prints only and exits 0.  pytest does not
collect this file.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rbswipt"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Lines of `path` holding a token that is neither layout, a comment
    nor a docstring."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines, statement_start = set(), True
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                tokenize.ENCODING)
            continue
        docstring = (tok.type == tokenize.STRING and statement_start
                     and tokens[i + 1].type == tokenize.NEWLINE)
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        statement_start = False
    return len(lines)


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    print(f"{'wc -l':>7} {'tokenize':>8}  file")
    total_wc = total_code = 0
    for path in files:
        wc, code = path.read_bytes().count(b"\n"), code_lines(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:>7} {code:>8}  {path.relative_to(PACKAGE.parents[1])}")
    print(f"{total_wc:>7,} {total_code:>8,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
