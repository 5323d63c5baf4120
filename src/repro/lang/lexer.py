"""Tokenizer for the Rel language.

Token kinds: ``num`` (integer literals), ``name`` (identifiers),
``kw`` (reserved words), ``op`` (operators and punctuation), ``eof``.
Comments run from ``//`` to end of line.

Character classes (Python's own, so the whole of Unicode is covered):

* whitespace is ``str.isspace()`` (regex ``\\s``); only ``\\n`` ends a
  line for line numbering;
* a number is a run of decimal digits, ``str.isdecimal()`` (regex
  ``\\d``) — so ``٣`` is the number 3, but ``²`` is not a digit;
* a name starts with ``str.isalpha()`` or ``_`` and continues with
  ``str.isalnum()`` or ``_`` (regex ``\\w``).  A ``\\w`` run that
  starts with anything else (``²``, ``½``) is an unexpected character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LangError

KEYWORDS = frozenset(
    {"func", "var", "array", "if", "else", "while", "return", "print", "burn"}
)

#: One token after any whitespace and comments, within one line.  The
#: skip group is possessive: it never gives a character of a comment
#: back to the token alternatives.  Groups: number, word, operator
#: (two-character operators first so '==' beats '='), any other
#: character; all empty once only whitespace and comments remain.
_TOKEN = re.compile(
    r"(?:\s|//[^\n]*)*+"
    r"(?:(\d+)|(\w+)|(==|!=|<=|>=|&&|\|\||[-+*/%<>=!(){}\[\],;])|(.))?"
)


@dataclass(frozen=True)
class Token:
    """One lexeme with its source line (for error messages)."""

    kind: str   # num | name | kw | op | eof
    value: object
    line: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}:{self.value!r}@{self.line}"


def tokenize(source: str) -> list[Token]:
    """Turn Rel source text into a token list ending with ``eof``."""
    return [Token(kind, value, line) for kind, value, line in lex(source)]


def lex(source: str) -> list[tuple[str, object, int]]:
    """:func:`tokenize` as plain ``(kind, value, line)`` triples.

    This is what the parser reads: a tuple of atoms is the cheapest
    object Python builds, and the cyclic collector stops tracking it,
    so a large program's token stream costs no collector time.

    No token or comment spans a ``\\n``, so each line is scanned on
    its own and the line number is the line's index.
    """
    tokens: list[tuple[str, object, int]] = []
    append = tokens.append
    findall = _TOKEN.findall
    keywords = KEYWORDS
    for line, text in enumerate(source.split("\n"), start=1):
        for num, word, op, other in findall(text):
            if op:
                append(("op", op, line))
            elif word:
                first = word[0]
                if not (first.isalpha() or first == "_"):
                    raise LangError(f"unexpected character {first!r}", line)
                append(("kw" if word in keywords else "name", word, line))
            elif num:
                append(("num", int(num), line))
            elif other:
                raise LangError(f"unexpected character {other!r}", line)
    append(("eof", None, line))
    return tokens
