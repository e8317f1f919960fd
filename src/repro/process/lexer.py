"""Tokenizer shared by the process-notation and assertion-notation parsers.

The concrete syntax follows the paper with ASCII spellings:

* ``->`` for the arrow, ``|`` for choice, ``||`` for parallel;
* ``!``/``?`` for output/input prefixes, ``:`` for the input's type;
* ``{0..3}`` ranges, ``{ACK, NACK}`` literal sets, ``NAT``;
* ``chan wire, col[0..3]; P`` channel declarations;
* assertions additionally use ``<=`` (prefix order), ``#`` (length), ``^``
  (cons), ``++`` (concatenation), ``&``, ``or``, ``not``, ``=>``,
  ``forall``/``exists``, and ``<>`` (the empty sequence).

Unicode spellings from the paper are accepted as aliases: ``→``, ``‖``,
``≜``, ``≤``, ``⟨⟩``, ``∪``, ``∀``, ``∃``, ``∧``, ``∨``, ``¬``, ``⇒``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.errors import ParseError


class Token(NamedTuple):
    kind: str  # 'ident', 'int', 'string', 'symbol', 'eof'
    text: str
    position: int


# Longest-first so '->' wins over '-', '||' over '|', etc.
_SYMBOLS = [
    "<>",
    "->",
    "||",
    "++",
    "<=",
    ">=",
    "=>",
    "!=",
    "..",
    "==",
    "|",
    "!",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "+",
    "-",
    "*",
    "=",
    "<",
    ">",
    "#",
    "^",
    "&",
    "@",
    ".",
]

# Paper (unicode) spelling → canonical ASCII token text.
_UNICODE_ALIASES = {
    "→": "->",
    "‖": "||",
    "≜": "=",
    "≤": "<=",
    "≥": ">=",
    "∪": "union",
    "∀": "forall",
    "∃": "exists",
    "∧": "&",
    "∨": "or",
    "¬": "not",
    "⇒": "=>",
    "⌢": "++",
    "≠": "!=",
}

_UNICODE_BRACKETS = {"⟨": "<", "⟩": ">"}


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on an illegal character."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "-" and text.startswith("--", i):
            # Line comment.
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        if c in _UNICODE_ALIASES:
            alias = _UNICODE_ALIASES[c]
            kind = "ident" if alias.isalpha() else "symbol"
            tokens.append(Token(kind, alias, i))
            i += 1
            continue
        if text.startswith("⟨⟩", i):
            tokens.append(Token("symbol", "<>", i))
            i += 2
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], i))
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", i, text)
            tokens.append(Token("string", text[i + 1 : j], i))
            i = j + 1
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token("symbol", symbol, i))
                i += len(symbol)
                break
        else:
            raise ParseError(f"illegal character {c!r}", i, text)
    tokens.append(Token("eof", "", n))
    return tokens


class TokenStream:
    """A cursor over a token list with one-token lookahead helpers."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.index += 1
        return token

    def at_symbol(self, *texts: str) -> bool:
        return self.current.kind == "symbol" and self.current.text in texts

    def at_ident(self, *texts: str) -> bool:
        if self.current.kind != "ident":
            return False
        return not texts or self.current.text in texts

    def accept_symbol(self, *texts: str) -> Optional[Token]:
        if self.at_symbol(*texts):
            return self.advance()
        return None

    def accept_ident(self, *texts: str) -> Optional[Token]:
        if self.at_ident(*texts):
            return self.advance()
        return None

    def expect_symbol(self, text: str) -> Token:
        if not self.at_symbol(text):
            self.fail(f"expected {text!r}, found {self.current.text!r}")
        return self.advance()

    def expect_ident(self, text: Optional[str] = None) -> Token:
        if self.current.kind != "ident" or (text is not None and self.current.text != text):
            wanted = "identifier" if text is None else repr(text)
            self.fail(f"expected {wanted}, found {self.current.text or 'end of input'!r}")
        return self.advance()

    def expect_eof(self) -> None:
        if self.current.kind != "eof":
            self.fail(f"unexpected trailing input {self.current.text!r}")

    def fail(self, message: str) -> "TokenStream":
        raise ParseError(message, self.current.position, self.text)
