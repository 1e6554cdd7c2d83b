"""Lexer for the Mini-ML surface syntax.

The benchmark ADTs of the paper are OCaml modules; this reproduction rewrites
them in a small ML-like language whose token set is defined here: keywords,
identifiers (including module-qualified names such as ``Path.parent`` and
primed names such as ``bytes'``), integer and string literals, and the usual
punctuation / infix operators.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..record import FrozenRecord

KEYWORDS = {
    "let",
    "rec",
    "in",
    "if",
    "then",
    "else",
    "match",
    "with",
    "fun",
    "true",
    "false",
    "not",
    "and",
    "or",
    "begin",
    "end",
}

SYMBOLS = [
    "->",
    "==",
    "<>",
    "<=",
    ">=",
    "&&",
    "||",
    "(",
    ")",
    "|",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    ";",
    ":",
    ",",
]


class LexError(SyntaxError):
    """Raised on malformed input, with a line/column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class Token(FrozenRecord):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind  # "keyword" | "ident" | "int" | "string" | "symbol" | "eof"
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.text!r})"


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'."


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source``; comments are ``(* ... *)`` (nested) and ``-- line``."""
    tokens: list[Token] = []
    index = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count: int = 1) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        ch = source[index]
        if ch in " \t\r\n":
            advance()
            continue
        if source.startswith("(*", index):
            depth = 1
            start_line, start_col = line, column
            advance(2)
            while index < length and depth:
                if source.startswith("(*", index):
                    depth += 1
                    advance(2)
                elif source.startswith("*)", index):
                    depth -= 1
                    advance(2)
                else:
                    advance()
            if depth:
                raise LexError("unterminated comment", start_line, start_col)
            continue
        if source.startswith("--", index):
            while index < length and source[index] != "\n":
                advance()
            continue
        if ch == '"':
            start_line, start_col = line, column
            advance()
            chars: list[str] = []
            while index < length and source[index] != '"':
                chars.append(source[index])
                advance()
            if index >= length:
                raise LexError("unterminated string literal", start_line, start_col)
            advance()
            tokens.append(Token("string", "".join(chars), start_line, start_col))
            continue
        if ch.isdigit():
            start_line, start_col = line, column
            digits: list[str] = []
            while index < length and source[index].isdigit():
                digits.append(source[index])
                advance()
            tokens.append(Token("int", "".join(digits), start_line, start_col))
            continue
        if _is_ident_start(ch):
            start_line, start_col = line, column
            chars = []
            while index < length and _is_ident_char(source[index]):
                chars.append(source[index])
                advance()
            text = "".join(chars)
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        matched = False
        for symbol in SYMBOLS:
            if source.startswith(symbol, index):
                tokens.append(Token("symbol", symbol, line, column))
                advance(len(symbol))
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", line, column)

    tokens.append(Token("eof", "", line, column))
    return tokens


class TokenStream:
    """A cursor over the token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self._index += 1
        return token

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            wanted = text or kind
            raise LexError(f"expected {wanted!r}, found {token.text!r}", token.line, token.column)
        return self.next()

    @property
    def exhausted(self) -> bool:
        return self.peek().kind == "eof"
