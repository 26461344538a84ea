"""Shared exception types, and the Cursor every text parser reads with.

Errors specific to a single module live next to their code; the ones here
are raised from more than one place.  Every parser reads the text as typed,
so a ParseError's offset counts from its first character.
"""

import re

_SPACE = re.compile(r"\s*")
_DIGITS = re.compile(r"\d+")
_WORD = re.compile(r"([^\s()]*)\s*")


class ParseError(ValueError):
    """Malformed textual input (cycle strings, matrix literals, group specs).

    Carries the offset of the failure in the text as typed and the set of
    tokens accepted there, so callers can point at the exact position.
    """

    def __init__(self, message, pos=None, expected=()):
        super().__init__(message)
        self.pos = pos
        self.expected = frozenset(expected)

    def __str__(self):
        base = super().__str__()
        if self.pos is not None:
            base += f" (at offset {self.pos})"
        if self.expected:
            base += " (expected: " + ", ".join(sorted(self.expected)) + ")"
        return base


class Cursor:
    """A position in a text; only skip_space, take_word and finish step over whitespace."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def accept(self, token: str) -> bool:
        """Step over token if the text goes on with it."""
        if not self.text.startswith(token, self.pos):
            return False
        self.pos += len(token)
        return True

    def take(self, token: str, expected: str | None = None):
        if not self.accept(token):
            raise ParseError(f"expected {token!r}", pos=self.pos, expected={expected or token})

    def take_int(self, what: str) -> int:
        m = _DIGITS.match(self.text, self.pos)
        if not m:
            raise ParseError(f"expected {what}", pos=self.pos, expected={"integer"})
        self.pos = m.end()
        return int(m.group())

    def take_word(self) -> str:
        """Step over a word (up to whitespace or a parenthesis) and the space after; return it."""
        m = _WORD.match(self.text, self.pos)
        self.pos = m.end()
        return m.group(1)

    def skip_space(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

    def finish(self, message: str):
        """Skip trailing whitespace; any other text left is a ParseError."""
        self.skip_space()
        if self.pos != len(self.text):
            raise ParseError(message, pos=self.pos, expected={"end of input"})


class CapExceeded(RuntimeError):
    """A computation would exceed a configured size cap."""
