"""Token definitions for the mini-Java frontend.

The mini-language ("JLite") is the Java subset Casper's frontend supports
(SIGMOD'18 paper, section 6.1): basic types, arrays, common collection
interfaces, user-defined types, conditionals, all loop forms, and calls to
library methods.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenType(enum.Enum):
    """Kinds of lexical tokens."""

    # Literals
    INT_LIT = "INT_LIT"
    FLOAT_LIT = "FLOAT_LIT"
    STRING_LIT = "STRING_LIT"
    CHAR_LIT = "CHAR_LIT"

    # Identifiers and keywords
    IDENT = "IDENT"
    KEYWORD = "KEYWORD"

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    COLON = ":"
    QUESTION = "?"
    AT = "@"

    # Operators
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    OR_ASSIGN = "|="
    AND_ASSIGN = "&="
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND_AND = "&&"
    OR_OR = "||"
    NOT = "!"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    SHL = "<<"
    SHR = ">>"

    EOF = "EOF"


#: Reserved words of the mini-language.
KEYWORDS = frozenset(
    {
        "int",
        "long",
        "double",
        "float",
        "boolean",
        "char",
        "void",
        "String",
        "class",
        "new",
        "if",
        "else",
        "while",
        "do",
        "for",
        "return",
        "break",
        "continue",
        "true",
        "false",
        "null",
        "public",
        "private",
        "static",
        "final",
    }
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPERATORS = [
    ("<<=", None),  # unsupported, rejected by the lexer below
    (">>=", None),
    ("==", TokenType.EQ),
    ("!=", TokenType.NEQ),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("&&", TokenType.AND_AND),
    ("||", TokenType.OR_OR),
    ("+=", TokenType.PLUS_ASSIGN),
    ("-=", TokenType.MINUS_ASSIGN),
    ("*=", TokenType.STAR_ASSIGN),
    ("/=", TokenType.SLASH_ASSIGN),
    ("%=", TokenType.PERCENT_ASSIGN),
    ("|=", TokenType.OR_ASSIGN),
    ("&=", TokenType.AND_ASSIGN),
    ("++", TokenType.PLUS_PLUS),
    ("--", TokenType.MINUS_MINUS),
    ("<<", TokenType.SHL),
    (">>", TokenType.SHR),
]

SINGLE_CHAR_OPERATORS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ";": TokenType.SEMI,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    ":": TokenType.COLON,
    "?": TokenType.QUESTION,
    "@": TokenType.AT,
    "=": TokenType.ASSIGN,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "!": TokenType.NOT,
    "&": TokenType.AMP,
    "|": TokenType.PIPE,
    "^": TokenType.CARET,
    "~": TokenType.TILDE,
}


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    type: TokenType
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """Return True if this token is the given reserved word."""
        return self.type is TokenType.KEYWORD and self.text == word
