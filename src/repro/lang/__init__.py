"""Mini-Java frontend: lexer, parser, AST, interpreter, and analyses.

This package is the substrate replacing the paper's Polyglot-based Java
frontend.  Benchmark programs are written in this Java subset; the compiler
pipeline parses them, identifies translatable loop fragments, and runs the
program analyses the synthesizer needs.
"""

from . import ast_nodes as ast
from .interpreter import Counters, Environment, Interpreter, default_value, run_function
from .lexer import Lexer, tokenize
from .parser import Parser, parse_function, parse_program
from .pretty import count_loc, format_expr
from .tokens import Token, TokenType
from .types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    FLOAT,
    INT,
    JType,
    ListType,
    LONG,
    MapType,
    PrimitiveType,
    STRING,
    SetType,
    VOID,
    primitive,
)
from .values import Instance, make_date, parse_date, values_equal

__all__ = [
    "ast",
    "ArrayType",
    "BOOLEAN",
    "CHAR",
    "ClassType",
    "Counters",
    "DOUBLE",
    "Environment",
    "FLOAT",
    "INT",
    "Instance",
    "Interpreter",
    "JType",
    "Lexer",
    "ListType",
    "LONG",
    "MapType",
    "Parser",
    "PrimitiveType",
    "STRING",
    "SetType",
    "Token",
    "TokenType",
    "VOID",
    "count_loc",
    "default_value",
    "format_expr",
    "make_date",
    "parse_date",
    "parse_function",
    "parse_program",
    "primitive",
    "run_function",
    "tokenize",
    "values_equal",
]
