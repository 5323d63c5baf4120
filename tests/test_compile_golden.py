"""The compile corpus: front end, passes and assembler stay byte-identical.

``tests/golden/compile_corpus.json`` was frozen by
``python -m tests.compile_golden --update`` before the lexer, parser,
const-fold pass and assembler were rewritten for speed.  Every digest
must still reproduce, at every optimisation level, plain and profiled.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import pytest

from repro.lang import ast
from repro.lang.parser import parse
from repro.lang.pretty import pretty

from tests.compile_golden import (
    CORPUS_PATH,
    GENERATED_ROUTINES,
    LEVELS,
    compile_digests,
    corpus_sources,
)

FROZEN = json.loads(CORPUS_PATH.read_text())["programs"]
SOURCES = corpus_sources()


def test_corpus_covers_every_program():
    assert sorted(FROZEN) == sorted(SOURCES)
    assert any(
        src.count("func ") > GENERATED_ROUTINES for src in SOURCES.values()
    )


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_digests_reproduce(name, level):
    assert compile_digests(SOURCES[name], level, name) == FROZEN[name][
        f"O{level}"
    ]


def shape(node):
    """A node with every ``line`` field dropped, for comparing trees."""
    if isinstance(node, ast.Program):
        return ("Program", tuple(node.globals_), tuple(node.arrays.items()),
                tuple(shape(f) for f in node.functions))
    if is_dataclass(node):
        return (type(node).__name__,) + tuple(
            shape(getattr(node, f.name)) for f in fields(node)
            if f.name != "line"
        )
    if isinstance(node, tuple):
        return tuple(shape(x) for x in node)
    return node


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_pretty_round_trip(name):
    program = parse(SOURCES[name])
    assert shape(parse(pretty(program))) == shape(program)
