"""The compile corpus: front end, passes and assembler stay byte-identical.

``tests/golden/compile_corpus.json`` was frozen by
``python -m tests.compile_golden --update`` before the lexer, parser,
const-fold pass and assembler were rewritten for speed.  Every digest
must still reproduce, at every optimisation level, plain and profiled.
The compiler's :class:`~repro.machine.assembler.Asm` listing and its
text must assemble to one image, block counters included.
"""

from __future__ import annotations

import enum
import json
from dataclasses import fields, is_dataclass

import pytest

from repro.lang import ast, compile_source, compile_to_asm
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.machine import assemble, predecode
from repro.machine.assembler import parse_asm

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


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_listing_and_its_text_are_one_program(name, level):
    asm = compile_to_asm(SOURCES[name], optimize_level=level)
    text = str(asm)
    back = parse_asm(text)
    assert back == asm
    assert str(back) == text
    for options in ({}, {"profile": True}, {"count_blocks": True}):
        assert assemble(asm, name=name, **options) == assemble(
            text, name=name, **options
        )


def test_compile_and_predecode_never_hash_op_in_python(monkeypatch):
    """``Op`` hashes by identity: the inherited ``Enum.__hash__`` is a
    Python call, once per dict or set probe of an opcode."""
    calls = 0
    inherited = enum.Enum.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return inherited(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counting)
    for name, source in sorted(SOURCES.items()):
        predecode(compile_source(
            source, name=name, profile=True, optimize_level=2
        ))
    assert calls == 0


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
