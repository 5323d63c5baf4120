"""Frozen compile corpus: digests of Rel source → assembly → image.

``tests/golden/compile_corpus.json`` holds, for every canned Rel
program (``REL_PROGRAMS`` at default size) and for one generated
program of :data:`GENERATED_ROUTINES` routines, at optimisation levels
0, 1 and 2:

* the blake2b digest of ``str(compile_to_asm(src, optimize_level=L))``,
  the assembly text;
* the blake2b digest of the assembled image — its ``(op, operand)``
  list, function table and ``entry_point`` — once plain and once with
  ``profile=True`` (monitoring prologues planted).

The lexer, parser, optimizer passes, code generator and assembler may
be rewritten for speed, but never so that one of these bytes moves;
``tests/test_compile_golden.py`` replays the corpus.

Regenerating is a conscious act::

    PYTHONPATH=src python -m tests.compile_golden --update

(only legitimate after a deliberate, reviewed change to code
generation or the assembler's layout.)
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.lang import compile_to_asm
from repro.lang.programs import REL_PROGRAMS
from repro.machine import assemble

CORPUS_PATH = Path(__file__).parent / "golden" / "compile_corpus.json"

LEVELS = (0, 1, 2)

#: Size and seed of the generated member of the corpus.
GENERATED_ROUTINES = 520
GENERATED_SEED = 12
GENERATED_NAME = f"generated{GENERATED_ROUTINES}"


def generated_source(
    n: int = GENERATED_ROUTINES, seed: int = GENERATED_SEED
) -> str:
    """A seeded Rel program of ``n`` routines plus ``main``.

    It exercises every construct the front end and the passes touch:
    globals and arrays, constant sub-expressions (folding), ``x + 0``
    style identities, ``if (1)``/``while (0)`` (dead-code pruning),
    one-line ``return expr`` routines (§6 inline candidates), unary
    operators, every comparison, ``&&``/``||``, and calls with zero to
    three arguments.  Routine ``k`` only calls routines with a larger
    index, so the call graph is a DAG.  The program is compiled, never
    run, so it need not terminate quickly.
    """
    rng = random.Random(f"compile-golden:{seed}")
    arity = [rng.choice((0, 1, 1, 2, 2, 3)) for _ in range(n)]
    inline = [rng.random() < 0.2 for _ in range(n)]
    out = ["var g0;", "var g1;", "array tab[16];", ""]

    def operand(params, depth):
        pick = rng.randrange(5)
        if pick == 0 or not params:
            return str(rng.randrange(0, 50))
        if pick == 1:
            return rng.choice(("g0", "g1"))
        if pick == 2 and depth < 2:
            return f"tab[{expr(params, depth + 1)} % 16]"
        return rng.choice(params)

    def expr(params, depth=0):
        if depth >= 3:
            return operand(params, depth)
        shape = rng.randrange(9)
        a, b = expr(params, depth + 1), expr(params, depth + 1)
        if shape == 0:
            return f"({a} + {rng.randrange(1, 9)} * {rng.randrange(1, 9)})"
        if shape == 1:
            return f"{a} + 0"
        if shape == 2:
            return f"1 * {a}"
        if shape == 3:
            return f"-{operand(params, depth)}"
        if shape == 4:
            cmp = rng.choice(("==", "!=", "<", "<=", ">", ">="))
            return f"({a} {cmp} {b})"
        if shape == 5:
            return f"({a} && {b}) || !{operand(params, depth)}"
        op = rng.choice(("+", "-", "*", "/", "%"))
        return f"({a} {op} {b})"

    def call(k, params):
        callee = rng.randrange(k + 1, n)
        args = ", ".join(expr(params, 2) for _ in range(arity[callee]))
        return f"f{callee}({args})"

    for k in range(n):
        params = [f"p{i}" for i in range(arity[k])]
        header = f"func f{k}({', '.join(params)}) {{"
        if inline[k]:
            out += [header, f"    return {expr(params, 1)};", "}", ""]
            continue
        body = [f"    v = {expr(params)};"]
        if k + 1 < n:
            body.append(f"    v = v + {call(k, params)};")
        body.append(f"    if ({expr(params, 1)}) {{ v = v - 1; }}"
                    f" else {{ g0 = g0 + v; }}")
        body.append("    if (1) { v = v * (2 + 3); }")
        body.append("    while (0) { v = v + 1; }")
        if rng.random() < 0.5:
            body += ["    i = 0;",
                     f"    while (i < {rng.randrange(1, 6)}) {{",
                     f"        tab[i % 16] = tab[i % 16] + {expr(params, 2)};",
                     "        i = i + 1;",
                     "    }"]
        if rng.random() < 0.3:
            body.append(f"    burn {rng.randrange(1, 40)};")
        if k + 1 < n and rng.random() < 0.3:
            body.append(f"    {call(k, params)};")
        body.append("    return v;")
        out += [header, *body, "}", ""]
    main = ["func main() {", "    g0 = 0;", "    g1 = 7;"]
    main += [f"    print f{k}({', '.join(['g1'] * arity[k])});"
             for k in range(0, n, max(1, n // 40))]
    main.append("}")
    return "\n".join(out + main) + "\n"


def corpus_sources() -> dict[str, str]:
    """Every program in the corpus, by name."""
    sources = {name: make() for name, make in sorted(REL_PROGRAMS.items())}
    sources[GENERATED_NAME] = generated_source()
    return sources


def digest(data: str) -> str:
    return hashlib.blake2b(data.encode("utf-8"), digest_size=16).hexdigest()


def image_digest(exe) -> str:
    """Digest of an image's text, function table and entry point."""
    return digest(json.dumps({
        "text": [[ins.op.value, ins.operand] for ins in exe.instructions],
        "functions": [[f.name, f.entry, f.end, f.profiled]
                      for f in exe.functions],
        "entry_point": exe.entry_point,
    }))


def compile_digests(source: str, level: int, name: str) -> dict[str, str]:
    """The corpus record of one program at one level."""
    asm = compile_to_asm(source, optimize_level=level)
    return {
        "asm": digest(str(asm)),
        "image": image_digest(assemble(asm, name=name)),
        "image_profiled": image_digest(assemble(asm, name=name, profile=True)),
    }


def compute_corpus() -> dict:
    return {
        "format": "repro-compile-corpus-1",
        "programs": {
            name: {f"O{level}": compile_digests(source, level, name)
                   for level in LEVELS}
            for name, source in corpus_sources().items()
        },
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    corpus = compute_corpus()
    if "--update" not in argv:
        frozen = json.loads(CORPUS_PATH.read_text())
        ok = frozen == corpus
        print("compile corpus matches" if ok else "compile corpus DIFFERS")
        return 0 if ok else 1
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
