"""Seeded, deterministic input generators for the four workloads.

Every input the benchmark feeds ``repro`` is made here from the
``--seed`` argument alone: the same seed gives byte-identical inputs
(their blake2b digests are recorded with each run's results).  The
generators use ``random.Random`` seeded with a string, which is stable
across processes and Python versions.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass

from benchmarks.e2e.oracles import Gmon

#: The canned programs and their sizes, chosen so that one profiled
#: pass over all six takes about half a second of VM time.
CANNED_SIZES: dict[str, dict] = {
    "fib": {"n": 20},
    "even_odd": {"n": 3000},
    "abstraction": {"iterations": 2000},
    "sieve": {"limit": 12000},
    "gcd_chain": {"rounds": 3000},
    "classify": {"rounds": 12000},
}

WIDE_ROUTINES = 1000
FLEET_ROUTINES = 300
FLEET_FILES = 1000
#: Buckets per address unit for the fleet/ingest monitor: one bucket
#: per 4-byte instruction.
FLEET_SCALE = 0.25
#: Instruction budgets of the four base runs.  The generated program
#: would run far longer, so every base run is cut short mid-flight, like
#: a sampled production process.
BASE_BUDGETS = (150_000, 200_000, 250_000, 300_000)
BACK_EDGE_RATE = 0.05


def digest(data: bytes | str) -> str:
    """The digest recorded for one input."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


# -- canned -------------------------------------------------------------------


def canned_sources() -> dict[str, str]:
    """The six canned Rel programs at benchmark size."""
    from repro.lang.programs import REL_PROGRAMS

    return {name: REL_PROGRAMS[name](**size)
            for name, size in CANNED_SIZES.items()}


def canned_orders(seed: int):
    """An endless seeded sequence of program orders, one per pass."""
    rng = _rng(seed, "canned")
    names = list(CANNED_SIZES)
    while True:
        rng.shuffle(names)
        yield list(names)


# -- generated programs -------------------------------------------------------


@dataclass(frozen=True)
class Routine:
    const: int
    loop: int
    burn: int
    callees: tuple[int, ...]


@dataclass(frozen=True)
class GenProgram:
    """A generated Rel program, as a model the oracle can evaluate.

    Routine ``k`` calls its callees with depth ``d - 1`` while ``d > 0``;
    ``main`` calls every routine with depth ``depth``, ``rounds`` times.
    Forward calls form a DAG; about 5% of calls go backwards, which
    makes cycles whose recursion the depth argument bounds.
    """

    routines: tuple[Routine, ...]
    depth: int
    rounds: int
    source: str


def _stratified(rng: random.Random, n: int, values, weights) -> list:
    """``n`` values in exact proportion to ``weights``, in seeded order."""
    total = sum(weights)
    out = [v for v, w in zip(values, weights) for _ in range(n * w // total)]
    out += [values[0]] * (n - len(out))
    rng.shuffle(out)
    return out


def generate_program(seed: int, tag: str, n: int, depth: int = 2,
                     rounds: int = 1) -> GenProgram:
    """A seeded program whose size mix is the same for every seed.

    Loop lengths, burn lengths, callee counts and the share of backward
    calls come in exact proportions; the seed only decides which routine
    gets which and who calls whom, so the work per run barely moves
    from seed to seed.
    """
    rng = _rng(seed, tag)
    loops = _stratified(rng, n, (0, 2, 4, 6, 8), (2, 1, 1, 1, 1))
    burns = _stratified(rng, n, (0, 10, 20, 40, 60), (1, 1, 1, 1, 1))
    fanout = _stratified(rng, n, (0, 1, 2, 3), (20, 35, 30, 15))
    slots = [k for k in range(n) for _ in range(fanout[k])]
    back = set(rng.sample([i for i, k in enumerate(slots) if 0 < k < n - 1],
                          round(BACK_EDGE_RATE * len(slots))))
    callees: list[list[int]] = [[] for _ in range(n)]
    for i, k in enumerate(slots):
        if k == n - 1 or i in back:
            callees[k].append(rng.randrange(k))
        else:
            callees[k].append(rng.randrange(k + 1, n))
    routines = tuple(
        Routine(rng.randrange(1, 1000), loops[k], burns[k], tuple(callees[k]))
        for k in range(n))
    return GenProgram(routines, depth, rounds,
                      render_source(routines, depth, rounds))


def render_source(routines, depth: int, rounds: int) -> str:
    out = []
    for k, r in enumerate(routines):
        body = [f"    v = d * {r.const} + {k};"]
        if r.loop:
            body += [
                "    i = 0;",
                f"    while (i < {r.loop}) {{",
                "        v = (v * 3 + i) % 65521;",
                "        i = i + 1;",
                "    }",
            ]
        if r.burn:
            body.append(f"    burn {r.burn};")
        if r.callees:
            body.append("    if (d > 0) {")
            body += [f"        v = v + r{j}(d - 1);" for j in r.callees]
            body.append("    }")
        body.append("    return v % 65521;")
        out.append(f"func r{k}(d) {{\n" + "\n".join(body) + "\n}\n")
    calls = [f"acc = (acc * 31 + r{k}({depth})) % 1000003;"
             for k in range(len(routines))]
    if rounds == 1:
        main = ["    acc = 0;"] + [f"    {c}" for c in calls]
    else:
        main = ["    acc = 0;", "    n = 0;", f"    while (n < {rounds}) {{"]
        main += [f"        {c}" for c in calls]
        main += ["        n = n + 1;", "    }"]
    main.append("    print acc;")
    out.append("func main() {\n" + "\n".join(main) + "\n}\n")
    return "\n".join(out)


def wide_program(seed: int) -> GenProgram:
    """The ``wide`` workload's 1000-routine program; main runs once."""
    return generate_program(seed, "wide", WIDE_ROUTINES)


def fleet_program(seed: int, tag: str) -> GenProgram:
    """The 300-routine program behind ``fleet`` and ``ingest``.

    Its main loops far longer than any base run's budget.
    """
    return generate_program(seed, tag, FLEET_ROUTINES, rounds=1000)


# -- perturbed profiles -------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """Base profile ``base`` plus bucket and arc-count increments."""

    base: int
    buckets: tuple[tuple[int, int], ...]
    arcs: tuple[tuple[int, int], ...]


def perturbations(seed: int, tag: str, bases: list[Gmon]):
    """An endless seeded stream of perturbations of ``bases``.

    Each one adds a few samples to buckets the base run already hit and
    a few traversals to arcs it already recorded, so every input is a
    plausible run of the same image.
    """
    rng = _rng(seed, tag + ":perturb")
    hot = [[i for i, c in enumerate(b.counts) if c] for b in bases]
    while True:
        b = rng.randrange(len(bases))
        buckets = tuple((rng.choice(hot[b]), rng.randint(1, 3))
                        for _ in range(8))
        arcs = tuple((rng.randrange(len(bases[b].arcs)), rng.randint(1, 5))
                     for _ in range(4)) if bases[b].arcs else ()
        yield Perturbation(b, buckets, arcs)


def apply(base_blob: bytes, base: Gmon, p: Perturbation) -> bytes:
    """The gmon bytes of base ``p.base`` with ``p``'s increments applied."""
    blob = bytearray(base_blob)
    for i, d in p.buckets:
        at = base.buckets_at + 4 * i
        struct.pack_into("<I", blob, at, struct.unpack_from("<I", blob, at)[0] + d)
    for i, d in p.arcs:
        at = base.arcs_at + 20 * i + 16
        struct.pack_into("<I", blob, at, struct.unpack_from("<I", blob, at)[0] + d)
    return bytes(blob)
