"""T-PIPE runner: repeated-analysis latency, cold vs warm cache.

The pipeline's content-addressed cache exists for one workload: the
same executable analyzed again and again (``compare`` runs two
analyses, ``regress`` gates every CI run, ``repro-gprof --lint``
analyzes for the linter and then for the listing).  This benchmark
measures exactly that, on synthetic call graphs large enough that every
stage matters:

* ``cold`` — ``analyze()`` with no cache: the full staged pipeline;
* ``warm`` — ``analyze()`` against a cache already holding this
  input's intermediates: digests only, every group a hit;
* ``edit`` — ``analyze()`` with one changed knob (an extra deleted
  arc) against the warm cache: the symbolize/exclude and apportion
  groups hit, the graph-editing stages re-run — the partial-reuse
  middle ground.

Every variant must render **byte-identical** flat + call-graph listings
to the uncached run (exit 2 otherwise — the CI identity gate).  The
headline number is ``speedup_warm_vs_cold``; the acceptance floor for
the trajectory is 3x.
"""

from __future__ import annotations

import random

from repro.core import AnalysisOptions, analyze
from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData
from repro.core.arcs import RawArc
from repro.core.symbols import Symbol, SymbolTable
from repro.pipeline import AnalysisCache
from repro.report import format_flat_profile, format_graph_profile

from benchmarks.timing import header, ratio, rounds, spread, summary

#: Synthetic graph shapes.  Mostly-forward arcs with a sprinkle of
#: back-edges: realistic cycle counts without one giant SCC.
FULL = {"sizes": (500, 2000), "arcs_per_routine": 4, "nbuckets": 4096,
        "repeats": 9}
QUICK = {"sizes": (200,), "arcs_per_routine": 4, "nbuckets": 512,
         "repeats": 3}

_SPAN = 16  # address units per synthetic routine


def build_input(n_routines: int, arcs_per_routine: int, nbuckets: int,
                seed: int = 4321) -> tuple[SymbolTable, ProfileData]:
    """A deterministic synthetic profile over ``n_routines`` routines."""
    rng = random.Random(seed)
    symbols = SymbolTable(
        Symbol(i * _SPAN, f"fn{i:05d}", (i + 1) * _SPAN)
        for i in range(n_routines)
    )
    high = n_routines * _SPAN
    arcs = []
    for i in range(1, n_routines):
        for _ in range(arcs_per_routine):
            if rng.random() < 0.05:  # occasional back-edge -> small cycles
                callee = rng.randrange(i, n_routines)
            else:
                callee = rng.randrange(0, i)
            arcs.append(
                RawArc(i * _SPAN + 4, callee * _SPAN, rng.randrange(1, 50))
            )
    counts = [rng.randrange(8) for _ in range(nbuckets)]
    data = ProfileData(Histogram(0, high, counts, 60), arcs,
                       comment=f"t-pipe-{n_routines}")
    return symbols, data


def listings(profile) -> str:
    """Both listings, concatenated like the repro-gprof output."""
    return "\n".join(
        [format_graph_profile(profile), format_flat_profile(profile)]
    )


def run_pipeline(quick: bool) -> tuple[dict, bool]:
    cfg = QUICK if quick else FULL
    rows = []
    identical_everywhere = True
    for n in cfg["sizes"]:
        symbols, data = build_input(
            n, cfg["arcs_per_routine"], cfg["nbuckets"]
        )
        options = AnalysisOptions()
        # The edit scenario deletes one real arc so the graph-editing
        # stages must re-run while the earlier groups still hit.
        reference = analyze(data, symbols, options)
        victim = next(iter(reference.graph.arcs()))
        edited = AnalysisOptions(deleted_arcs=[(victim.caller, victim.callee)])
        edited_reference = analyze(data, symbols, edited)

        cache = AnalysisCache()
        analyze(data, symbols, options, cache=cache)  # prime

        def primed() -> AnalysisCache:
            # Each edit round gets a freshly-primed cache: the point is
            # the partial-reuse path (early groups hit, graph editing
            # re-runs), not a second warm hit on the edited keys.
            edit_cache = AnalysisCache()
            analyze(data, symbols, options, cache=edit_cache)
            return edit_cache

        seconds, profiles = rounds(
            {
                "cold": lambda _: analyze(data, symbols, options),
                "warm": lambda _: analyze(data, symbols, options, cache=cache),
                "edit": lambda edit_cache: analyze(
                    data, symbols, edited, cache=edit_cache
                ),
            },
            cfg["repeats"],
            setup=primed,
        )
        want = listings(reference)
        identical = (
            listings(profiles["cold"]) == want
            and listings(profiles["warm"]) == want
            and listings(profiles["edit"]) == listings(edited_reference)
        )
        identical_everywhere &= identical
        row = {
            "routines": n,
            "raw_arcs": len(data.arcs),
            **{
                f"{variant}_ms": summary(s * 1000 for s in seconds[variant])
                for variant in ("cold", "warm", "edit")
            },
            "speedup_warm_vs_cold": ratio(seconds, "cold", "warm"),
            "speedup_edit_vs_cold": ratio(seconds, "cold", "edit"),
            "byte_identical": identical,
        }
        rows.append(row)
        print(
            f"  {n:>5} routines: cold {row['cold_ms']['median']:>9.2f} ms"
            f"  warm {row['warm_ms']['median']:>8.3f} ms"
            f"  ({spread(row['speedup_warm_vs_cold'])})"
            f"  edit {row['edit_ms']['median']:>8.3f} ms"
            f"  ({spread(row['speedup_edit_vs_cold'])})"
            f"  identical={identical}"
        )
    return {
        **header("T-PIPE repeated-analysis latency", quick, cfg["repeats"]),
        "corpus": {
            "arcs_per_routine": cfg["arcs_per_routine"],
            "nbuckets": cfg["nbuckets"],
            "seed": 4321,
        },
        "rows": rows,
    }, identical_everywhere
