"""The Rel compiler driver: source text → assembly listing → executable.

``compile_source(text, profile=True)`` is the reproduction's
``cc -pg``: the profiling instrumentation is a compilation option, not
a source-level concern, exactly as §3 describes.  ``compile(text,
profile=fb)`` is the PGO spelling: hand the driver a measured profile
(a :class:`~repro.lang.feedback.ProfileFeedback`, an analyzed
:class:`~repro.core.Profile`, raw :class:`~repro.core.ProfileData`, or
a gmon file path) and the pass pipeline consumes it at any
optimization level.
"""

from __future__ import annotations

from repro.lang.codegen import generate
from repro.lang.optimize import optimize
from repro.lang.parser import parse
from repro.machine.assembler import Asm, assemble
from repro.machine.executable import Executable


def _coerce_feedback(profile, program, name: str):
    """Accept the PGO argument in any of its natural shapes."""
    if profile is None:
        return None
    from repro.lang.feedback import (
        ProfileFeedback,
        feedback_from_data,
        feedback_from_profile,
    )

    if isinstance(profile, ProfileFeedback):
        return profile
    from repro.core.analysis import Profile
    from repro.core.profiledata import ProfileData

    if isinstance(profile, Profile):
        return feedback_from_profile(profile, program)
    if isinstance(profile, ProfileData):
        return feedback_from_data(program, profile, name=name)
    if isinstance(profile, (str, bytes)) or hasattr(profile, "__fspath__"):
        from repro.gmon import read_gmon

        return feedback_from_data(program, read_gmon(profile), name=name)
    raise TypeError(
        f"cannot use {type(profile).__name__!r} as profile feedback"
    )


def compile_to_asm(
    source: str, optimize_level: int = 0, feedback=None, name: str = "a.out"
) -> Asm:
    """Compile Rel source to a VM assembly listing (inspectable).

    The :class:`~repro.machine.assembler.Asm` goes to
    :func:`~repro.machine.assembler.assemble` as is; ``str()`` of it is
    the assembly text, which assembles to the same image.

    ``optimize_level``: 0 = none; 1 = constant folding, branch pruning,
    dead-code removal; 2 = level 1 plus §6 inline expansion of trivial
    routines (which removes them from the program — and therefore from
    future profiles, the documented trade-off).

    ``feedback`` — see :func:`compile` — adds the profile-guided
    passes at any level.
    """
    program = parse(source)
    fb = _coerce_feedback(feedback, program, name)
    if optimize_level >= 1 or fb is not None:
        program = optimize(program, level=optimize_level, profile=fb)
    return generate(program)


def compile_source(
    source: str,
    name: str = "a.out",
    profile: bool = False,
    count_blocks: bool = False,
    optimize_level: int = 0,
    feedback=None,
) -> Executable:
    """Compile Rel source all the way to an executable image.

    Arguments:
        source: Rel program text.
        name: program name recorded in the image.
        profile: plant monitoring prologues (the ``-pg`` flag).
        count_blocks: plant inline basic-block counters instead of or
            in addition to profiling.
        optimize_level: see :func:`compile_to_asm`.
        feedback: optional measured profile for PGO (any shape
            :func:`compile` accepts).
    """
    return assemble(
        compile_to_asm(
            source, optimize_level=optimize_level, feedback=feedback,
            name=name,
        ),
        name=name,
        profile=profile,
        count_blocks=count_blocks,
    )


def compile(  # noqa: A001 - deliberate: the driver's natural name
    source: str,
    *,
    name: str = "a.out",
    level: int = 0,
    profile=None,
    instrument: bool = False,
    count_blocks: bool = False,
) -> Executable:
    """The PGO-aware front door: ``compile(source, profile=...)``.

    Arguments:
        source: Rel program text.
        name: program name recorded in the image.
        level: static optimization level (0/1/2).
        profile: measured feedback enabling the profile-guided passes —
            a ``ProfileFeedback``, an analyzed ``Profile``, raw
            ``ProfileData``, or a gmon file path.  Stale or empty
            profiles degrade to a no-op with a warning, never a wrong
            program.
        instrument: plant monitoring prologues in the *output* (so the
            optimized program can be re-measured — the loop's next
            iteration).
        count_blocks: plant inline basic-block counters.
    """
    return compile_source(
        source,
        name=name,
        profile=instrument,
        count_blocks=count_blocks,
        optimize_level=level,
        feedback=profile,
    )
