"""SalvageReport: the structured account of a salvaging parse.

The salvaging gmon reader (``read_gmon(path, mode="salvage")``) never
raises on corrupt input — it recovers the maximal structurally-valid
prefix.  Recovery alone would be dangerous: a profile silently missing
half its arcs looks exactly like a healthy light workload.  The
:class:`SalvageReport` is the other half of the contract: every byte
the reader dropped, every field it repaired, and every anomaly it
tolerated is recorded here, so downstream analysis and reports can say
*this data is degraded and here is how*.

The invariant the fuzz suite enforces: a salvaged profile is either
byte-identical to a strict parse (``report.clean``) or explicitly
flagged (``report.clean`` is False).  No crash, no silent lie.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SalvageReport:
    """What a salvaging parse recovered — and what it could not.

    Attributes:
        source: label of the parsed input (file path, usually).
        total_bytes: size of the input.
        consumed_bytes: how many leading bytes were structurally valid
            and contributed to the recovered :class:`ProfileData`.
        recovered_sections: sections parsed intact, in file order
            (``magic``, ``comment``, ``header``, ``buckets``, ``arcs``).
        dropped: structural losses — records or whole sections that
            were missing or truncated and are absent from the data.
        dropped_sections: the section that lost data in each drop, in
            step with ``dropped``.
        notes: anomalies repaired or tolerated without data loss
            (replaced comment bytes, trailing garbage, ``runs == 0``).
        buckets_expected: histogram size the header declared, when the
            header was readable.
        buckets_read: bucket counters actually recovered.
        arcs_expected: arc count the arc-table header declared, when
            readable.
        arcs_read: arc records actually recovered.
    """

    source: str = ""
    total_bytes: int = 0
    consumed_bytes: int = 0
    recovered_sections: list[str] = field(default_factory=list)
    dropped: list[str] = field(default_factory=list)
    dropped_sections: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    buckets_expected: int | None = None
    buckets_read: int = 0
    arcs_expected: int | None = None
    arcs_read: int = 0

    def add_section(self, name: str) -> None:
        """Record that section ``name`` was recovered intact."""
        self.recovered_sections.append(name)

    def add_drop(self, section: str, message: str) -> None:
        """Record a structural loss in ``section`` (data absent)."""
        self.dropped.append(message)
        self.dropped_sections.append(section)

    def add_note(self, message: str) -> None:
        """Record a repaired/tolerated anomaly (no data lost)."""
        self.notes.append(message)

    @property
    def clean(self) -> bool:
        """True when the salvage matched a strict parse exactly."""
        return not self.dropped and not self.notes

    @property
    def unsalvageable(self) -> bool:
        """True when nothing at all could be recovered (bad magic)."""
        return "magic" not in self.recovered_sections

    def warnings(self) -> list[str]:
        """The report as degradation warnings for analysis/reports."""
        prefix = f"{self.source}: " if self.source else ""
        return [f"{prefix}salvage: {m}" for m in self.dropped + self.notes]

    def summary(self) -> str:
        """One line: what survived, what did not."""
        if self.unsalvageable:
            return (
                f"unsalvageable ({self.total_bytes} bytes, "
                f"no valid prefix)"
            )
        if self.clean:
            return f"intact ({self.total_bytes} bytes)"
        return (
            f"recovered {self.consumed_bytes}/{self.total_bytes} bytes: "
            f"{self.buckets_read}"
            + (f"/{self.buckets_expected}" if self.buckets_expected is not None else "")
            + " buckets, "
            f"{self.arcs_read}"
            + (f"/{self.arcs_expected}" if self.arcs_expected is not None else "")
            + f" arcs; {len(self.dropped)} drop(s), {len(self.notes)} note(s)"
        )

    def render_text(self) -> str:
        """Multi-line listing: summary, then every drop and note."""
        lines = [f"salvage report: {self.source or '<bytes>'}",
                 f"  {self.summary()}"]
        for message in self.dropped:
            lines.append(f"  dropped: {message}")
        for message in self.notes:
            lines.append(f"  note: {message}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-serializable form (stable field set)."""
        return {
            "format": "repro-salvage-1",
            "source": self.source,
            "total_bytes": self.total_bytes,
            "consumed_bytes": self.consumed_bytes,
            "recovered_sections": list(self.recovered_sections),
            "dropped": list(self.dropped),
            "notes": list(self.notes),
            "buckets_expected": self.buckets_expected,
            "buckets_read": self.buckets_read,
            "arcs_expected": self.arcs_expected,
            "arcs_read": self.arcs_read,
            "clean": self.clean,
            "unsalvageable": self.unsalvageable,
        }
