"""Corpus distillation: keep the corpus minimal as surfaces accrete.

Every campaign failure lands in ``fuzz-corpus/`` as a permanent
regression test, so over time the corpus accumulates entries whose
lattice coverage is subsumed by smaller, later reproducers.  The
distiller re-minimizes: each entry is projected onto its coarse
lattice point (:meth:`FuzzConfig.lattice_key` — check, technique,
backend, width band, chunking, workers, probes),
then a greedy set cover keeps the smallest witness for every covered
point and drops the rest.

The invariant that makes this safe to run blindly is **losslessness**:
every lattice point covered before distillation is covered after —
an entry that is the sole witness for its point can never be dropped,
no matter how large.  Kept entries are replayed against the current
code before anything is deleted (``apply=True``), so a distill pass
can never leave the corpus smaller *and* broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro import telemetry
from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry
from repro.fuzz.shrink import _size

__all__ = ["DistillResult", "distill_corpus", "entry_size"]


def entry_size(entry: CorpusEntry) -> int:
    """The shrinker's scalar size metric, applied to a corpus entry.

    Using the same metric the delta-debugger minimizes means "smaller"
    has one definition everywhere: the greedy cover prefers exactly
    the entries the shrinker worked hardest on.
    """
    return _size(entry.circuit(), entry.vectors)


@dataclass
class DistillResult:
    """What one distillation pass decided (and, with apply, did)."""

    kept: list = field(default_factory=list)     # [(Path, CorpusEntry)]
    dropped: list = field(default_factory=list)  # [(Path, CorpusEntry)]
    points_before: set = field(default_factory=set)
    points_after: set = field(default_factory=set)
    replayed: int = 0
    applied: bool = False

    @property
    def lossless(self) -> bool:
        return self.points_after == self.points_before

    def summary(self) -> str:
        return (
            f"distill: kept {len(self.kept)}/"
            f"{len(self.kept) + len(self.dropped)} entries, "
            f"{len(self.points_after)}/{len(self.points_before)} "
            f"lattice points covered "
            f"({'lossless' if self.lossless else 'LOSSY'}), "
            f"replayed {self.replayed}"
            f"{', applied' if self.applied else ' (dry run)'}"
        )


def distill_corpus(
    corpus_dir: Union[str, Path],
    *,
    apply: bool = False,
    check: bool = True,
) -> DistillResult:
    """Greedily minimize ``corpus_dir`` preserving lattice coverage.

    Entries are visited smallest-first (:func:`entry_size`, entry id
    as the deterministic tiebreak); an entry is kept iff it covers a
    lattice point no smaller kept entry covers.  With ``check`` every
    kept entry is replayed against the current code first — a replay
    failure propagates (either a live regression or a stale entry;
    both demand attention before shrinking the corpus).  With
    ``apply`` the dropped files are deleted; default is a dry run.
    """
    entries = load_corpus(corpus_dir)
    result = DistillResult()
    for _path, entry in entries:
        result.points_before.add(entry.config.lattice_key())
    ranked = sorted(
        entries,
        key=lambda item: (entry_size(item[1]), item[1].entry_id),
    )
    covered: set[str] = set()
    for path, entry in ranked:
        point = entry.config.lattice_key()
        if point in covered:
            result.dropped.append((path, entry))
            continue
        if check:
            # Replay before committing to keep: the witness must still
            # be a valid, runnable reproducer under current code.
            replay_entry(entry)
            result.replayed += 1
        covered.add(point)
        result.kept.append((path, entry))
    result.points_after = covered
    telemetry.counter("fuzz.distill.kept", len(result.kept))
    telemetry.counter("fuzz.distill.dropped", len(result.dropped))
    if apply:
        if not result.lossless:
            # Defensive: the greedy cover cannot lose points by
            # construction, but never delete files on a broken pass.
            raise AssertionError(
                "distillation would lose lattice coverage; refusing "
                "to apply"
            )
        for path, _entry in result.dropped:
            path.unlink()
        result.applied = True
    # Restore deterministic (filename) order for reporting.
    result.kept.sort(key=lambda item: item[0].name)
    result.dropped.sort(key=lambda item: item[0].name)
    return result
