"""Differential fuzzing: campaign, shrinker, failure corpus.

The execution paths of this library (event-driven reference, PC-set,
parallel variants, zero-delay LCC; Python and C backends; scalar /
batched / packed / sequential-replay / probed / fault execution) must
agree bit for bit.  This package keeps them
honest at scale: :func:`run_campaign` explores random circuits
against a sampled slice of the configuration lattice (with a
deterministic coverage preamble so every surface is drawn even in
small budgets), :func:`shrink` reduces every disagreement
to a minimal reproducer, :func:`distill_corpus` keeps the corpus
minimal as surfaces accrete, and the corpus turns past failures into
permanent regression tests (see ``tests/test_fuzz_corpus.py`` and the
``repro-sim fuzz`` subcommand family).
"""

from repro.fuzz.campaign import (
    CampaignFailure,
    CampaignResult,
    available_backends,
    run_campaign,
)
from repro.fuzz.corpus import (
    CorpusEntry,
    entry_from_failure,
    load_corpus,
    load_entry,
    replay_entry,
    save_entry,
)
from repro.fuzz.distill import DistillResult, distill_corpus
from repro.fuzz.lattice import (
    BACKENDS,
    CHECKS,
    CONFIG_SCHEMA,
    SURFACES,
    FuzzConfig,
    coverage_configs,
    run_check,
    sample_configs,
)
from repro.fuzz.mutation import (
    INJECTIONS,
    MUTATIONS,
    inject_emitter_bug,
)
from repro.fuzz.shrink import ShrinkResult, shrink

__all__ = [
    "BACKENDS",
    "CHECKS",
    "CONFIG_SCHEMA",
    "INJECTIONS",
    "MUTATIONS",
    "SURFACES",
    "CampaignFailure",
    "CampaignResult",
    "CorpusEntry",
    "DistillResult",
    "FuzzConfig",
    "ShrinkResult",
    "available_backends",
    "coverage_configs",
    "distill_corpus",
    "entry_from_failure",
    "inject_emitter_bug",
    "load_corpus",
    "load_entry",
    "replay_entry",
    "run_campaign",
    "run_check",
    "sample_configs",
    "save_entry",
    "shrink",
]
