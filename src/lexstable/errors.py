"""Exception types shared across the package."""


class LexstableError(Exception):
    """Base class for all errors raised by this package."""


class LexiconError(LexstableError):
    """Category dictionary file is malformed or inconsistent."""


class ModelError(LexstableError):
    """Trait model file is malformed, or references categories the
    lexicon in use does not declare."""


class CorpusOrderError(LexstableError):
    """A canonical corpus's lines are not grouped by ascending
    author_id, so it cannot be read one author at a time."""


class EmptySampleError(LexstableError):
    """A text sample contained zero tokens; callers must filter these
    out rather than propagate NaN frequencies."""


class DegenerateGroupsError(LexstableError):
    """Both comparison groups have zero variance, so effect size and
    test statistics are undefined."""


class StatsError(LexstableError):
    """Population statistics misuse: unknown trait name, too few
    values, or a zero source standard deviation."""


class IneligibleAuthorError(LexstableError):
    """Author corpus does not meet the subsample plan's base size."""


class PlanError(LexstableError):
    """Invalid subsample plan or synthetic corpus specification."""
