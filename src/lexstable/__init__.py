"""lexstable: lexical category scoring, linear trait inference, and
sample-size stability profiling for online text corpora."""

__version__ = "0.1.0"

from .errors import (
    CorpusOrderError,
    DegenerateGroupsError,
    EmptySampleError,
    IneligibleAuthorError,
    LexiconError,
    LexstableError,
    ModelError,
    PlanError,
    StatsError,
)
from .ingest import (
    AuthorCorpus,
    Message,
    ParseResult,
    build_author_corpora,
    clean_text,
    iter_authors,
    parse_messages,
    read_corpus,
    write_corpus,
)
from .lexicon import (
    FeatureVector,
    Lexicon,
    load_lexicon,
    score_features,
    tokenize,
    write_lexicon,
)
from .stability import (
    StabilityCurve,
    SubsamplePlan,
    VariabilityPoint,
    full_sample,
    make_subsamples,
    minimum_sample_size,
    run_stability,
    run_stability_modes,
    trait_variability,
)
from .stats import (
    MediaComparisonRow,
    PopulationStats,
    cohens_d,
    compare_media,
    load_stats_json,
    mean_ci95,
    renormalize,
    save_stats_json,
    welch_p,
)
from .synth import (
    SyntheticSpec,
    author_rates,
    companion_lexicon,
    generate_author,
    generate_population,
)
from .traits import TraitModel, TraitScores, TraitSpec, infer_traits, load_trait_model

__all__ = [
    "__version__",
    "AuthorCorpus", "Message", "ParseResult",
    "build_author_corpora", "clean_text", "iter_authors", "parse_messages", "read_corpus", "write_corpus",
    "FeatureVector", "Lexicon", "load_lexicon", "score_features", "tokenize", "write_lexicon",
    "TraitModel", "TraitScores", "TraitSpec", "infer_traits", "load_trait_model",
    "MediaComparisonRow", "PopulationStats", "cohens_d", "compare_media",
    "load_stats_json", "mean_ci95", "renormalize", "save_stats_json", "welch_p",
    "StabilityCurve", "SubsamplePlan", "VariabilityPoint", "full_sample",
    "make_subsamples", "minimum_sample_size", "run_stability", "run_stability_modes",
    "trait_variability",
    "SyntheticSpec", "author_rates", "companion_lexicon", "generate_author",
    "generate_population",
    "LexstableError", "LexiconError", "ModelError", "CorpusOrderError", "EmptySampleError",
    "DegenerateGroupsError", "StatsError", "IneligibleAuthorError", "PlanError",
]
