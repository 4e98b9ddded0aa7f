"""ByteBrain-LogParser core (the paper's primary contribution).

Pipeline (offline training, §3–§4): common-variable replacement →
tokenization (Listing-1 regex) → deduplication → initial grouping
(length + prefix) → per group, 64-bit hash encoding and hierarchical
clustering driven by positional-similarity distance (Eq. 2) and the
saturation score (Eq. 3) → a template tree. Online matching (§4.8) matches logs
against stored template texts in descending saturation order; query-time
thresholds walk ancestor chains to the coarsest template that satisfies
the requested precision.
"""

from repro.core.config import ClusterConfig, ParserConfig
from repro.core.model import ParserModel, TemplateNode
from repro.core.tokenizer import WILDCARD
from repro.core.train import train_model, train_model_sequential
from repro.core.match import match_df, match_sequential

__all__ = [
    "ClusterConfig",
    "ParserConfig",
    "ParserModel",
    "TemplateNode",
    "WILDCARD",
    "train_model",
    "train_model_sequential",
    "match_df",
    "match_sequential",
]
