"""Configuration for training, clustering and matching.

Every §5.4 ablation variant in the paper maps to one flag here:

=============================  =========================================
paper variant                  flag
=============================  =========================================
w/ naive match                 ``ParserConfig.naive_match``
w/o position importance        ``ClusterConfig.position_importance=False``
w/o variable in saturation     ``ClusterConfig.variable_credit=False``
w/o confidence factor          ``ClusterConfig.confidence_factor=False``
random centroid selection      ``ClusterConfig.kmeanspp=False``
w/o ensure saturation increase ``ClusterConfig.ensure_sat_increase=False``
w/o balanced group             ``ClusterConfig.balanced=False``
w/o early stopping             ``ClusterConfig.early_stop=False``
w/o deduplication & related    ``ParserConfig.dedup=False`` (also turns
                               off balanced grouping and early stopping)
=============================  =========================================
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the hierarchical clustering kernel (§4.3–§4.7)."""

    #: weight positions by 1/(n_i - 1) in Eq. 2 (w_i = 1 when off).
    position_importance: bool = True
    #: weight for fully-constant positions, whose paper weight 1/(n_i-1)
    #: is infinite (DESIGN.md §4 deviation).
    const_weight: float = 2.0
    #: count high-variability positions as resolved variables in Eq. 3.
    variable_credit: bool = True
    #: uniformity bound for the likely-variable test: a non-constant
    #: position with >=3 distinct tokens is a resolved variable when its
    #: most frequent token covers at most ``uniformity * n / n_u`` logs,
    #: i.e. the value distribution looks like an independent variable
    #: rather than a skewed template mixture (the paper's Set-2
    #: "structural correlation" argument, DESIGN.md §4).
    variable_uniformity: float = 3.0
    #: absolute cap on the top value's share for the likely-variable
    #: test (the relative bound is vacuous when n_u <= uniformity): a
    #: position dominated by one value is a skewed enum/mixture, not a
    #: free variable, and should keep driving splits (Table 4 pinning).
    variable_max_share: float = 0.5
    #: independence bound for the likely-variable test: two candidate
    #: positions must produce at least ``independence * min(n_unique,
    #: n_i * n_j)`` distinct value pairs, otherwise they are structurally
    #: correlated (a template mixture) and neither is credited.
    variable_independence: float = 0.6
    #: apply the paper's confidence factor p_c in Eq. 3.
    confidence_factor: bool = True
    #: K-Means++-style initial/new centroid selection (farthest log).
    kmeanspp: bool = True
    #: keep adding clusters until every child improves on the parent.
    ensure_sat_increase: bool = True
    #: break distance ties uniformly at random (§4.6).
    balanced: bool = True
    #: §4.7 early-stop shortcuts.
    early_stop: bool = True
    #: stop refining a node once its saturation reaches this value.
    sat_target: float = 1.0 - 1e-9
    #: max refinement iterations inside one single-clustering process.
    max_iters: int = 12
    #: hard cap on clusters created by one split (safety bound; the
    #: paper's bound is the number of token positions).
    max_clusters: int = 64
    #: RNG seed (combined with the group key for per-group streams).
    seed: int = 0


@dataclass(frozen=True)
class ParserConfig:
    """End-to-end parser configuration (preprocess + train + match)."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: first-k-token prefix for initial grouping (§4.2; paper default 0).
    prefix_k: int = 0
    #: deduplicate identical token sequences before clustering (§4.1.3).
    dedup: bool = True
    #: apply the built-in common-variable regexes (§4.1.2).
    replace_variables: bool = True
    #: assign training logs the template of the tree node they landed in
    #: instead of re-matching against template texts ("w/ naive match").
    naive_match: bool = False
    #: default query-time saturation threshold (§5.5.1 sweeps this; 0.8
    #: sits on the stable plateau of our sensitivity sweep).
    query_threshold: float = 0.8
    #: cap on unique logs per initial group fed to clustering (the
    #: paper's random-sampling OOM guard; generous default).
    max_unique_per_group: int = 50_000

    def ablate(self, **kw) -> "ParserConfig":
        """Return a copy with cluster- or parser-level fields replaced."""
        ckw = {k: v for k, v in kw.items() if hasattr(ClusterConfig, k)}
        pkw = {k: v for k, v in kw.items() if k not in ckw}
        cfg = replace(self, cluster=replace(self.cluster, **ckw)) if ckw else self
        return replace(cfg, **pkw) if pkw else cfg
