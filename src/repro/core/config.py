"""Configuration for training and clustering.

A setting exists only where the paper, or a deployment, needs more
than one value: the k-token prefix of initial grouping (§4.2), the
memory bound of the sampling guard, and the §5.4 ablation switches
(matching reads none; its query threshold is an argument). Everything
else is a constant next to the function that reads it: the
constant-position weight in ``distance``, the likely-variable bounds in
``saturation``, the saturation target and split caps in ``cluster``, and
the group seed in ``train`` (DESIGN.md §2, §4). Common-variable
replacement (§4.1.2) always runs.

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
w/o deduplication              ``ParserConfig.dedup=False``
=============================  =========================================
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ClusterConfig:
    """The §5.4 ablation switches of the clustering kernel (§4.3–§4.7);
    every flag is on in the paper's method."""

    #: weight positions by 1/(n_i - 1) in Eq. 2 (w_i = 1 when off).
    position_importance: bool = True
    #: count high-variability positions as resolved variables in Eq. 3.
    variable_credit: bool = True
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


@dataclass(frozen=True)
class ParserConfig:
    """Training configuration (preprocess + initial grouping + clustering)."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: first-k-token prefix for initial grouping (§4.2; paper default 0).
    prefix_k: int = 0
    #: deduplicate identical token sequences before clustering (§4.1.3).
    dedup: bool = True
    #: record each training log's tree node in ``train_assignment``, which
    #: ``match_sequential`` looks up before the template texts ("w/ naive
    #: match"); sequential path only (``train_model`` rejects it).
    naive_match: bool = False
    #: cap on unique logs per initial group fed to clustering (the
    #: paper's random-sampling OOM guard; generous default).
    max_unique_per_group: int = 50_000

    def ablate(self, **kw) -> "ParserConfig":
        """Return a copy with cluster- or parser-level fields replaced."""
        ckw = {k: v for k, v in kw.items() if hasattr(ClusterConfig, k)}
        pkw = {k: v for k, v in kw.items() if k not in ckw}
        cfg = replace(self, cluster=replace(self.cluster, **ckw)) if ckw else self
        return replace(cfg, **pkw) if pkw else cfg
