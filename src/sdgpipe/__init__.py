"""Unsupervised structure discovery in multi-year country indicator panels.

The package standardizes a 17-goal country-by-year score panel, reduces it
with PCA, embeds it with exact t-SNE, density-clusters the map, and tracks
each cluster's distance to the all-goals-met ideal over time, including a
quadratic extrapolation of when that distance would reach zero.
"""

from sdgpipe.dbscan import ClusterLabels, ClusterSwitch, adjusted_rand_index, cluster
from sdgpipe.dynamics import (
    GaussianFit,
    TrajectoryFit,
    attainment_year,
    distance_to_ideal,
    fit_trajectory,
)
from sdgpipe.panel import ScorePanel, StandardizedPanel, filter_complete, load_panel, standardize
from sdgpipe.pca import PcaModel
from sdgpipe.pipeline import PipelineConfig, run_pipeline, run_stage
from sdgpipe.tsne import AffinityMatrix, Embedding

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "ClusterLabels",
    "ClusterSwitch",
    "Embedding",
    "GaussianFit",
    "PcaModel",
    "PipelineConfig",
    "ScorePanel",
    "StandardizedPanel",
    "TrajectoryFit",
    "adjusted_rand_index",
    "attainment_year",
    "cluster",
    "distance_to_ideal",
    "filter_complete",
    "fit_trajectory",
    "load_panel",
    "run_pipeline",
    "run_stage",
    "standardize",
    "__version__",
]
