"""Structured clustering with multivariate edge features.

Pipeline: estimate intra/inter-cluster edge densities from labeled pairs,
reduce maximum-likelihood partitioning to weighted correlation clustering on
the signed log-odds graph, and solve it with LP rounding.
"""
from .core import (Partition, SampleSet, ScoreReport, co_membership, nmi,
                   score, validate_partition)
from .edge_features import (EdgeFeatureSet, LabeledPairSet, PcaModel,
                            edge_vectors, pca_fit, pca_transform,
                            sample_labeled_pairs)
from .density import (DensityModel, SignedWeightedGraph, build_signed_graph,
                      kde_fit)
from .corrclust import (FractionalMetric, SolveCertificate, brute_force_optimum,
                        c1_constant, certify, disagreement_cost, kwik_cluster,
                        lp_relax, round_regions, solve)
from .analysis import (ExpectedDisReport, LikelihoodReport, empirical_dis,
                       expected_dis, log_likelihood)
from .baselines import SpectralConfig, kmeans, spectral
from .datagen import (EdgeLevelSpec, SyntheticSpec, gen_edge_level,
                      gen_synthetic, load_csv)
from .densities import (GaussianDensity, MixtureDensity, UniformBoxDensity,
                        parse_density)
from .pipeline import ResultsReport, RunConfig, run_pipeline
from .plotting import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
