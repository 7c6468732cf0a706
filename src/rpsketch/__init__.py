"""Bit-packed random-projection sketches and cosine similarity estimators."""

from .errors import (ConfigError, ContractError, DegenerateInputError,
                     DomainError, RpsketchError, ShapeError, SketchFormatError,
                     SparseTextError)
from .vectors import Corpus, DataVector, load_sparse_text, save_sparse_text
from .projection import (FullStore, ProjectionConfig, SignStore, load_sketches,
                         project_corpus, save_sketches, sign_array, sign_quantize)
from .estimators import BatchEstimate, Estimator, estimate_batch
from .mle import MleBatch, MleResult, SolverConfig, inv_mills, norm_cdf, norm_pdf
from .variance import (FisherConfig, VarianceFactor,
                       half_gaussian_cdf_integrals, mle_variance_factor,
                       sign_sign_variance_asymptote, v_factor,
                       variance_ratio_constants)
from .simulate import (Histogram, MseReport, RatioPoint, SimConfig,
                       run_histogram, run_mse, run_mse_ratio)
from .bench import (benchmark_grid, interpolated_precision, make_clustered_corpus,
                    pr_curve, rank_queries)

__version__ = "0.1.0"
