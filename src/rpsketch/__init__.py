"""Bit-packed random-projection sketches and cosine similarity estimators."""

from .errors import (ConfigError, ContractError, DegenerateInputError,
                     DomainError, RpsketchError, ShapeError, SketchFormatError,
                     SparseTextError)
from .vectors import Corpus, DataVector, cosine, load_sparse_text, normalize, save_sparse_text
from .projection import (FullSketch, FullStore, ProjectionConfig, SignSketch, SignStore,
                         gaussian_entry, load_sketches, matching_bits,
                         project, project_corpus, quantize_store,
                         save_sketches, sign_array, sign_quantize)
from .estimators import (BatchEstimate, EstimateReport, Estimator,
                         estimate_batch, estimate_pair, estimate_sign_sign)
from .mle import (MleBatch, MleResult, SolverConfig, inv_mills, mle_full,
                  mle_sign_full, norm_cdf, norm_pdf, score)
from .variance import (FisherConfig, VarianceFactor,
                       half_gaussian_cdf_integrals, mle_variance_factor,
                       sign_sign_variance_asymptote, v_factor,
                       variance_ratio_constants)
from .simulate import (Histogram, MseReport, RatioPoint, SimConfig,
                       run_histogram, run_mse, run_mse_ratio, sample_pair)
from .bench import (BenchConfig, PrPoint, benchmark_grid, ground_truth,
                    interpolated_precision, make_clustered_corpus, pr_curve,
                    rank_queries, run_benchmark)

__version__ = "0.1.0"
