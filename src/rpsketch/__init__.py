"""Bit-packed random-projection sketches and cosine similarity estimators.

The public names below load their home module on first access (PEP 562),
so importing the package, or a module that needs no numpy, stays cheap.
"""

import importlib

_EXPORTS = {
    "errors": ("ConfigError", "ContractError", "DegenerateInputError", "DomainError",
               "RpsketchError", "ShapeError", "SketchFormatError", "SparseTextError"),
    "vectors": ("Corpus", "load_sparse_text", "save_sparse_text"),
    "projection": ("FullStore", "ProjectionConfig", "SignStore", "load_sketches",
                   "project_corpus", "save_sketches", "sign_array", "sign_quantize"),
    "names": ("Estimator",),
    "estimators": ("BatchEstimate", "estimate_batch"),
    "mle": ("MleBatch", "MleResult", "inv_mills"),
    "variance": ("FisherConfig", "VarianceFactor", "mle_variance_factor", "v_factor"),
    "simulate": ("Histogram", "MseReport", "RatioPoint", "SimConfig", "run_histogram",
                 "run_mse", "run_mse_ratio"),
    "bench": ("benchmark_grid", "interpolated_precision", "make_clustered_corpus",
              "pr_curve", "rank_queries"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached: a name resolves to whatever its home module holds now
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
