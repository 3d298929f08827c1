"""Kernel projections that keep output-relevant structure while suppressing
domain-specific variation, with a landmark-based fast path.
"""
from .datagen import DataSet, SynthConfig, load_csv, sample_wishart, save_csv, split_domains, synth_generate
from .dcm import (
    KernelFactor,
    ProjectionModel,
    build_operator_pair,
    fit_coir,
    fit_dcm,
    fit_kpca,
    kernel_factor,
    load_model,
    save_model,
    transform,
)
from .errors import (
    CovminError,
    InvalidInput,
    RankDeficient,
    RankDeficientWarning,
    SchemaError,
    SingularMatrix,
    UndefinedMetric,
)
from .evaluate import (
    ExperimentConfig,
    EvalReport,
    krr_fit,
    metric_accuracy,
    metric_auc,
    metric_gmean,
    metric_rmse,
    predict_labels,
    run_experiment,
)
from .fastpath import (
    NystromSketch,
    build_sketch,
    compute_omega,
    fit_fastcoir,
    fit_fastdcm,
    sample_landmarks,
)
from .kernels import KernelSpec, center_gram, cross_gram, gram, median_gamma
from .linalg import EigPairs, gen_eig, ridge_inverse, sym_eig

__version__ = "0.1.0"

__all__ = [
    "CovminError", "InvalidInput", "SingularMatrix",
    "RankDeficient", "RankDeficientWarning", "UndefinedMetric", "SchemaError",
    "KernelSpec", "gram", "cross_gram", "center_gram", "median_gamma",
    "EigPairs", "sym_eig", "gen_eig", "ridge_inverse",
    "DataSet", "SynthConfig", "synth_generate", "sample_wishart",
    "load_csv", "save_csv", "split_domains",
    "ProjectionModel", "KernelFactor", "kernel_factor", "build_operator_pair",
    "fit_dcm", "fit_coir", "fit_kpca",
    "transform", "save_model", "load_model",
    "NystromSketch", "sample_landmarks", "build_sketch", "compute_omega",
    "fit_fastdcm", "fit_fastcoir",
    "ExperimentConfig", "EvalReport", "run_experiment", "krr_fit",
    "predict_labels", "metric_accuracy", "metric_rmse", "metric_gmean", "metric_auc",
    "__version__",
]
