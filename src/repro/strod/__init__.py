"""STROD: scalable and robust moment-based topic discovery (Chapter 7)."""

from .hierarchy import STRODHierarchyBuilder, STRODTreeConfig
from .moments import (MOMENT_SKETCH_SCHEMA, MomentSketch, compute_whitener,
                      first_moment, second_moment, sparse_pair_moment,
                      whitened_third_moment, word_count_rows)
from .sparse import compute_whitener_sparse
from .strod import STROD, STRODModel
from .tensor_power import (TensorEigenpair, power_iteration,
                           reconstruction_error,
                           robust_tensor_decomposition, tensor_apply,
                           tensor_value)

__all__ = [
    "STROD",
    "STRODModel",
    "STRODHierarchyBuilder",
    "STRODTreeConfig",
    "MOMENT_SKETCH_SCHEMA",
    "MomentSketch",
    "first_moment",
    "second_moment",
    "whitened_third_moment",
    "compute_whitener",
    "compute_whitener_sparse",
    "sparse_pair_moment",
    "word_count_rows",
    "robust_tensor_decomposition",
    "power_iteration",
    "tensor_apply",
    "tensor_value",
    "reconstruction_error",
    "TensorEigenpair",
]
