"""Predict binary solution values of mixed integer programs and use the
predictions to speed up primal solution finding inside branch and bound.

The package covers the full pipeline: instance generation, labeling by
iterated proximity search, tripartite-graph feature extraction, a graph
convolutional network trained with hand-written reverse-mode gradients,
and application of predictions as bounds on one Hamming-distance
variable inside the same search tree: a ball around the prediction
(approximate) or a root split on that distance (exact).
"""

__version__ = "0.1.0"

from .core import (
    BINARY,
    CONTINUOUS,
    FEAS_TOL,
    INT_TOL,
    INTEGER,
    InstanceFormatError,
    MipInstance,
    Solution,
    canonicalize,
    evaluate_solution,
    read_instance,
    validate_instance,
    write_instance,
)

__all__ = [
    "BINARY",
    "CONTINUOUS",
    "INTEGER",
    "FEAS_TOL",
    "INT_TOL",
    "MipInstance",
    "Solution",
    "InstanceFormatError",
    "validate_instance",
    "canonicalize",
    "evaluate_solution",
    "read_instance",
    "write_instance",
    "__version__",
]
