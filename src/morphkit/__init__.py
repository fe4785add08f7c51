"""Toolkit for inserting compact, function-preserving hidden layers into
trained multilayer perceptrons.

The attribute `morphkit.morph` is the `morph` function, not the module
that defines it: the re-export below replaces the package's submodule
attribute, so `import morphkit.morph as m` binds the function as well.
Reach the module with `importlib.import_module("morphkit.morph")`.
"""

from .errors import (
    EmptyLayerError,
    IdxFormatError,
    ModelFormatError,
    MorphkitError,
    NotFiniteError,
    OutOfRangeError,
    ShapeError,
    SingularMatrixError,
    StandardizationError,
    TrainingDivergedError,
)
from .io import (
    Dataset,
    load_model,
    read_idx,
    save_model,
    synth_dataset,
    synth_lowrank_dataset,
    write_report_csv,
)
from .linalg import (
    least_squares,
    least_squares_with_fallback,
    ridge_fallback,
)
from .morph import (
    MorphReport,
    MorphSpec,
    PreparedProbe,
    morph,
    prepare_probe,
    preservation_error,
    sample_rows,
)
from .network import (
    Layer,
    Mlp,
    TapOutputs,
    TrainConfig,
    apply_activation,
    evaluate,
    forward,
    init_weights,
    loss_and_gradients,
    train_above,
    train_sgd,
)
from .sparse import (
    SparseConfig,
    SparseSolution,
    iilasso_diag,
    iilasso_residual,
    refit_w1,
    similarity_matrix,
)

__version__ = "0.3.0"
