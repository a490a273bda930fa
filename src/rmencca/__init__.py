"""Multi-view CCA with robust matrix-elastic-net regularization.

A momentum solver run full-batch or on minibatches (hp.batch_size picks),
a kernelized variant, the closed-form classical baseline,
planted-correlation synthetic data, evaluation metrics, and a batch CLI.
The package namespace holds the public API only; the solver, regularizer
and Gram internals live in their modules and are not API.
"""
from .baselines import CCASolution, appgrad_config, cca_closed_form, men_cca_mode
from .core import (
    CanonicalPair,
    FitReport,
    Hyperparams,
    Penalty,
    Termination,
    TwoViewDataset,
    ViewMatrix,
    center,
    center_with_means,
)
from .data_io import (
    MODEL_MAGIC,
    MODEL_VERSION,
    ModelFile,
    SyntheticSpec,
    load_dsv,
    load_mnist_halves,
    load_model,
    save_dsv,
    save_model,
    split_train_validation,
    synth_two_view,
)
from .errors import RmenccaError
from .kernel import (
    GramMatrix,
    KernelKind,
    KernelModel,
    KernelSpec,
    fit_kernel,
    project_kernel,
)
from .metrics import PccReport, constraint_residual, pcc, principal_angles
from .solver import fit_full, fit_stochastic, project

__version__ = "0.1.0"

__all__ = [
    "CCASolution",
    "CanonicalPair",
    "FitReport",
    "GramMatrix",
    "Hyperparams",
    "KernelKind",
    "KernelModel",
    "KernelSpec",
    "MODEL_MAGIC",
    "MODEL_VERSION",
    "ModelFile",
    "PccReport",
    "Penalty",
    "RmenccaError",
    "SyntheticSpec",
    "Termination",
    "TwoViewDataset",
    "ViewMatrix",
    "appgrad_config",
    "cca_closed_form",
    "center",
    "center_with_means",
    "constraint_residual",
    "fit_full",
    "fit_kernel",
    "fit_stochastic",
    "load_dsv",
    "load_mnist_halves",
    "load_model",
    "men_cca_mode",
    "pcc",
    "principal_angles",
    "project",
    "project_kernel",
    "save_dsv",
    "save_model",
    "split_train_validation",
    "synth_two_view",
]
