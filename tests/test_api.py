"""The package's public names, and the internal names the benchmark binds."""
import ast
import importlib
from pathlib import Path

import rmencca as r

PUBLIC = (
    "CCASolution", "CanonicalPair", "FitReport", "GramMatrix", "Hyperparams",
    "KernelKind", "KernelModel", "KernelSpec", "MODEL_MAGIC", "MODEL_VERSION",
    "ModelFile", "PccReport", "Penalty", "RmenccaError", "SyntheticSpec",
    "Termination", "TwoViewDataset", "ViewMatrix", "appgrad_config",
    "cca_closed_form", "center", "center_with_means", "constraint_residual",
    "fit_full", "fit_kernel", "fit_stochastic", "load_dsv", "load_mnist_halves",
    "load_model", "men_cca_mode", "pcc", "principal_angles", "project",
    "project_kernel", "save_dsv", "save_model", "split_train_validation",
    "synth_two_view",
)

# loop, regularizer and Gram internals: each lives in its module only
INTERNAL = (
    ("rmencca.kernel", ("cross_gram", "gram_gaussian", "gram_linear")),
    ("rmencca.core", ("validate_dataset",)),
    ("rmencca.solver", (
        "IterationContext", "build_context", "grad_u", "grad_v", "momentum_step",
        "normalize", "objective", "pair_moments", "second_moments",
    )),
    ("rmencca.regularizers", (
        "SInverseOperator", "build_s_inverse", "apply_s_inverse", "hq_diagonal",
        "l21_norm", "nuclear_norm",
    )),
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_package_exports_exactly_the_public_api():
    assert len(PUBLIC) == 38
    assert sorted(r.__all__) == sorted(PUBLIC)
    for name in r.__all__:
        assert hasattr(r, name), name


def test_internals_live_in_their_modules_only():
    for mod_name, names in INTERNAL:
        mod = importlib.import_module(mod_name)
        for name in names:
            assert not hasattr(r, name), name
            assert callable(getattr(mod, name)), f"{mod_name}.{name}"


def _benchmark_targets():
    """perfbench/spans.py's TARGETS, read from its source without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_name_the_benchmark_binds_resolves():
    targets = _benchmark_targets()
    assert targets
    missing = [
        f"{mod_name}.{name}"
        for mod_name, names in targets
        for name in names
        if not hasattr(importlib.import_module(mod_name), name)
    ]
    assert missing == []
