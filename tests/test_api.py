"""The package's public surface: its exported names and the README's examples."""

import re
import types
from pathlib import Path

import bitspectral

README = Path(__file__).resolve().parent.parent / "README.md"

# every public name the package exports, modules aside; an addition or removal is an API change
PUBLIC_NAMES = {
    "CSV_HEADER", "ConfigError", "Dataset", "ExperimentRow", "FantopeSolution",
    "FlippedLogistic", "GroundTruth", "KIND_DIFFERENCE", "KIND_SUM", "LinkModel",
    "MomentSummary", "NumericalError", "OneBitCS", "OneBitPR", "RecoveryReport", "RunConfig",
    "SparseConfig", "TheoryDiagnostics", "default_config", "derive_rng", "draw_labels",
    "estimation_error", "expected_moment", "fantope_admm", "fantope_project",
    "generate_dataset", "link_eval", "moments", "orient_by_first_moment", "power_method",
    "rows_to_csv", "run_experiment", "sample_beta_dense", "sample_beta_sparse",
    "sample_moment", "second_moment", "second_moment_sum", "select_matrix_kind",
    "sign_normalize", "soft_threshold", "sparse_recover", "theory_diagnostics",
    "theta_median", "top_two_eigs", "truncate", "truncated_power_method", "write_csv",
}


def test_public_names_are_the_reviewed_set():
    public = {name for name in dir(bitspectral) if not name.startswith("_")
              and not isinstance(getattr(bitspectral, name), types.ModuleType)}
    assert public == PUBLIC_NAMES


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
    assert (tmp_path / "lowdim.csv").read_text().startswith(bitspectral.CSV_HEADER + "\n")
