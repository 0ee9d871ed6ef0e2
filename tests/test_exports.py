import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import pseudosup
from pseudosup.cli import build_parser

MODULES = ["data", "engine", "metrics", "nn_core"]

# what the package root exported when it listed its names by hand
EARLIER_ROOT_NAMES = """
    DatasetSplits LongitudinalSeries QcRecord Sample Split augment_weak concat_modalities
    derive_progression_labels generate_overlapping_gaussians load_dataset qc_filter
    save_dataset split_dataset
    EngineConfig Trajectory TrajectoryStep compute_reward discounted_return evaluate
    policy_update sample_pseudo_labels train train_self_training train_supervised_only
    MetricsReport accuracy auc_roc correlation_density f1_binary
    AdamW MlpModel NonFiniteError init_mlp load_model mlp_backward mlp_forward save_model
    softmax_cross_entropy
""".split()


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"pseudosup.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    public = {
        n for n, obj in vars(module).items()
        if not n.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(module.__all__) == sorted(public)


def test_root_all_is_the_modules_lists_in_order():
    expected = [n for name in MODULES for n in importlib.import_module(f"pseudosup.{name}").__all__]
    assert pseudosup.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", MODULES)
def test_root_names_are_the_modules_objects(name):
    module = importlib.import_module(f"pseudosup.{name}")
    assert [n for n in module.__all__ if getattr(pseudosup, n) is not getattr(module, n)] == []


def test_root_keeps_its_earlier_names():
    assert len(EARLIER_ROOT_NAMES) == len(set(EARLIER_ROOT_NAMES)) == 38
    assert [n for n in EARLIER_ROOT_NAMES if n not in pseudosup.__all__] == []


def test_readme_library_use_runs_as_its_comment_says(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library_use = readme[readme.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", library_use, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    shapes, auc = capsys.readouterr().out.splitlines()
    assert shapes == "(175, 20) [-1 -1 -1]"
    assert 0.5 < float(auc) <= 1.0


def test_readme_cli_examples_parse():
    """Every `pseudosup` line of the README's `sh` blocks parses, so a renamed
    flag cannot leave an example behind."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", "").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("pseudosup ")]
    assert len(commands) == 6
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")
