import importlib
import inspect

import pytest

import pseudosup

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
    assert sorted(public - set(module.__all__)) == []


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
