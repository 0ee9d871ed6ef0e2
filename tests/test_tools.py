import importlib.util
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module
docstring."""

import os  # a trailing comment counts as code

# a comment line


def f(x):
    """Function docstring."""
    return (x +
            1)


class C:
    """Class docstring."""
    y = "a string that is not a docstring"

    async def g(self):
        """Method
        docstring."""
'''


def test_counts_neither_blanks_nor_comments_nor_docstrings():
    # import, def f, the two lines of its return, class C, y, async def g
    assert code_lines.code_lines(SOURCE) == 7


def test_code_lines_counts_each_directory_given(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "mod.py").write_text(SOURCE)
    (tmp_path / "a" / "a_long_module_name.py").write_text("x = 1\n")
    (tmp_path / "a" / "notes.txt").write_text("not python\n")
    (tmp_path / "a" / "sub").mkdir()
    (tmp_path / "a" / "sub" / "deeper.py").write_text("y = 2\n")  # not counted
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "one.py").write_text("z = 3\n")
    assert code_lines.main([str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a_long_module_name.py       1",  # a name of 15 or more widens the column
        "mod.py                      7",
        "total                       8",
    ]
    assert code_lines.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{tmp_path / 'a'}:" and out[4] == f"{tmp_path / 'b'}:"
    assert out[5:] == ["one.py               1", "total                1"]
    assert code_lines.main([str(tmp_path / "none")]) == 2
    assert capsys.readouterr().out == ""


def test_code_lines_counts_the_package_by_default(capsys):
    assert code_lines.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[0] == "__init__.py" and "cli.py" in [l.split()[0] for l in out]
    files = [int(line.split()[1].replace(",", "")) for line in out[:-1]]
    assert out[-1].split()[0] == "total" and int(out[-1].split()[1].replace(",", "")) == sum(files)


_spec = importlib.util.spec_from_file_location(
    "drift", Path(__file__).resolve().parent.parent / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_drift_reports_each_file(tmp_path, capsys):
    common = {"config.ini": "[engine]\nseed = 1\n", "pseudo_sup/1/metrics.csv": "auc\n0.5\n"}
    a = write_tree(tmp_path / "a", {
        **common, "only_a.txt": "x\n", "notes.txt": "one\n",
        "pseudo_sup/1/history.csv": "kind,step,loss,method\nstep,1,0.5,a\nstep,2,2.0,a\n"
                                    "step,3,4.0,a\n",
        "pseudo_sup/1/policy.ckpt": "mlp 2 1\n0.5\n-1\n3\n",
        "pseudo_sup/1/classifier.ckpt": "mlp 2 1\n0.5\n-1\n3\n",
        "summary.csv": "seed,auc\n1,0.5\n"})
    b = write_tree(tmp_path / "b", {
        **common, "only_b.txt": "y\n", "notes.txt": "two\n",
        "pseudo_sup/1/history.csv": "kind,step,loss,method\nstep,1,0.5,a\nstep,2,2.5,b\n"
                                    "step,3,3.0,a\n",
        "pseudo_sup/1/policy.ckpt": "mlp 2 1\n0.5\n-1.5\n3\n",
        "pseudo_sup/1/classifier.ckpt": "mlp 1 2\n0.5\n-1\n3\n",
        "summary.csv": "seed,auc\n1,0.5\n2,0.5\n"})
    assert drift.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "config.ini: equal",
        "notes.txt: differs",
        "only_a.txt: missing in B",
        "only_b.txt: missing in A",
        "pseudo_sup/1/classifier.ckpt: differs",  # other layer dims
        "pseudo_sup/1/history.csv: column loss: max abs 1, max rel 0.25, first at row 2",
        "pseudo_sup/1/history.csv: column method: non-numeric values differ, first at row 2",
        "pseudo_sup/1/metrics.csv: equal",
        "pseudo_sup/1/policy.ckpt: max abs 0.5, max rel 0.333, first at line 3",
        "summary.csv: differs",  # another row count
    ]


def test_drift_exits_0_only_on_equal_bytes(tmp_path, capsys):
    files = {"run/history.csv": "loss\n0.5\n", "run/classifier.ckpt": "mlp 1 1\n0\n0\n"}
    a, b = write_tree(tmp_path / "a", files), write_tree(tmp_path / "b", files)
    assert drift.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["run/classifier.ckpt: equal",
                                                    "run/history.csv: equal"]
    (b / "run" / "history.csv").write_text("loss\n0.50\n")  # the same value, other bytes
    assert drift.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "run/history.csv: column loss: max abs 0, max rel 0, first at row 1")
    assert drift.main([str(a), str(tmp_path / "none")]) == 2


_spec = importlib.util.spec_from_file_location(
    "cli_cost", Path(__file__).resolve().parent.parent / "tools" / "cli_cost.py")
cli_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_cost)

_RUN = (r"run (\d): exit (\d+), set-up (\S+) s, import (\S+) s, import collections (\S+), "
        r"run (\S+) s, shutdown (\S+) s, peak RSS (\S+) MB")


def test_cli_cost_reports_each_run_in_a_fresh_process(tmp_path, capsys):
    out = tmp_path / "d.txt"
    gen = ["gen-data", "--out", str(out), "--n-per-class", "5", "--dim", "2"]
    assert cli_cost.main(["--runs", "2", "--", *gen]) == 0
    runs = [re.fullmatch(_RUN, line).groups()
            for line in capsys.readouterr().out.splitlines()]
    assert [run[:2] for run in runs] == [("1", "0"), ("2", "0")]
    for _, _, setup_s, import_s, collections, run_s, exit_s, peak in runs:
        assert all(float(value) >= 0 for value in (setup_s, run_s, exit_s)) and float(peak) > 0
        assert 0 < float(import_s) <= float(setup_s)  # numpy is imported before it
        # the package imports with the collector paused (over a hundred
        # collections otherwise); only `cli`'s own imports may run one
        assert 0 <= int(collections) < 10
    assert out.read_text().startswith("gdp-synth v1\nn_features 2\n")
    # a run that fails still reports, and fails the tool
    assert cli_cost.main(["--runs", "1", "--", *gen[:3], "--n-per-class", "0"]) == 1
    assert re.fullmatch(_RUN, capsys.readouterr().out.strip()).group(2) == "2"


_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_one_exact_text_of_the_source(mutant):
    # a source edit that moves a mutated text must update its entry
    source = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1 and mutant.new != mutant.old
    assert [m.name for m in mutants.MUTANTS].count(mutant.name) == 1


def test_mutants_rejects_a_name_not_in_the_table(capsys):
    assert mutants.main(["no_such_mutant"]) == 2
    assert capsys.readouterr().err == "not in the table: no_such_mutant\n"
