"""Apply each mutant of a standing table alone and report whether tier-1
rejects it.

Run: `python3 tools/mutants.py [NAME ...]`. A mutant replaces one exact text
of one source file with another and names the rule the change breaks. Each
mutant (with NAMEs, only those) is applied alone to a copy of the repository
beside `tools/` in a temporary directory, and tier-1 runs there with `-x`
(`python -m pytest -q -x` with `PYTHONPATH` set to the copy's `src/` and
`OPENBLAS_NUM_THREADS=1`). Each mutant prints one line: its name, `killed
by` the first failing test or `survived`, and the rule. A full tier-1 run
takes 15-20 s on 2 vCPUs, so the whole table takes minutes; tier-1 itself
only checks that every entry's old text occurs exactly once in the source.

The exit status is 0 if every mutant run is killed, 1 if any survives, and 2
if a NAME is not in the table or an entry's old text does not occur exactly
once in its file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_*")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    rule: str


MUTANTS = [
    # rules that tier-1 let a one-line mutant break
    Mutant("threshold_exclusive", "src/pseudosup/engine.py",
           "probs.max(axis=1) >= confidence_threshold",
           "probs.max(axis=1) > confidence_threshold",
           "self-training selects a row whose max probability reaches the threshold"),
    Mutant("accuracy_of_unknown", "src/pseudosup/engine.py",
           "known = selected[unlabeled.hidden[selected] >= 0]",
           "known = selected",
           "pseudo-label accuracy is scored only against known hidden labels"),
    Mutant("compare_repeats", "src/pseudosup/cli.py",
           "if len(methods) < 2 or len(set(methods)) != len(methods):",
           "if len(methods) < 2:",
           "compare requires at least 2 distinct methods"),
    # train's scoring of the validation losses
    Mutant("no_error_path_score", "src/pseudosup/engine.py",
           '        close()\n        raise _diverged(cfg, f"step {step}", exc) from exc',
           '        raise _diverged(cfg, f"step {step}", exc) from exc',
           "a failure is named at its own step, after the pending losses are scored"),
    Mutant("last_forward_off_by_one", "src/pseudosup/engine.py",
           "val.X[vidx[-1]]",
           "val.X[vidx[-2]]",
           "the last after-loss is the loss on v_T"),
    Mutant("failure_one_step_late", "src/pseudosup/engine.py",
           '_diverged(cfg, f"step {t}", exc)',
           '_diverged(cfg, f"step {t + 1}", exc)',
           "a reward or policy failure is named at the step it closes"),
    # one number rule for every text: dataset files, checkpoints, INI values, flags
    Mutant("ini_int_builtin", "src/pseudosup/engine.py",
           '_parse("int", _str_int, "an integer")',
           "int",
           "an INI or flag integer is written as `str` writes one"),
    Mutant("float_underscore", "src/pseudosup/data.py",
           'token.isascii() and "_" not in token',
           "token.isascii()",
           "a decimal holds no `_`"),
    Mutant("float_non_ascii", "src/pseudosup/data.py",
           'token.isascii() and "_" not in token',
           '"_" not in token',
           "a decimal is ASCII"),
    Mutant("schema_flag_builtin", "src/pseudosup/cli.py",
           '"type": _TYPE_RULES[f.scalar][3]',
           '"type": f.scalar',
           "a schema flag reads its token as the INI key does"),
    Mutant("command_flag_builtin", "src/pseudosup/cli.py",
           '("--bins", {"type": _INT,',
           '("--bins", {"type": int,',
           "a command flag's integer follows the number rule"),
]


def first_failure(output: str) -> str:
    """The test id of pytest's first FAILED or ERROR summary line, or the last
    line of the output if there is none."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].partition(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def run(mutant: Mutant) -> str:
    """Tier-1's verdict on `mutant`, applied alone to a copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        path = copy / mutant.path
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "OPENBLAS_NUM_THREADS": "1"})
    if proc.returncode == 0:
        return "survived"
    return f"killed by {first_failure(proc.stdout + proc.stderr)}"


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    table = {m.name: m for m in MUTANTS}
    if unknown := [n for n in names if n not in table]:
        print(f"not in the table: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [table[n] for n in names] or MUTANTS
    if stale := [m.name for m in chosen
                 if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]:
        print(f"old text does not occur exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        verdict = run(mutant)
        survived += verdict == "survived"
        print(f"{mutant.name}: {verdict} ({mutant.rule})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
