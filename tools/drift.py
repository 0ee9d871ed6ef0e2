"""Compare two output directories file by file.

Run: `python3 tools/drift.py A B`. Each file under either directory is
reported by its path relative to the directory, on one line or more:

- `missing in A` or `missing in B`;
- `equal` when its bytes are equal;
- for a `.csv` file that differs, one line per differing column: the largest
  absolute and relative difference of its values and the first data row that
  differs (row 1 is the line after the header);
- for a `.ckpt` checkpoint that differs, one line with the same over its
  values and the first line that differs;
- `differs` for any other file, and for a CSV or checkpoint whose header,
  row count or layer dims differ.

The relative difference of a and b is |a - b| / max(|a|, |b|). A column in
which some differing value is not a finite number is reported with its first
differing row only. The exit status is 0 only if every file is in both
directories with equal bytes, 1 if not, and 2 if A or B is not a directory.
"""

import csv
import math
import sys
from pathlib import Path


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _drift(a: list[str], b: list[str]) -> tuple[int, float | None, float | None] | None:
    """Over the positions where the value texts `a` and `b` differ: the first
    such position and the largest absolute and relative difference, or None
    for both differences if a differing value is not a finite number. None if
    no position differs."""
    first, worst_abs, worst_rel = None, 0.0, 0.0
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        first = i if first is None else first
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return first, None, None
        diff = abs(fx - fy)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(fx), abs(fy)) if diff else 0.0)
    return None if first is None else (first, worst_abs, worst_rel)


def _describe(found: tuple, where: str) -> str:
    """`found` from `_drift`, its position counted as `where` names it."""
    first, worst_abs, worst_rel = found
    if worst_abs is None:
        return f"non-numeric values differ, first at {where} {first}"
    return f"max abs {worst_abs:.3g}, max rel {worst_rel:.3g}, first at {where} {first}"


def _csv_differences(a: str, b: str) -> list[str]:
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b) or any(
            len(row) != len(rows_a[0]) for row in rows_a + rows_b):
        return []
    out = []
    for j, column in enumerate(rows_a[0]):
        found = _drift([row[j] for row in rows_a[1:]], [row[j] for row in rows_b[1:]])
        if found:
            out.append(f"column {column}: " + _describe((found[0] + 1, *found[1:]), "row"))
    return out


def _checkpoint_differences(a: str, b: str) -> list[str]:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if lines_a[:1] != lines_b[:1] or len(lines_a) != len(lines_b):
        return []
    found = _drift(lines_a[1:], lines_b[1:])
    return [_describe((found[0] + 2, *found[1:]), "line")] if found else []


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """The report lines for directories `a` and `b`, and whether every file
    is in both with equal bytes."""
    names = sorted({path.relative_to(root).as_posix()
                    for root in (a, b) for path in root.rglob("*") if path.is_file()})
    lines, equal = [], True
    for name in names:
        path_a, path_b = a / name, b / name
        if not (path_a.is_file() and path_b.is_file()):
            lines.append(f"{name}: missing in {'B' if path_a.is_file() else 'A'}")
            equal = False
            continue
        bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
        if bytes_a == bytes_b:
            lines.append(f"{name}: equal")
            continue
        equal = False
        text_a, text_b = (data.decode("utf-8", "replace") for data in (bytes_a, bytes_b))
        reader = {".csv": _csv_differences, ".ckpt": _checkpoint_differences}.get(
            Path(name).suffix)
        found = reader(text_a, text_b) if reader else []
        lines.extend(f"{name}: {line}" for line in found or ["differs"])
    return lines, equal


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: python3 tools/drift.py A B  (two directories)", file=sys.stderr)
        return 2
    lines, equal = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
