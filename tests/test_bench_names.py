"""The functions the benchmark traces still exist.

`bench/spans.py` wraps each name of `traced_names()`, and `BENCHMARK.json`
reports per-layer metrics named `<module>.<function>[.<attr>].<stat>`. The
tracer reports a name it cannot find as absent instead of failing, so a
function deleted or renamed in `src/` leaves its metrics reading nothing;
this test makes that a tier-1 failure.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_STAT = re.compile(r"(\w+(?:\.\w+){1,2})\.(?:calls|self_s|p50_us|tail_us|tail_pct)")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _spans().traced_names()
PER_LAYER = sorted({m[1] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                    if (m := _STAT.fullmatch(entry["name"]))})

# Gone from data.py; the benchmark's repair (ROADMAP item 1) traces
# data.splits_digest in its place.
_GONE = {"data.serialize_splits": "traced name awaits the benchmark repair, ROADMAP item 1"}


def _resolve(name: str):
    """The object `pseudosup.<module>` binds at the rest of the dotted `name`,
    or None."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"pseudosup.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=_GONE[name]))
    if name in _GONE else name
    for name in sorted(set(TRACED) | set(PER_LAYER))
])
def test_name_is_a_live_function(name):
    assert callable(_resolve(name)), f"{name} is not a function of pseudosup.{name.split('.')[0]}"


def test_per_layer_names_are_the_traced_names():
    assert PER_LAYER == sorted(TRACED)
