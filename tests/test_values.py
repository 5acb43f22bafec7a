"""Every value type of the library is an immutable named tuple.

Each one refuses a new value for a field and any new attribute, two equal
values built apart hash alike, and an expression node equals only a node
of its own type.  Importing the CLI loads neither ``dataclasses`` nor
``inspect``: with them, their import and the methods they generate took
most of the CLI's start-up time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from setcons.analysis import consensus_bounds, equilibria_sbm, is_contractive_sbm
from setcons.caps import Caps
from setcons.dsl import DslError, parse
from setcons.encoding import encode_system
from setcons.expr import Complement, Difference, EmptyLit, Intersect, SymDiff, Union, UniverseLit, Var
from setcons.intervals import Interval, IntervalSet, Universe
from setcons.sim import simulate

ROOT = Path(__file__).resolve().parent.parent
PINNED6 = (ROOT / "samples" / "pinned6.sbm").read_text(encoding="utf-8")


def build() -> dict:
    """One fresh value of every type, by name."""
    spec = parse(PINNED6)
    f = spec.set_map()
    enc = encode_system(f, spec.initials)
    verdict = is_contractive_sbm(f)
    with pytest.raises(DslError) as caught:
        parse("universe [0,1]\nstate A = [0,1]\n")
    return {
        "Interval": Interval((0, 0), (1, 0)),
        "IntervalSet": IntervalSet.of(Interval.closed(0, 1), Interval.closed(2, 3)),
        "Universe": Universe.of(Interval.closed(0, 10)),
        "Var": Var(0),
        "UniverseLit": UniverseLit(),
        "EmptyLit": EmptyLit(),
        "Union": Union(Var(0), Var(1)),
        "Intersect": Intersect(Var(0), Var(1)),
        "Complement": Complement(Var(0)),
        "Difference": Difference(Var(0), Var(1)),
        "SymDiff": SymDiff(Var(0), Var(1)),
        "SetMap": f,
        "BoolMatrix": f.incidence(),
        "Permutation": verdict.witness,
        "Caps": Caps(),
        "Diagnostic": caught.value.diagnostics[0],
        "SystemSpec": spec,
        "Partition": enc.partition,
        "EncodedSystem": enc,
        "ContractivityVerdict": verdict,
        "CellEquilibriaReport": equilibria_sbm(f, enc.partition),
        "ConsensusBounds": consensus_bounds(enc),
        "Trajectory": simulate(spec),
    }


NAMES = sorted(build())


@pytest.mark.parametrize("name", NAMES)
def test_value_is_immutable_and_hashes_by_value(name):
    value, twin = build()[name], build()[name]
    assert type(value).__name__ == name
    assert value == twin and value is not twin
    assert hash(value) == hash(twin)
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin


def test_interval_repr_names_its_keys():
    assert repr(Interval((0, 0), (1, 0))) == "Interval(lo_key=(0, 0), hi_key=(1, 0))"


@pytest.mark.parametrize("a, b", [
    (Union(Var(0), Var(1)), Intersect(Var(0), Var(1))),
    (Difference(Var(0), Var(1)), SymDiff(Var(0), Var(1))),
    (Var(0), Complement(Var(0))),
    (UniverseLit(), EmptyLit()),
], ids=["Union-Intersect", "Difference-SymDiff", "Var-Complement", "X-empty"])
def test_nodes_of_different_types_are_unequal(a, b):
    assert a != b and b != a
    assert not (a == b or b == a)
    assert a == type(a)(*a) and not (a != type(a)(*a))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -I ignores PYTHONPATH, so the source tree goes on sys.path by hand.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import setcons.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
