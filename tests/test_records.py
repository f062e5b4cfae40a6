"""The six value types behave alike: immutable records compared, hashed,
printed, pickled and copied by their field values."""

import copy
import pickle

import pytest

from hlk import AbelianGroup, Diagram, IntMatrix, LkInvariant, SNFResult
from hlk.cli import CliConfig

ONE, TWO = IntMatrix(1, 1, (1,)), IntMatrix(1, 1, (2,))
LOOPS = (("a",), ("b",))

# (sample value, its fields by keyword, an unequal value, its exact repr)
CASES = [
    (
        IntMatrix(2, 2, (1, 2, 3, 4)),
        {"rows": 2, "cols": 2, "entries": (1, 2, 3, 4)},
        IntMatrix(2, 2, (1, 2, 3, 5)),
        "IntMatrix(2x2 [1 2; 3 4])",
    ),
    (
        SNFResult(TWO, ONE, ONE, (2,)),
        {"d": TWO, "u": ONE, "v": ONE, "divisors": (2,)},
        SNFResult(TWO, ONE, ONE, (1,)),
        "SNFResult(d=IntMatrix(1x1 [2]), u=IntMatrix(1x1 [1]), v=IntMatrix(1x1 [1]), divisors=(2,))",
    ),
    (
        Diagram(("h1", "h2"), LOOPS, {("a", "b"): 1}),
        {"component_names": ("h1", "h2"), "loops": LOOPS, "crossing_sums": {("a", "b"): 1}},
        Diagram(("h1", "h2"), LOOPS, {("a", "b"): -1}),
        "Diagram(component_names=('h1', 'h2'), loops=(('a',), ('b',)), "
        "crossing_sums=mappingproxy({('a', 'b'): 1}))",
    ),
    (
        LkInvariant((1, 2)),
        {"divisors": (1, 2)},
        LkInvariant(),
        "LkInvariant(divisors=(1, 2))",
    ),
    (
        AbelianGroup(1, (2,)),
        {"free_rank": 1, "torsion": (2,)},
        AbelianGroup(1),
        "AbelianGroup(free_rank=1, torsion=(2,))",
    ),
    (
        CliConfig("selftest", trials=5, seed=7),
        {"subcommand": "selftest", "input_path": None, "trials": 5, "seed": 7, "verbose": False},
        CliConfig("selftest", trials=5, seed=8),
        "CliConfig(subcommand='selftest', input_path=None, trials=5, seed=7, verbose=False)",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, fields, other, text", CASES, ids=IDS)
def test_equality_by_type_and_fields(value, fields, other, text):
    equal = type(value)(**fields)
    assert equal == value and not equal != value
    assert value != other and not value == other
    as_tuple = tuple(fields.values())
    assert value != as_tuple
    assert value.__eq__(as_tuple) is NotImplemented


@pytest.mark.parametrize("value, fields, other, text", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(value, fields, other, text):
    if type(value) is Diagram:
        # The read-only mapping of crossing sums is unhashable.
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(tuple(fields.values())) == hash(type(value)(**fields))


@pytest.mark.parametrize("value, fields, other, text", CASES, ids=IDS)
def test_lists_are_stored_as_tuples(value, fields, other, text):
    as_lists = {name: list(x) if type(x) is tuple else x for name, x in fields.items()}
    built = type(value)(**as_lists)
    assert built == value and repr(built) == text
    if type(value) is not Diagram:
        assert hash(built) == hash(value)


@pytest.mark.parametrize("value, fields, other, text", CASES, ids=IDS)
def test_repr(value, fields, other, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, other, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(value, fields, other, text):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for result in copies:
        assert type(result) is type(value) and result == value
        assert repr(result) == text


@pytest.mark.parametrize("value, fields, other, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, fields, other, text):
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == type(value)(**fields)
