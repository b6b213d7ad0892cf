"""The package's record types.

The solver's results are dataclasses: each is a frozen value with equality,
and their set is pinned, so adding one is a visible decision (each costs
about a millisecond of import time, and the module ``dataclasses`` itself
several).  Everything that reading a presentation builds is a ``Record``
instead: a ``__slots__`` class with type-strict field equality and field
hashing, defined without importing ``dataclasses``."""

import dataclasses
from fractions import Fraction
import importlib
import inspect
import pkgutil

import skewtor
from skewtor.exprs import Pow, Sum, Term
from skewtor.presentation import StageSpec

RECORDS = {
    "ore.OreElement",
    "orechain.AlgebraState",
    "orechain.Derived",
    "orechain.Original",
    "orechain.StageReport",
    "orechain.TorusEmbedding",
    "orechain.WeylWitness",
}


def package_dataclasses() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(skewtor.__path__):
        if info.name == "__main__":  # importing it would run the command line
            continue
        module = importlib.import_module(f"skewtor.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
            ):
                found[f"{info.name}.{name}"] = obj
    return found


def test_the_records_are_the_pinned_set():
    assert set(package_dataclasses()) == RECORDS


def test_every_record_is_frozen_with_equality():
    for name, cls in package_dataclasses().items():
        params = cls.__dataclass_params__
        assert params.frozen and params.eq, name


def test_every_record_has_its_own_docstring():
    # without one, dataclass() builds "Name(fields...)" through
    # inspect.signature, which adds to the import time of the package
    for name, cls in package_dataclasses().items():
        assert not cls.__doc__.startswith(cls.__name__ + "("), name


def test_slot_records_compare_by_class_and_fields():
    x = Pow("x", 1)
    tree = Sum(((1, x), (-1, Term(((x, False), (Fraction(2), True))))))
    again = Sum(((1, Pow("x", 1)), (-1, Term(((Pow("x", 1), False), (Fraction(2), True))))))
    assert tree == again and hash(tree) == hash(again)
    assert {tree: 1}[again] == 1  # a memo keyed on one finds the other
    assert Pow("x", 1) != Pow("x", 2) and Pow("x", 1) != Pow("y", 1)
    # same fields, other class
    assert Sum(((1, x),)) != Term(((1, x),)) and Term(((1, x),)) != Sum(((1, x),))
    assert repr(x) == "Pow(name='x', k=1)"
    assert StageSpec("y", (), (x,)) == StageSpec("y", (), (Pow("x", 1),), None)
    assert StageSpec("y", (), (x,)) != StageSpec("y", (), (x,), "w")
