"""The package's record types: every dataclass is a frozen value with
equality, and the set of records is pinned, so adding one is a visible
decision (each costs about a millisecond of import time)."""

import dataclasses
import importlib
import inspect
import pkgutil

import skewtor

RECORDS = {
    "exprs.Pow",
    "exprs.Sum",
    "exprs.Term",
    "ore.OreElement",
    "orechain.AlgebraState",
    "orechain.Derived",
    "orechain.Original",
    "orechain.StageReport",
    "orechain.StageSpec",
    "orechain.TorusEmbedding",
    "orechain.WeylWitness",
    "presentation.PresentationFile",
    "presentation.StandaloneBlock",
    "skewder.ComponentReport",
    "skewder.HomogeneousComponent",
    "torus.SelectiveSpace",
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
