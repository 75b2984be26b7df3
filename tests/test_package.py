import inspect

import hamorient
from hamorient.workbench import SUITES


def test_public_names_resolve_once():
    names = hamorient.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hamorient, name) is not None, name


def test_no_wall_clock_deadline_parameters():
    """Exact searches are bounded by work budgets, never by seconds."""
    public = [getattr(hamorient, name) for name in hamorient.__all__]
    for fn in public + list(SUITES.values()):
        if not callable(fn) or isinstance(fn, type) and issubclass(fn, Exception):
            continue             # exception classes carry no signature
        params = inspect.signature(fn).parameters
        assert not [p for p in params if "deadline" in p], fn


def test_every_suite_parameter_is_annotated():
    """Experiment configs are type-checked against these annotations."""
    for name, fn in SUITES.items():
        for p in inspect.signature(fn).parameters.values():
            assert p.annotation is not p.empty, (name, p.name)
