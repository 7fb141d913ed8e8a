"""Every function the benchmark tracer wraps must still exist where the
tracer looks for it; a renamed or moved function would otherwise drop out
of traced runs without an error.  The tracer module is loaded by path and
only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pencil_forge.catalog import builtin_case
from pencil_forge.diffgeo import levi_civita
from pencil_forge.symcore import Expr

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_tracer().WRAPPED


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attrs in WRAPPED.items() for attr in attrs
])
def test_wrapped_name_resolves(module, attr):
    mod = importlib.import_module(f"pencil_forge.{module}")
    if "." not in attr:
        assert callable(getattr(mod, attr))
        return
    cls_name, meth = attr.split(".")
    raw = getattr(mod, cls_name).__dict__[meth]
    if meth == "from_metric":
        assert isinstance(raw, classmethod)
    else:
        assert callable(raw)


def test_normal_form_slot():
    """The tracer counts a normal_form call as a cache hit when _nf is set,
    so an Expr that carries a value of the factored algebra keeps _nf None
    until its normal form is exported."""
    assert callable(Expr.__dict__["normal_form"])
    assert "_nf" in Expr.__slots__
    g = builtin_case("g1").metric()
    entry = levi_civita(g).raised[0][0][0]
    assert entry._carried is not None and entry._nf is None
    nf = entry.normal_form()
    assert entry._nf is nf
