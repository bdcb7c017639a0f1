"""The benchmark tracer still finds every orbitforge name it wraps.

perfbench/tracing.py wraps the functions listed in its TRACED table by
name.  A rename or deletion in the library makes every traced benchmark run
raise, so it is checked here, against the library as it stands.
"""

import importlib.util
import pathlib

import orbitforge
import orbitforge.cli  # noqa: F401  (the tracer wraps cli.write_report)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bound(mod_name, attr):
    """The object TRACED names: a module function or a class's own method."""
    owner = getattr(orbitforge, mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracing = _tracing_module()
    originals = {(m, a): _bound(m, a) for _, m, a in tracing.TRACED}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (m, a), fn in originals.items():
            assert _bound(m, a) is not fn, f"{m}.{a} was not wrapped"
    finally:
        tracer.remove()
    for (m, a), fn in originals.items():
        assert _bound(m, a) is fn, f"{m}.{a} was not restored"
