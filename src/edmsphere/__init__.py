"""edmsphere: spherical Euclidean distance matrix toolkit.

Certify EDMs and their sphericity, build minimum-dimension orthonormal
graph representations, and decompose unit spherical configurations with
minimum distance sqrt(2) into orthogonal simplices, crosspolytopes
included.  All decisions are tolerance-explicit and every construction is
returned together with the checks that certify it.

The namespace binds on first use (PEP 562), so that a process imports only
the modules it runs: `edmsphere.<layer>` imports that module alone, and the
first access to any other name, `__all__` and `import *` included, imports
every layer and binds the exports of each, as an eager package would.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# in the order of __all__; cli is a layer too, but exports nothing
_LAYERS = ("tolerances", "errors", "spectral", "matrixio", "graphs", "edm", "orthorep", "decomposition")


def _bind_all() -> None:
    """Import every layer and bind its exports, then `__all__`, here."""
    namespace = globals()
    names = ["__version__"]
    for layer in _LAYERS:
        module = _import_module(f"{__name__}.{layer}")
        namespace.update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    namespace["__all__"] = names  # bound last: a thread that finds it finds every export


def __getattr__(name: str):
    if name in _LAYERS or name == "cli":
        return _import_module(f"{__name__}.{name}")
    _bind_all()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    _bind_all()
    return sorted(globals())
