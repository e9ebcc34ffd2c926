"""Fixed-price welfare guarantees, dynamic-pricing competition complexity,
and extreme-value fitting for large i.i.d. markets.

Submodules load on first use, so ``import evpricing`` loads none of them.
``evpricing.policy`` (or ``from evpricing import policy``) loads that
submodule and what it imports.  Any other public name, ``dir(evpricing)`` and
``from evpricing import *`` load all seven and re-export their public names.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The submodules whose public names the package re-exports; cli is the other one.
_SUBMODULES = ("competition", "distributions", "errors", "evtfit", "guarantees", "kernel",
               "policy")


def _load_all() -> list[str]:
    """Import every submodule and bind its public names here, once; return __all__."""
    global __all__
    if "__all__" in globals():
        return __all__
    names = set(_SUBMODULES)
    for sub in _SUBMODULES:
        module = _import_module(f".{sub}", __name__)
        public = getattr(module, "__all__", [s for s in vars(module) if not s.startswith("_")])
        globals().update((s, getattr(module, s)) for s in public)
        names.update(public)
    __all__ = sorted(names)
    return __all__


def __getattr__(name: str):
    if name in _SUBMODULES or name == "cli":
        return _import_module(f".{name}", __name__)
    if name == "__all__":
        return _load_all()
    if not name.startswith("_") and name in _load_all():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load_all()
    return sorted(globals())
