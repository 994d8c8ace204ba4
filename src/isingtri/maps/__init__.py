import importlib

from .combmap import CombMap, InvalidMap, flip_word, normalize_word, spins_to_word, word_to_spins

# The enumerator and the oracle (and through it `series`) load on first access
# to one of their names, which is then bound here: `sample mcmc` and `stats`
# never run them, and a tracer that patches a name in this module finds it.
_HOME = {name: module for module, names in (
    ("enumerate", ("DEFAULT_CAP", "CapExceeded", "enumerate_maps")),
    ("oracle", ("count_maps", "min_degree", "oracle_Q", "oracle_series", "oracle_sphere")),
) for name in names}

__all__ = ["CombMap", "InvalidMap", "flip_word", "normalize_word", "spins_to_word",
           "word_to_spins", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
