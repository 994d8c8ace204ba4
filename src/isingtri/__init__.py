"""Exact series, critical data and samplers for Ising-weighted random triangulations.

The engine layers load on first use.  Each command runs in a fresh
interpreter, and compiling every layer costs more than the lighter commands
compute (`critical --nu nu_c` needs three of the six layers), so each layer
is registered here with `importlib.util.LazyLoader` and runs on the first
access to one of its attributes.  Registering rather than skipping the import
keeps every layer in `sys.modules` and as an attribute of this package from
the start: a tracer that looks `sys.modules["isingtri.<layer>"]` up right after
`import isingtri.cli` finds it, and reading an attribute from it loads it.
Reach a layer through its module object (`partition.solve_U`) where it may go
unused: `from .partition import solve_U` runs `partition` at once.

`sha256` is CPython's builtin SHA-256, as in `random`: `hashlib` maps OpenSSL's
libcrypto, about 4 MB resident in every command, for the same digest.
"""

import importlib.util
import sys

try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

__version__ = "0.1.0"


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in ("exactnum", "series", "maps", "partition", "criticality", "sampler"):
    globals()[_layer] = _register_lazily(_layer)
