"""The one place this package opens libcrypto.

Each native seam (:func:`repro.crypto.numtheory.modexp`, the SHA-CTR
keystream in :mod:`repro.crypto.fastcipher`) hands :func:`bind` its own
symbol table at import and gets back either every function in it, typed,
or ``None`` — in which case that seam runs its Python path completely.
There is no option to set and no handle shared between seams.

Search order, cheapest first: the libcrypto CPython's own ``_hashlib``
already has mapped, then whatever ``ctypes.util.find_library("crypto")``
names (looked up lazily: it imports ``subprocess`` and may run
``ldconfig``).
"""

from __future__ import annotations

import ctypes
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

#: ``name -> (restype, argtypes)``.  Declare pointers ``c_void_p`` — an
#: undeclared pointer return would be truncated to a C int.
Symbols = Mapping[str, Tuple[object, tuple]]


def _paths() -> Iterator[Optional[str]]:
    try:
        import _hashlib

        yield _hashlib.__file__
    except (ImportError, AttributeError):
        pass
    import ctypes.util

    yield ctypes.util.find_library("crypto")


def bind(symbols: Symbols) -> Optional[Dict[str, Callable]]:
    """All of ``symbols`` bound from the first libcrypto that has them,
    as ``{name: function}`` with ``restype`` / ``argtypes`` set — or
    None, never a partial binding."""
    for path in _paths():
        if not path:
            continue
        try:
            lib = ctypes.CDLL(path)
            bound = {name: getattr(lib, name) for name in symbols}
        except (OSError, AttributeError):
            continue
        for name, func in bound.items():
            func.restype, func.argtypes = symbols[name]
        return bound
    return None
