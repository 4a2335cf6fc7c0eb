"""Lazy package re-exports (PEP 562).

A package root that re-exports names from its submodules would import
every one of those submodules -- and whatever they import, numpy and
the process-pool executors included -- as soon as anything under the
package is touched.  :func:`lazy_exports` instead resolves each public
name on first attribute access, so ``import repro`` and
``from repro.serve import PreprocessingService`` load only the modules
that define what is actually used::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.serve.service": ("PreprocessingService", "ServiceReport"),
    })

``from package import name``, ``package.name`` and ``__all__`` behave
exactly as with eager imports; a resolved name is cached on the package
so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, exports: Dict[str, Iterable[str]],
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names it exports.
    """
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
