"""PEP 562 lazy package exports.

A package ``__init__`` lists which submodule defines each public name;
that submodule is imported on first access of the name instead of at
package import, so importing one module (``repro.cli``, the pipeline)
no longer drags every sibling subsystem into the process.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> "tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]":
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    public names it defines.  A resolved name is cached in the package
    namespace, so later lookups — and monkeypatching — see a plain
    module attribute.
    """
    origin = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
