"""numpy and the package's engines, loaded on first use.

Set classes, domination and most admissibility verdicts are symbolic and
never touch an array, yet importing numpy is about a third of a fresh
`fbasis` process.  `np` is numpy's module object, but its code runs only
at the first attribute access (`np.zeros`, `np.ndarray`, ...).  Every
module that needs numpy imports `np` from here; nothing else imports it.

`cli` and `parsing` bind the engines that only some subcommands or
grammar forms reach (`basis_builder`, `separation`, `witnesses`, ...) the
same way, by package-relative name, so that `classify-set` or `dominates`
never compiles them.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy(name: str):
    """The module `name`: the loaded one if there is one, else a lazy one
    registered in `sys.modules` and on its parent package, as an import
    would, so that the package's own submodules, which import it again
    while it executes, find it there."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
