"""The command line as argparse reads it, to compare ``cli.load_config`` with.

``parse(argv)`` builds the argparse parser from ``cli._COMMON`` and
``cli._SUBCOMMANDS`` and returns ``"usage"`` for an argv it refuses, else
``(command, [(key, value), ...])``: the options of the ``RunConfig`` it
yields, in their order, defaults included.
"""

from __future__ import annotations

import argparse
import contextlib
import io

from fbasis import cli
from fbasis.natset import DEFAULT_HORIZON


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fbasis", allow_abbrev=False)
    sub = top.add_subparsers(dest="command")
    for name, (_, options) in cli._SUBCOMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for option in cli._COMMON + options:
            if option == "band":
                p.add_argument("--band", action="store_true")
            elif option == "format":
                p.add_argument("--format", choices=("json", "csv"))
            else:
                p.add_argument("--" + option)
    return top


_PARSER = _parser()  # parse_args keeps no state


def parse(argv: list[str]):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            ns = _PARSER.parse_args(argv)
    except SystemExit:
        return "usage"
    if ns.command is None:
        return "usage"
    try:
        options = cli._read_config_file(ns.config, ns.command) if ns.config else {}
    except cli._Usage:
        return "usage"
    for key, value in vars(ns).items():
        if key not in ("command", "config") and value not in (None, False):
            options[key] = value
    options.setdefault("horizon", str(DEFAULT_HORIZON))
    options.setdefault("n_max", "32")
    options.setdefault("format", "json")
    return ns.command, list(options.items())
