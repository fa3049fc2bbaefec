"""The character loop ``reports._escape`` ran before it became
``json.dumps``.  It escapes quote, backslash, newline and tab by name and
every other control character below 0x20 as ``\\u00XX``; it leaves DEL and
non-ASCII characters as they are."""

from __future__ import annotations


def escape_by_loop(s: str) -> str:
    out = ["\""]
    for ch in s:
        if ch == "\"":
            out.append("\\\"")
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)
