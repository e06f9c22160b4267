"""Read a rendered object back into a compact tree.

``formalcat.render`` writes one copy of a summand per unit of its
multiplicity, so one answer can run to tens of megabytes of
``j*O(1) + j*O(1) + ...``.  The tree keeps each run once, with its length:

    sum     := [[summand, count], ...]            ([] is the zero object)
    summand := ["g", "j*S'(-9)", shift] | ["c", sum, sum, shift]

Runs are skipped with a possessive regular expression, which needs
Python 3.11 or later and holds no per-copy state.
"""

from __future__ import annotations

import re

_ATOM = re.compile(r"j\*(?:S''|S'|S|O)(?:\(-?\d+\))?")
_SHIFT = re.compile(r"\[(-?\d+)\]")
_RUN_CACHE: dict[str, re.Pattern] = {}
# longer summands (cones over big sums) are compared copy by copy instead
_MAX_PATTERN = 256
# a summand ends where a sum separator, an arrow, a closing paren or the text does
_SUMMAND_END = " )"


def parse_render(text: str) -> list:
    text = text.rstrip("\n")
    if text == "0":
        return []
    tree, pos = _sum(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing text at {pos}: {text[pos:pos + 40]!r}")
    return tree


def _summand(text: str, pos: int):
    if text.startswith("cone(", pos):
        src, pos = _sum(text, pos + 5)
        if not text.startswith(" -> ", pos):
            raise ValueError(f"expected ' -> ' at {pos}")
        tgt, pos = _sum(text, pos + 4)
        if not text.startswith(")", pos):
            raise ValueError(f"expected ')' at {pos}")
        node = ["c", src, tgt, 0]
        pos += 1
    else:
        m = _ATOM.match(text, pos)
        if not m:
            raise ValueError(f"expected a generator at {pos}: {text[pos:pos + 40]!r}")
        node = ["g", m.group(), 0]
        pos = m.end()
    m = _SHIFT.match(text, pos)
    if m:
        node[-1] = int(m.group(1))
        pos = m.end()
    return node, pos


def _run(unit: str) -> re.Pattern:
    pat = _RUN_CACHE.get(unit)
    if pat is None:
        pat = _RUN_CACHE[unit] = re.compile("(?:" + re.escape(unit) + ")*+")
    return pat


def _sum(text: str, pos: int):
    parts = []
    while True:
        start = pos
        node, pos = _summand(text, pos)
        unit = " + " + text[start:pos]
        if len(unit) <= _MAX_PATTERN:
            end = _run(unit).match(text, pos).end()
        else:
            end = pos
            while text.startswith(unit, end):
                end += len(unit)
        copies = (end - pos) // len(unit)
        if copies and end < len(text) and text[end] not in _SUMMAND_END:
            # the last copy was only a prefix of a longer summand
            copies -= 1
            end -= len(unit)
        parts.append([node, 1 + copies])
        pos = end
        if not text.startswith(" + ", pos):
            return parts, pos
        pos += 3
