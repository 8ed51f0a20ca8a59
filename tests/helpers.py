"""Shared signatures and shorthand constructors for the test suite."""

from __future__ import annotations

from rankedrev import (
    PropSet,
    RankFunction,
    Signature,
    Theory,
    models_of,
    parse_formula,
)

SIG1 = Signature(("p",))
SIG2 = Signature(("p", "q"))
SIG3 = Signature(("p", "q", "r"))
SIG4 = Signature(("p", "q", "r", "s"))

# running example: 11 most plausible, then 01 and 10, then 00
R0 = RankFunction(SIG2, (2, 1, 1, 0))


def ps(sig: Signature, text: str) -> PropSet:
    return models_of(parse_formula(text, sig), sig)


def th(sig: Signature, text: str) -> Theory:
    if text == "bot":
        return Theory.bottom(sig)
    return Theory(ps(sig, text))
