"""Systematic rank/select index over probe-only sequences."""

from .bits import RsBitvector
from .errors import (
    BadSymbolError,
    CorruptIndexError,
    EmptyTextError,
    MalformedInputError,
    NotFoundError,
    OutOfRangeError,
    PairingError,
    ProbeBudgetError,
    SigmaExceedsLengthError,
    StrindexError,
)
from .index import SpaceReport, StringIndex, build, max_k, rank_budget, select_budget
from .mmphf import MonotoneHash
from .perm import ShortcutTable
from .pred import BlindTrie, PredIndex
from .text import FORMATS, ProbedText, ProbeSession, load

__version__ = "0.1.0"

__all__ = [
    "BadSymbolError",
    "BlindTrie",
    "CorruptIndexError",
    "EmptyTextError",
    "FORMATS",
    "MalformedInputError",
    "MonotoneHash",
    "NotFoundError",
    "OutOfRangeError",
    "PairingError",
    "PredIndex",
    "ProbeBudgetError",
    "ProbeSession",
    "ProbedText",
    "RsBitvector",
    "ShortcutTable",
    "SigmaExceedsLengthError",
    "SpaceReport",
    "StrindexError",
    "StringIndex",
    "build",
    "load",
    "max_k",
    "rank_budget",
    "select_budget",
]
