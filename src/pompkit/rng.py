"""Reproducible random-stream derivation.

All stochastic entry points take a single master seed.  Internally, each
logically independent piece of work (a filtering pass, one proposal's
likelihood evaluation, one chain of a multi-chain run, ...) draws from its own
child stream derived from the master seed and a tuple of path components.

Derivation rule
---------------
``stream(seed, *path)`` maps every path component to a 32-bit word (integers
are taken mod 2**32 word-wise, strings are CRC-32 hashed) and uses the result
as the ``spawn_key`` of a :class:`numpy.random.SeedSequence` rooted at the
master seed.  The rule is pure arithmetic on the path: the same
``(seed, path)`` always yields the same stream, no matter how many workers
run, in what order tasks complete, or how often other streams were used.
Within a stream, array draws are made in a fixed documented order by the
algorithm that owns it.
"""

from __future__ import annotations

import zlib

import numpy as np

from .exceptions import require_integer

__all__ = ["stream", "child_seeds"]


def _key_words(component) -> tuple[int, ...]:
    if isinstance(component, str):
        return (zlib.crc32(component.encode("utf-8")),)
    if isinstance(component, (int, np.integer)):
        value = require_integer("stream path integer", component, 0)
        words = []
        while True:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
            if value == 0:
                return tuple(words)
    raise TypeError(f"stream path components must be str or int, got {type(component)!r}")


def stream(seed, *path) -> np.random.Generator:
    """Return the child generator for ``path`` under ``seed``.

    ``seed`` may be a non-negative integer master seed or an existing
    :class:`numpy.random.Generator`; a generator is returned unchanged only
    when no path is given (caller already owns a stream).
    """
    if isinstance(seed, np.random.Generator):
        if not path:
            return seed
        # Deterministic split of an existing generator: derive from its own
        # stream rather than global state.
        root = int(seed.integers(0, 2**63 - 1))
        return stream(root, *path)
    spawn_key = tuple(word for component in path for word in _key_words(component))
    ss = np.random.SeedSequence(entropy=require_integer("seed", seed, 0),
                                spawn_key=spawn_key)
    return np.random.default_rng(ss)


def child_seeds(seed, label: str, n: int) -> list[int]:
    """Derive ``n`` integer seeds for independent tasks under one label.

    Outer loops (multi-start searches, replicate filters, multiple chains)
    take their task seeds from here before any task runs, so the results do
    not depend on the order the tasks run in.
    """
    gen = stream(seed, "task-seeds", label)
    return [int(s) for s in gen.integers(0, 2**63 - 1, size=require_integer("n", n, 0))]
