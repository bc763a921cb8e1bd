"""Named random substreams derived from a single root seed.

Every random draw in the package (splitting, initialization, negative
sampling, dropout, FLTB candidate selection) comes from a substream named
by a path of strings/integers.  Substreams are independent of each other,
so changing how many numbers one stage consumes never perturbs another
stage's draws.  Within a stage, draws may share one substream: each
evaluation metric (AUC, FLTB) draws in sequence from a single substream
per evaluation, so its outfits are not independent of each other.
"""

import hashlib

import numpy as np


def substream(root_seed: int, *path) -> np.random.Generator:
    """Return the generator for substream ``path`` under ``root_seed``.

    The same (seed, path) always yields an identical stream; path elements
    may be strings or integers, e.g. ``substream(7, "sampling", epoch)``.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    entropy = int.from_bytes(h.digest()[:16], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))
