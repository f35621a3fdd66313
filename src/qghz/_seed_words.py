"""The ISeedSequence shim that hands one row of ``simulator.child_seed_words`` to ``np.random.PCG64``.

It lives apart from ``analysis`` because subclassing ``ISeedSequence``
imports ``numpy.random``: about 6 MB of resident memory and 10-15 ms of
start-up (2-core Xeon, numpy 2.4) that ``rank`` and ``compile`` would
otherwise pay on every import of ``qghz``. The learner imports it on
first use.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class SeedWords(ISeedSequence):
    """One row of ``child_seed_words``, handed to ``np.random.PCG64`` as its seed state."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if dtype is np.uint64 and n_words == 4:  # what PCG64.__init__ asks, once per row
            return self.words
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds only the 4 uint64 words PCG64 asks for, not {n_words} of {np.dtype(dtype)}")
        return self.words
