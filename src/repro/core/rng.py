"""Named, seeded random-number streams.

Every stochastic component in the library draws from its own named
stream derived from a single master seed.  This keeps experiments
reproducible *and* decoupled: adding draws to one component does not
perturb another component's sequence.
"""

import hashlib
import random
from typing import Dict

__all__ = ["DEFAULT_SEED", "RngStreams", "derive_seed"]

#: Repo-wide default master seed (the paper's IMC'14 presentation date).
DEFAULT_SEED = 20141105


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per-process and unusable here).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent :class:`random.Random` streams.

    >>> streams = RngStreams(42)
    >>> a = streams.get("wifi")
    >>> b = streams.get("lte")
    >>> a is streams.get("wifi")
    True
    >>> a is b
    False

    :meth:`get` hands out one long-lived stream per name, so each call
    continues where the last one stopped.  :meth:`fresh` restarts the
    named sequence on every call; use it for streams that name one
    draw (a run, a site's calibration) and must repeat when redrawn.
    """

    def __init__(self, master_seed: int = DEFAULT_SEED):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    def fresh(self, name: str) -> random.Random:
        """A new stream for ``name``, from the start of its sequence.

        Equal to what the first :meth:`get` of ``name`` returns, but
        never cached: repeating a call repeats the draws.

        >>> streams = RngStreams(42)
        >>> streams.fresh("run.3").random() == streams.fresh("run.3").random()
        True
        """
        return random.Random(derive_seed(self.master_seed, name))

    def fork(self, name: str) -> "RngStreams":
        """Return a new :class:`RngStreams` with a derived master seed.

        Useful for giving each location/run its own family of streams.
        """
        return RngStreams(derive_seed(self.master_seed, name))
