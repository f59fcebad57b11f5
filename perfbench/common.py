"""Pieces the three workloads share: repetitions, digests, the gate."""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class Rep:
    """One repetition of a workload's unit of work."""

    traced: bool
    #: Wall seconds of the timed work (probes run after it are excluded).
    wall_s: float = 0.0
    #: Result digests that must be identical in every repetition.
    digests: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Workload-specific measurements of this repetition.
    data: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit input seed for ``label``, fixed by the benchmark seed.

    Deliberately not ``repro.core.rng.derive_seed``: a change to the
    program's seed derivation must not change the benchmark's inputs.
    """
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest_json(obj: Any) -> str:
    """SHA-256 of the canonical JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_mismatches(reps: Sequence[Rep]) -> List[str]:
    """One message per digest that differs between repetitions.

    A digest only some repetitions carry (for example one computed by a
    traced repetition's probes) is compared across those that carry it.
    """
    errors = []
    names = sorted({name for rep in reps for name in rep.digests})
    for name in names:
        seen = {rep.digests[name] for rep in reps if name in rep.digests}
        if len(seen) > 1:
            errors.append(f"digest {name!r} differs between repetitions: "
                          f"{sorted(d[:12] for d in seen)}")
    return errors
