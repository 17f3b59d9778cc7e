"""MPC model parameters (paper, Section 1.2).

The model is parameterised by the number of vertices ``n`` and the local
memory exponent ``phi``: every machine has ``s = O(n^phi)`` words of local
memory, and the system as a whole is permitted ``~O(n)`` words in the
semi-streaming regime the paper targets.  :class:`MPCConfig` derives the
concrete machine count, per-phase batch bound, and capacity limits from
those two knobs, with explicit constant factors so that experiments can
sweep them.

A *word* is the unit of both memory and communication accounting: one
vertex id, one edge endpoint pair, or one sketch cell each count as O(1)
words (see :mod:`repro.mpc.metrics`).
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, SketchError


# ---------------------------------------------------------------------------
# Validated environment reader
# ---------------------------------------------------------------------------
# Every ``REPRO_*`` knob is read through :func:`env_int`, the single
# place ``os.environ`` is touched.  A set-but-garbage value fails
# *naming the variable* at read time instead of deep inside the kernel
# layer; ``tests/test_backend.py::TestEnvValidation`` checks that for
# every knob in ``src/``, and that the quickstart names it.

def env_int(name: str, minimum: int) -> Optional[int]:
    """Read an integer env knob; ``None`` when unset.

    A set-but-garbage value (``"abc"``, ``""``, ``"-1"``) raises
    :class:`~repro.errors.SketchError` naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw.strip())
    except ValueError:
        raise SketchError(
            f"invalid {name}={raw!r}: expected an integer >= {minimum}"
        ) from None
    if value < minimum:
        raise SketchError(
            f"invalid {name}={raw!r}: expected an integer >= {minimum}"
        )
    return value


def check_count(field: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int >= minimum``, or :class:`ConfigurationError`
    naming ``field``.

    Anything ``operator.index`` accepts passes (numpy ints included);
    ``bool``, floats and strings do not.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{field} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ConfigurationError(
            f"{field} must be >= {minimum}, got {count}")
    return count


def check_real(field: str, value, minimum: float,
               inclusive: bool = True) -> float:
    """``value`` as a finite ``float >= minimum`` (``> minimum`` when not
    ``inclusive``), or :class:`ConfigurationError` naming ``field``.

    ``bool`` and strings are refused; ``nan`` and the infinities fail
    by name instead of deep inside the first integer conversion.
    """
    try:
        if isinstance(value, (bool, str, bytes)):
            raise TypeError
        real = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{field} must be a real number, got {value!r}") from None
    if not math.isfinite(real):
        raise ConfigurationError(f"{field} must be finite, got {real}")
    if real < minimum or (real == minimum and not inclusive):
        bound = ">=" if inclusive else ">"
        raise ConfigurationError(
            f"{field} must be {bound} {minimum:g}, got {real:g}")
    return real


def polylog(n: int, power: int = 3) -> float:
    """``log2(n)^power`` with the convention ``polylog(<=2) = 1``.

    The paper's batch bound is ``O(n^phi / log^3 n)`` -- the ``log^3 n``
    pays for shipping ``O(log^3 n)``-bit sketches of every touched vertex
    to one machine.
    """
    if n <= 2:
        return 1.0
    return math.log2(n) ** power


@dataclass(frozen=True)
class MPCConfig:
    """Concrete instantiation of the paper's MPC model.

    Parameters
    ----------
    n:
        Number of vertices of the maintained graph (fixed for a run).
    phi:
        Local memory exponent; ``s = ceil(mem_factor * n**phi)`` words.
        The paper allows any constant ``0 < phi < 1``.
    mem_factor:
        Constant in front of ``n^phi``.  Theory hides it in O(.); the
        simulator makes it explicit so capacity enforcement is meaningful
        at laptop-scale ``n``.
    total_memory_factor:
        Constant ``c`` in the ``c * n * log2(n)^2`` total-memory budget
        used to derive the default machine count.
    strict_capacity:
        If True the simulator raises :class:`~repro.errors.CapacityExceededError`
        on any per-machine violation; otherwise violations are recorded
        in the metrics ledger (the default, since at small ``n`` the
        hidden constants of the theorems dominate).
    seed:
        Master seed for all randomness (sketches, hashing, sampling).
    num_machines:
        Override for the derived machine count.

    Where the sketch work executes is not part of the model: the
    executor is chosen at the cluster or session boundary
    (:mod:`repro.mpc.backend`).
    """

    n: int
    phi: float = 0.5
    mem_factor: float = 4.0
    total_memory_factor: float = 4.0
    strict_capacity: bool = False
    seed: int = 0
    num_machines: Optional[int] = None

    def __post_init__(self) -> None:
        # Sizes are stored as the plain ints ``check_count`` returns: a
        # numpy ``int8`` / ``uint16`` n would overflow in ``n * (n - 1)``.
        object.__setattr__(self, "n", check_count("n", self.n, minimum=2))
        phi = check_real("phi", self.phi, 0.0, inclusive=False)
        if phi >= 1.0:
            raise ConfigurationError(
                f"phi must lie strictly between 0 and 1, got {phi}"
            )
        object.__setattr__(self, "phi", phi)
        for name in ("mem_factor", "total_memory_factor"):
            object.__setattr__(self, name, check_real(
                name, getattr(self, name), 0.0, inclusive=False))
        object.__setattr__(self, "seed", check_count("seed", self.seed,
                                                     minimum=0))
        if self.num_machines is not None:
            object.__setattr__(self, "num_machines", check_count(
                "num_machines", self.num_machines))

    # ------------------------------------------------------------------
    # Derived model quantities
    # ------------------------------------------------------------------
    @property
    def local_memory(self) -> int:
        """Words of local memory per machine: ``s = ceil(mem_factor * n^phi)``."""
        return max(4, math.ceil(self.mem_factor * self.n ** self.phi))

    # Alias matching the paper's notation.
    s = local_memory

    @property
    def total_memory_budget(self) -> int:
        """The ``~O(n)`` total-memory budget in words."""
        log2n = max(1.0, math.log2(self.n))
        return math.ceil(self.total_memory_factor * self.n * log2n ** 2)

    @property
    def machine_count(self) -> int:
        """Number of machines: enough to hold the total-memory budget."""
        if self.num_machines is not None:
            return self.num_machines
        return max(1, math.ceil(self.total_memory_budget / self.local_memory))

    @property
    def batch_bound(self) -> int:
        """Maximum updates per phase actually enforced by the algorithms.

        We use ``s`` (one machine's worth of updates); the paper's bound
        ``O(n^phi / log^3 n)`` differs only by the polylog factor that
        pays for sketch shipping -- see :meth:`paper_batch_bound`.
        """
        return self.local_memory

    def paper_batch_bound(self) -> int:
        """The literal ``n^phi / log^3(n)`` bound from Theorem 6.7.

        Degenerates to < 1 for laptop-scale ``n`` (the asymptotics only
        bite for astronomically large graphs); exposed for comparison,
        not used for enforcement.
        """
        return max(1, math.floor(self.n ** self.phi / polylog(self.n, 3)))

    @property
    def sketch_columns(self) -> int:
        """Default number of independent sketch columns ``t = O(log n)``.

        Batch deletions re-run the AGM forest construction on the
        auxiliary graph, consuming one column per halving iteration
        (paper, Section 6.3), hence ``c * log2 n`` columns.
        """
        return max(4, math.ceil(2.0 * math.log2(max(2, self.n))))

    def fanout(self, words_per_message: int = 1) -> int:
        """How many distinct machines one machine can message in a round.

        Bounded by the per-round communication budget ``s`` divided by
        the message size; at least 2 so broadcast trees always make
        progress.
        """
        return max(2, self.local_memory // max(1, words_per_message))

    def describe(self) -> str:
        """Human-readable one-line summary used by example scripts."""
        return (
            f"MPC(n={self.n}, phi={self.phi}, s={self.local_memory} words, "
            f"{self.machine_count} machines, batch<= {self.batch_bound})"
        )


def small_test_config(n: int = 64, phi: float = 0.5, seed: int = 0) -> MPCConfig:
    """A config suitable for unit tests: small but non-degenerate."""
    return MPCConfig(n=n, phi=phi, seed=seed)
