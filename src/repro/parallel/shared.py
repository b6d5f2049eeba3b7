"""Copy-on-write payload registry behind :func:`share`.

Workers never receive large payloads (feature matrices, fitted models)
through the task pipe. Instead the parent registers them here, the pool
inherits the registry through ``fork`` copy-on-write memory, and tasks
carry a pickle-cheap :class:`SharedPayload` token.

Every ``share()`` registers its payload under a fresh token, and tokens
only grow, so the token is also the payload's **generation**: the
executor compares the newest token a task list carries against the
generation the persistent pool (:mod:`repro.parallel.pool`) forked at,
and re-forks when a payload is newer than the workers' registry
snapshot — a controlled restart instead of a stale-token crash inside a
worker. Leaving the ``share()`` context deletes the entry, so the
registry keeps a payload alive only while a caller shares it; a handle
used after that raises :class:`StalePayloadError` in the parent.
Workers keep their fork-time snapshot until the pool re-forks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "SharedPayload",
    "StalePayloadError",
    "in_worker",
    "mark_worker",
    "registry_generation",
    "share",
]

#: token -> payload. Forked workers see a copy-on-write snapshot.
_REGISTRY: dict[int, Any] = {}
#: The newest token issued; the pool records the value it forked at and
#: restarts when payloads newer than the fork appear.
_GENERATION = 0

#: True inside pool workers (set by the pool initializer at fork).
_IN_WORKER = False


def mark_worker() -> None:
    """Flag this process as a pool worker (called by the initializer)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """Whether this process is a fork-pool worker."""
    return _IN_WORKER


def registry_generation() -> int:
    """Current registry generation (compared against the pool's fork)."""
    return _GENERATION


class StalePayloadError(RuntimeError):
    """A :class:`SharedPayload` handle that cannot be dereferenced.

    Raised with the payload's name and registration generation so the
    failure is actionable: either the handle escaped the ``share()``
    context that created it (parent side), or a worker forked before
    the payload was registered (executor bug — the generation check in
    :meth:`ParallelExecutor.starmap` should have restarted the pool).
    """

    def __init__(self, name: str, generation: int, reason: str):
        self.payload_name = name
        self.generation = generation
        super().__init__(
            f"shared payload {name!r} (generation {generation}) {reason}"
        )


class SharedPayload:
    """Pickle-cheap handle to data registered with :func:`share`.

    Only the token, name and generation cross process boundaries;
    :meth:`get` dereferences the fork-inherited registry inside the
    worker (or the live registry when running serially in the parent).
    """

    __slots__ = ("token", "name", "generation")

    def __init__(self, token: int, name: str = "payload", generation: int = 0):
        self.token = token
        self.name = name
        self.generation = generation

    def get(self) -> Any:
        try:
            return _REGISTRY[self.token]
        except KeyError:
            raise StalePayloadError(
                self.name,
                self.generation,
                "is not registered in this process: it was released when "
                "its share() context exited, or this worker forked before "
                "it was registered",
            ) from None

    def __getstate__(self) -> tuple[int, str, int]:
        return (self.token, self.name, self.generation)

    def __setstate__(self, state: tuple[int, str, int]) -> None:
        self.token, self.name, self.generation = state


@contextmanager
def share(payload: Any, name: str | None = None) -> Iterator[SharedPayload]:
    """Register ``payload`` for fork-inherited hand-off to workers.

    The executor guarantees any pool serving tasks that reference the
    returned handle forked at or after the registration (restarting the
    pool when necessary), so the context need not enclose pool creation
    — but handles must not escape it: exit deletes the entry.
    """
    global _GENERATION
    _GENERATION += 1
    token = _GENERATION
    _REGISTRY[token] = payload
    label = name if name is not None else type(payload).__name__
    try:
        yield SharedPayload(token, label, token)
    finally:
        del _REGISTRY[token]
