"""The one fork helper: every forked party starts, reports and ends here.

:func:`fork` forks ``count`` children; child ``i`` runs ``main(i, pipe)``
with its end of one duplex pipe.  Children are forked, never spawned:
``main`` is usually a closure over protocol factories and ticket keys,
which fork copies by memory and pickling could not carry.  A child talks
back in tagged tuples::

    ("ready", pid)             — a server is up and takes commands
    ("result", value)          — a finished run's outcome
    ("error", "Type: message") — ``main`` raised; sent by the helper

Further tags (a cluster's ``snapshot`` / ``stop`` commands) are the
caller's own.  The parent reads one tag with :func:`expect`, which turns
an error, a silent exit or a missed deadline into a ``RuntimeError``
naming the child, and ends every child with :func:`join`, which
terminates one that overruns.  Nothing here imports ``repro.aio``: the
load generator in that package forks through this module.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:  # annotations only: ctx.Pipe() imports these when first called
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = ["Child", "expect", "fork", "join"]


@dataclass
class Child:
    """One forked child: its process and the parent's end of its pipe."""

    index: int
    process: BaseProcess
    pipe: Connection

    @property
    def pid(self) -> int:
        return self.process.pid


def fork(
    count: int, main: Callable[[int, Connection], None], name: str
) -> List[Child]:
    """Fork ``count`` children named ``f"{name} {i}"``, each running
    ``main(i, pipe)``; return them in index order."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            f"{name} needs the fork start method "
            "(closures and ticket keys are inherited by memory, not pickled)"
        )
    ctx = multiprocessing.get_context("fork")
    children = []
    for index in range(count):
        parent_pipe, child_pipe = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_run_child,
            args=(main, index, child_pipe),
            name=f"{name} {index}",
            daemon=True,
        )
        process.start()
        child_pipe.close()
        children.append(Child(index, process, parent_pipe))
    return children


def _run_child(
    main: Callable[[int, Connection], None], index: int, pipe: Connection
) -> None:
    """The process boundary: whatever ``main`` raises goes to the parent
    as one ``("error", "Type: message")``."""
    try:
        main(index, pipe)
    except Exception as exc:
        pipe.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        pipe.close()


def expect(child: Child, tag: str, timeout: Optional[float] = None) -> object:
    """Wait up to ``timeout`` seconds (``None``: without limit) for the
    child's next message and return its payload if it is tagged ``tag``.

    Raises ``RuntimeError`` naming the child otherwise: the child sent
    an error or another tag, exited without a word, or stayed silent.
    """
    name = child.process.name
    try:
        if not child.pipe.poll(timeout):
            raise RuntimeError(f"{name} sent no {tag!r} within {timeout} s")
        got, payload = child.pipe.recv()
    except EOFError:
        raise RuntimeError(f"{name} exited before {tag!r}") from None
    if got == "error":
        raise RuntimeError(f"{name} failed: {payload}")
    if got != tag:
        raise RuntimeError(f"{name} sent {got!r} before {tag!r}")
    return payload


def join(child: Child, timeout: float = 5.0) -> None:
    """Wait up to ``timeout`` seconds for the child to exit, terminate it
    if it has not (kill it if it outlives another ``timeout``), and close
    the parent's end of its pipe."""
    child.process.join(timeout)
    if child.process.is_alive():
        child.process.terminate()
        child.process.join(timeout)
    if child.process.is_alive():
        child.process.kill()
        child.process.join()
    child.pipe.close()
