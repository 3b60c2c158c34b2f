"""Exception types shared across the package."""

from __future__ import annotations


class TopomiError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TopomiError):
    """Input could not be read, or parsed into a grid, graph, lattice or scenario."""


class ValidationError(TopomiError):
    """Structurally parseable input that violates a documented invariant."""


class EmptyRegion(TopomiError):
    """Operation needs a non-empty cell or qubit region."""


class EmptySubset(TopomiError):
    """Union over an empty collection of subsystems was requested."""


class TooManySubsystems(TopomiError):
    """A guard on the work that grows with N tripped: the cap on every 2**n
    table (``masks.MAX_SUBSYSTEMS``), over a CSS's subsystems or a graph's
    vertices, named with the frontier walk's state cap
    (``masks.MAX_WALK_STATES``) when the walk fell back to the table; the
    vertex cap of a graph (``grid.MAX_VERTICES``); the exact pass's region
    cap (``stabilizer.EXACT_SUBSET_CAP``) or ``engine.RECURSION_CAP``."""


class TooManyQubits(TopomiError):
    """A guard on the qubits tripped: the cap on a code lattice
    (``stabilizer.MAX_QUBITS``), raised by ``CodeLattice`` before anything
    is built, or the dense state-vector oracle's cap
    (``stabilizer.BRUTE_CAP``)."""


class DisconnectedCss(TopomiError):
    """The union of all subsystems is not edge-connected."""


class NotAnnular(TopomiError):
    """Operation requires a single-hole ring covering every subsystem."""


class NotACycle(TopomiError):
    """Subsystems touching a hole do not induce a single cycle."""


class LatticeTooSmall(TopomiError):
    """Code lattice dimensions below the supported minimum."""


class WindingRegion(TopomiError):
    """A torus grid meets every row or every column, so no planar cut holds
    its footprint; every footprint that winds around the torus does."""


class PreconditionViolated(TopomiError):
    """A validated precondition failed; the message names the failed condition."""
