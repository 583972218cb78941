"""Electronic configurations: which radial shells are occupied.

A shell is an angular momentum ``l`` (plus a spin label in the
unrestricted model).  In the restricted model each shell holds
``2(2l+1)`` electrons (both spins, all magnetic sublevels sharing one
radial orbital); in the unrestricted model a shell holds ``2l+1``
electrons of its spin.  Shells are fixed by the configuration — the
solver never reassigns electrons between angular channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShellSpec", "Configuration", "ALPHA", "BETA"]

ALPHA = "alpha"
BETA = "beta"
_MODELS = ("rhf", "uhf")


@dataclass(frozen=True)
class ShellSpec:
    """One radial shell: angular momentum and (for UHF) a spin label."""

    l: int
    spin: str | None = None

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 0:
            raise ValueError(f"shell l must be a non-negative integer, got {self.l!r}")
        if self.spin is not None and self.spin not in (ALPHA, BETA):
            raise ValueError(
                f"shell spin must be {ALPHA!r}, {BETA!r} or None, got {self.spin!r}"
            )


@dataclass(frozen=True)
class Configuration:
    """Nuclear charge, model, and the occupied shells.

    Invariants enforced here: ``Z > 0``; restricted shells carry no spin
    label; unrestricted shells carry one.
    """

    Z: float
    model: str
    shells: tuple[ShellSpec, ...] = field(default=())

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if not self.Z > 0:
            raise ValueError(f"Z must be > 0, got {self.Z}")
        object.__setattr__(self, "shells", tuple(self.shells))
        for i, sh in enumerate(self.shells):
            if not isinstance(sh, ShellSpec):
                raise ValueError(f"shells[{i}] must be a ShellSpec, got {sh!r}")
            if self.model == "rhf" and sh.spin is not None:
                raise ValueError(f"shells[{i}]: restricted shells carry no spin label")
            if self.model == "uhf" and sh.spin is None:
                raise ValueError(f"shells[{i}]: unrestricted shells need a spin label")

    @property
    def n_shells(self) -> int:
        return len(self.shells)

    @property
    def max_l(self) -> int:
        return max((sh.l for sh in self.shells), default=0)

    @property
    def spin_factor(self) -> int:
        """Electrons per orbital: 2 in the restricted model, 1 in the unrestricted."""
        return 2 if self.model == "rhf" else 1

    @property
    def electron_count(self) -> int:
        """Total number of electrons the shells hold."""
        return self.spin_factor * sum(2 * sh.l + 1 for sh in self.shells)

    def shell_weight(self, i: int) -> int:
        """Degeneracy weight ``2l+1`` of shell ``i``."""
        return 2 * self.shells[i].l + 1

    def channels(self) -> dict[tuple[str | None, int], list[int]]:
        """Shell indices grouped by ``(spin, l)``, preserving input order.

        Shells in one channel share a Fock operator and must stay
        mutually orthogonal; the first listed shell takes the lowest
        eigenfunction.
        """
        out: dict[tuple[str | None, int], list[int]] = {}
        for i, sh in enumerate(self.shells):
            out.setdefault((sh.spin, sh.l), []).append(i)
        return out
