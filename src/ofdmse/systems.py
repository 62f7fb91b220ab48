"""Per-position modulation constraints for the evaluated transmission systems.

A resource block is an n_f x n_t grid of subcarrier/symbol positions.  Each
position carries the set of modulation schemes the transmitter may pick there,
plus a role tag explaining why the set is restricted.  Four built-in systems:

  fb    full bit loading, the whole catalog everywhere
  cm    constant-modulus signalling, PSK only
  lte   four positions reserved as silent pilots, the rest unrestricted
  mlte  the pilot positions carry amplitude-modulated data (unipolar ASK) and
        the next-higher subcarrier in the same symbol is PSK-only

Custom maps can be loaded from a small text format, one position per line.
Profiles are immutable and safe to share across worker processes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .modulation import CATALOG, CATALOG_INDEX, ModulationFamily, ModulationScheme


class Role(enum.Enum):
    """Why a position's allowed set looks the way it does."""

    DATA = "data"
    PILOT = "pilot"
    AMPLITUDE_DATA = "amplitude"


FULL_SET = frozenset(CATALOG)
ASK_SET = frozenset(s for s in CATALOG if s.family is ModulationFamily.ASK)
PSK_SET = frozenset(s for s in CATALOG if s.family is ModulationFamily.PSK)
SILENT_PSK = frozenset({ModulationScheme(ModulationFamily.PSK, 1)})

SYSTEM_NAMES = ("fb", "cm", "lte", "mlte")


@dataclass(frozen=True)
class ConstraintGrid:
    """Allowed-scheme sets and role tags over an n_f x n_t resource grid.

    ``allowed[k][l]`` is the frozenset of schemes position (k, l) may use.
    Every position keeps at least one order-1 scheme so an allocator can
    always fall back to silence.  ``allowed_mask`` is the same sets as a
    read-only boolean (n_schemes, n_f, n_t) array, built with the checks.
    """

    allowed: tuple[tuple[frozenset, ...], ...]
    roles: tuple[tuple[Role, ...], ...]

    def __post_init__(self):
        if not self.allowed or not self.allowed[0]:
            raise ValueError("constraint grid must be at least 1 x 1")
        n_t = len(self.allowed[0])
        if any(len(row) != n_t for row in self.allowed):
            raise ValueError("ragged allowed grid")
        if len(self.roles) != len(self.allowed) or any(
            len(row) != n_t for row in self.roles
        ):
            raise ValueError("roles shape does not match allowed shape")
        mask = np.zeros((len(CATALOG), len(self.allowed), n_t), dtype=bool)
        for k, (row, role_row) in enumerate(zip(self.allowed, self.roles)):
            for l, (schemes, role) in enumerate(zip(row, role_row)):
                if not schemes:
                    raise ValueError(f"empty allowed set at ({k}, {l})")
                if not schemes <= FULL_SET:
                    raise ValueError(f"off-catalog scheme at ({k}, {l})")
                if not any(s.silent for s in schemes):
                    raise ValueError(f"no order-1 scheme at ({k}, {l})")
                if role is Role.PILOT and any(not s.silent for s in schemes):
                    raise ValueError(f"pilot position ({k}, {l}) must stay silent")
                if role is Role.AMPLITUDE_DATA and not schemes <= ASK_SET:
                    raise ValueError(
                        f"amplitude position ({k}, {l}) must be ASK-only"
                    )
                mask[[CATALOG_INDEX[s] for s in schemes], k, l] = True
        mask.flags.writeable = False
        object.__setattr__(self, "allowed_mask", mask)

    @property
    def n_f(self) -> int:
        return len(self.allowed)

    @property
    def n_t(self) -> int:
        return len(self.allowed[0])


@dataclass(frozen=True)
class SystemProfile:
    """A named constraint grid."""

    name: str
    grid: ConstraintGrid

    def __post_init__(self):
        if not self.name:
            raise ValueError("profile name must be non-empty")
        # the name is a CSV field, written unquoted
        if any(c in self.name for c in ',"\r\n'):
            raise ValueError(
                f"profile name {self.name!r} must not hold a comma, a double quote "
                f"or a line break"
            )


def lte_pilot_positions() -> frozenset:
    """Reference-signal positions (k, l) on the 12 x 7 block, antenna port 0."""
    return frozenset({(0, 0), (6, 0), (3, 4), (9, 4)})


@lru_cache
def build_profile(name: str, n_f: int = 12, n_t: int = 7) -> SystemProfile:
    """Construct one of the built-in system profiles on an n_f x n_t grid.

    Repeated calls with the same arguments return the same profile object,
    which is immutable and whose allowed_mask is read-only.
    """
    key = name.strip().lower().replace("-", "")
    if n_f < 1 or n_t < 1:
        raise ValueError("grid must be at least 1 x 1")
    allowed = [[FULL_SET] * n_t for _ in range(n_f)]
    roles = [[Role.DATA] * n_t for _ in range(n_f)]
    if key == "fb":
        pass
    elif key == "cm":
        allowed = [[PSK_SET] * n_t for _ in range(n_f)]
    elif key in ("lte", "mlte"):
        pilots = lte_pilot_positions()
        for k, l in pilots:
            if k >= n_f or l >= n_t:
                raise ValueError(
                    f"pilot pattern does not fit a {n_f} x {n_t} grid"
                )
        if key == "lte":
            for k, l in pilots:
                allowed[k][l] = SILENT_PSK
                roles[k][l] = Role.PILOT
        else:
            # amplitude-bearing replacements need a constant-modulus neighbour
            # on the next subcarrier so phase can be tracked there
            for k, l in pilots:
                allowed[(k + 1) % n_f][l] = PSK_SET
            for k, l in pilots:
                allowed[k][l] = ASK_SET
                roles[k][l] = Role.AMPLITUDE_DATA
    else:
        raise ValueError(f"unknown system name: {name!r}")
    grid = ConstraintGrid(
        tuple(tuple(row) for row in allowed), tuple(tuple(row) for row in roles)
    )
    return SystemProfile(key, grid)


def saturation_bits(profile: SystemProfile) -> int:
    """Block bit total when every position uses its largest allowed scheme."""
    return sum(
        max(s.bits for s in schemes)
        for row in profile.grid.allowed
        for schemes in row
    )


_ROLES_BY_NAME = {role.value: role for role in Role}


def _parse_family_set(token: str) -> frozenset:
    """Parse ``ask:8,psk:16`` into the union of family columns up to max order."""
    schemes = set()
    for part in token.split(","):
        fam_name, sep, order_text = part.partition(":")
        if not sep:
            raise ValueError(f"expected family:max_order, got {part!r}")
        try:
            family = ModulationFamily[fam_name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown family {fam_name!r}") from None
        max_order = int(order_text)
        column = [s for s in CATALOG if s.family is family and s.order <= max_order]
        if not column or column[-1].order != max_order:
            raise ValueError(f"{family.name} has no order {order_text}")
        schemes.update(column)
    return frozenset(schemes)


def load_profile(path, name: str | None = None) -> SystemProfile:
    """Read a position -> (role, allowed families) map from a text file.

    The first data line is ``n_f n_t``.  Every following line reads
    ``k l role families`` where role is data/pilot/amplitude and families is a
    comma-separated list like ``ask:8,psk:16,qam:64`` selecting each family's
    column up to the given order.  '#' starts a comment.  Every position must
    be covered exactly once.  The profile name defaults to the file stem.
    """
    path = Path(path)
    n_f = n_t = 0
    allowed: list | None = None
    roles: list | None = None
    seen = set()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if allowed is None:
                if len(fields) != 2:
                    raise ValueError("expected header 'n_f n_t'")
                n_f, n_t = int(fields[0]), int(fields[1])
                if n_f < 1 or n_t < 1:
                    raise ValueError("grid must be at least 1 x 1")
                allowed = [[None] * n_t for _ in range(n_f)]
                roles = [[None] * n_t for _ in range(n_f)]
                continue
            if len(fields) != 4:
                raise ValueError("expected 'k l role families'")
            k, l = int(fields[0]), int(fields[1])
            if not (0 <= k < n_f and 0 <= l < n_t):
                raise ValueError(f"position ({k}, {l}) outside {n_f} x {n_t} grid")
            if (k, l) in seen:
                raise ValueError(f"duplicate position ({k}, {l})")
            role_name = fields[2].lower()
            if role_name not in _ROLES_BY_NAME:
                raise ValueError(f"unknown role {fields[2]!r}")
            role = _ROLES_BY_NAME[role_name]
            schemes = _parse_family_set(fields[3])
            if role is Role.PILOT and any(not s.silent for s in schemes):
                raise ValueError("pilot positions admit only order-1 schemes")
            if role is Role.AMPLITUDE_DATA and not schemes <= ASK_SET:
                raise ValueError("amplitude positions admit only ASK schemes")
            seen.add((k, l))
            allowed[k][l] = schemes
            roles[k][l] = role
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if allowed is None:
        raise ValueError(f"{path}: empty profile file")
    missing = n_f * n_t - len(seen)
    if missing:
        raise ValueError(f"{path}: {missing} positions not specified")
    grid = ConstraintGrid(
        tuple(tuple(row) for row in allowed), tuple(tuple(row) for row in roles)
    )
    return SystemProfile(name if name is not None else path.stem, grid)
