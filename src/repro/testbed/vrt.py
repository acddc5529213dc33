"""Vulnerability Reproduction Tool (VRT / "timemachine").

Reproducing an old vulnerability (say Heartbleed) requires the Linux
distribution, the vulnerable package version, and every dependency *as
they existed at the time* -- modern distributions ship patched versions
and incompatible dependencies.  NCSA's tool solves this by pointing
``debootstrap`` at the Debian snapshot archive for a chosen date.

The offline reproduction models the tool's decision logic end to end:

* a catalogue of Debian releases with their release dates,
* a snapshot repository that knows, for each (package, date), which
  version was current and what it depends on,
* :class:`VulnerabilityReproductionTool.build_container` -- given a
  date (``YYYYMMDD``) and a target package, select the release that was
  current just before that date, resolve the package's dependency
  closure from the snapshot, and return a container specification,
* a small CVE catalogue so the canonical scenarios (Heartbleed,
  Shellshock, Struts) can be reproduced by name.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
from typing import Mapping, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class DebianRelease:
    """One Debian release with its release date."""

    codename: str
    version: str
    released: _dt.date


#: Debian release history covering the snapshot archive era (2005-present).
DEBIAN_RELEASES: tuple[DebianRelease, ...] = (
    DebianRelease("sarge", "3.1", _dt.date(2005, 6, 6)),
    DebianRelease("etch", "4.0", _dt.date(2007, 4, 8)),
    DebianRelease("lenny", "5.0", _dt.date(2009, 2, 14)),
    DebianRelease("squeeze", "6.0", _dt.date(2011, 2, 6)),
    DebianRelease("wheezy", "7", _dt.date(2013, 5, 4)),
    DebianRelease("jessie", "8", _dt.date(2015, 4, 25)),
    DebianRelease("stretch", "9", _dt.date(2017, 6, 17)),
    DebianRelease("buster", "10", _dt.date(2019, 7, 6)),
    DebianRelease("bullseye", "11", _dt.date(2021, 8, 14)),
    DebianRelease("bookworm", "12", _dt.date(2023, 6, 10)),
)


@dataclasses.dataclass(frozen=True)
class PackageVersion:
    """A package version valid over a date interval in the snapshot archive."""

    name: str
    version: str
    available_from: _dt.date
    depends: tuple[str, ...] = ()
    vulnerable_to: tuple[str, ...] = ()


class SnapshotRepository:
    """Simulated snapshot.debian.org: per-date package resolution."""

    def __init__(self, packages: Optional[Sequence[PackageVersion]] = None) -> None:
        self._packages: dict[str, list[PackageVersion]] = {}
        for package in packages if packages is not None else default_package_history():
            self._packages.setdefault(package.name, []).append(package)
        for versions in self._packages.values():
            versions.sort(key=lambda p: p.available_from)

    def resolve(self, name: str, date: _dt.date) -> PackageVersion:
        """Version of ``name`` current at ``date`` (latest not newer than it)."""
        versions = self._packages.get(name)
        if not versions:
            raise KeyError(f"package not in snapshot archive: {name}")
        candidates = [v for v in versions if v.available_from <= date]
        if not candidates:
            raise LookupError(f"no snapshot of {name} exists on or before {date.isoformat()}")
        return candidates[-1]

    def dependency_closure(self, name: str, date: _dt.date) -> dict[str, PackageVersion]:
        """Resolve ``name`` and all its transitive dependencies at ``date``."""
        resolved: dict[str, PackageVersion] = {}
        stack = [name]
        while stack:
            current = stack.pop()
            if current in resolved:
                continue
            version = self.resolve(current, date)
            resolved[current] = version
            stack.extend(dep for dep in version.depends if dep not in resolved)
        return resolved


def default_package_history() -> list[PackageVersion]:
    """A small but realistic package history for the canonical scenarios."""
    return [
        # openssl: Heartbleed (CVE-2014-0160) affects 1.0.1 through 1.0.1f.
        PackageVersion("openssl", "0.9.8o-4", _dt.date(2010, 6, 1), ("libc6", "zlib1g")),
        PackageVersion("openssl", "1.0.1e-2", _dt.date(2013, 2, 11), ("libc6", "zlib1g"),
                       vulnerable_to=("CVE-2014-0160",)),
        PackageVersion("openssl", "1.0.1f-1", _dt.date(2014, 1, 6), ("libc6", "zlib1g"),
                       vulnerable_to=("CVE-2014-0160",)),
        PackageVersion("openssl", "1.0.1g-1", _dt.date(2014, 4, 7), ("libc6", "zlib1g")),
        # bash: Shellshock (CVE-2014-6271).
        PackageVersion("bash", "4.2+dfsg-0.1", _dt.date(2011, 3, 1), ("libc6",),
                       vulnerable_to=("CVE-2014-6271",)),
        PackageVersion("bash", "4.3-11", _dt.date(2014, 9, 25), ("libc6",)),
        # postgresql: the honeypot's bait service.
        PackageVersion("postgresql", "9.1.24-0", _dt.date(2011, 9, 12), ("libc6", "libssl")),
        PackageVersion("postgresql", "9.6.24-0", _dt.date(2016, 9, 29), ("libc6", "libssl"),
                       vulnerable_to=("DEFAULT-CREDENTIALS",)),
        PackageVersion("postgresql", "13.9-0", _dt.date(2020, 9, 24), ("libc6", "libssl")),
        # struts on tomcat: CVE-2017-5638.
        PackageVersion("libstruts-java", "1.2.9-5", _dt.date(2012, 2, 1), ("default-jre",),
                       vulnerable_to=("CVE-2017-5638",)),
        PackageVersion("libstruts-java", "2.5.10.1-1", _dt.date(2017, 3, 8), ("default-jre",)),
        # Support packages.
        PackageVersion("libc6", "2.11.3-4", _dt.date(2010, 1, 1)),
        PackageVersion("libc6", "2.19-18", _dt.date(2014, 9, 1)),
        PackageVersion("zlib1g", "1.2.7-1", _dt.date(2012, 5, 1), ("libc6",)),
        PackageVersion("libssl", "1.0.1e-2", _dt.date(2013, 2, 11), ("libc6",)),
        PackageVersion("default-jre", "1.7-52", _dt.date(2013, 1, 1), ("libc6",)),
    ]


#: CVE catalogue mapping advisory IDs to (package, announcement date).
CVE_CATALOGUE: Mapping[str, tuple[str, _dt.date]] = {
    "CVE-2014-0160": ("openssl", _dt.date(2014, 4, 7)),      # Heartbleed
    "CVE-2014-6271": ("bash", _dt.date(2014, 9, 24)),         # Shellshock
    "CVE-2017-5638": ("libstruts-java", _dt.date(2017, 3, 7)),  # Struts RCE
    "DEFAULT-CREDENTIALS": ("postgresql", _dt.date(2020, 9, 1)),
}


@dataclasses.dataclass(frozen=True)
class ContainerSpec:
    """The output of the VRT: everything needed to build the old container."""

    snapshot_date: _dt.date
    release: DebianRelease
    snapshot_url: str
    target_package: PackageVersion
    dependencies: tuple[PackageVersion, ...]
    reproduced_cves: tuple[str, ...]

    @property
    def is_vulnerable(self) -> bool:
        """Whether the resolved target package carries a known vulnerability."""
        return bool(self.reproduced_cves)

    def debootstrap_command(self) -> str:
        """The equivalent debootstrap invocation (documentation aid)."""
        return (
            f"debootstrap --variant=minbase {self.release.codename} ./rootfs "
            f"{self.snapshot_url}"
        )


class VulnerabilityReproductionTool:
    """Builds old-container specifications from a date and a target package."""

    SNAPSHOT_URL_TEMPLATE = "https://snapshot.debian.org/archive/debian/{date}T000000Z/"
    EARLIEST_SNAPSHOT = _dt.date(2005, 3, 12)

    def __init__(self, repository: Optional[SnapshotRepository] = None) -> None:
        self.repository = repository or SnapshotRepository()

    # -- date handling -----------------------------------------------------
    @staticmethod
    def parse_date(date: str | _dt.date) -> _dt.date:
        """Accept ``YYYYMMDD`` strings (the tool's CLI format) or date objects."""
        if isinstance(date, _dt.date):
            return date
        if len(date) != 8 or not date.isdigit():
            raise ValueError(f"dates must be YYYYMMDD, got {date!r}")
        return _dt.date(int(date[:4]), int(date[4:6]), int(date[6:8]))

    def select_release(self, date: _dt.date) -> DebianRelease:
        """The Debian release current at ``date`` (released just before it)."""
        candidates = [r for r in DEBIAN_RELEASES if r.released <= date]
        if not candidates:
            raise LookupError(f"no Debian release predates {date.isoformat()}")
        return candidates[-1]

    # -- main entry points ------------------------------------------------------
    def build_container(self, date: str | _dt.date, target_package: str) -> ContainerSpec:
        """Build a container spec for ``target_package`` as of ``date``."""
        snapshot_date = self.parse_date(date)
        if snapshot_date < self.EARLIEST_SNAPSHOT:
            raise LookupError(
                f"the snapshot archive starts {self.EARLIEST_SNAPSHOT.isoformat()}; "
                f"{snapshot_date.isoformat()} predates it"
            )
        release = self.select_release(snapshot_date)
        closure = self.repository.dependency_closure(target_package, snapshot_date)
        target = closure.pop(target_package)
        return ContainerSpec(
            snapshot_date=snapshot_date,
            release=release,
            snapshot_url=self.SNAPSHOT_URL_TEMPLATE.format(date=snapshot_date.strftime("%Y%m%d")),
            target_package=target,
            dependencies=tuple(sorted(closure.values(), key=lambda p: p.name)),
            reproduced_cves=target.vulnerable_to,
        )

    def reproduce_cve(self, cve: str, *, days_before_announcement: int = 7) -> ContainerSpec:
        """Build the container that reproduces a named CVE.

        The snapshot date is chosen shortly *before* the vulnerability's
        announcement so the unpatched version is what the archive
        resolves -- exactly the Heartbleed recipe described in §IV.A.
        """
        if cve not in CVE_CATALOGUE:
            raise KeyError(f"unknown CVE: {cve}")
        package, announced = CVE_CATALOGUE[cve]
        snapshot_date = announced - _dt.timedelta(days=days_before_announcement)
        spec = self.build_container(snapshot_date, package)
        if cve not in spec.reproduced_cves:
            raise RuntimeError(
                f"snapshot {snapshot_date.isoformat()} of {package} does not reproduce {cve}"
            )
        return spec


__all__ = [
    "DebianRelease",
    "DEBIAN_RELEASES",
    "PackageVersion",
    "SnapshotRepository",
    "default_package_history",
    "CVE_CATALOGUE",
    "ContainerSpec",
    "VulnerabilityReproductionTool",
]
