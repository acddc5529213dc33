"""Sanitisation of personally identifiable and sensitive information.

Per the paper, specific information (personal information, filenames)
is sanitised during preprocessing while the timestamp is kept.  The
sanitiser scrubs:

* e-mail addresses and phone numbers (replaced with typed placeholders),
* national identifiers that look like US SSNs,
* password-like key/value pairs,
* home-directory filenames (kept as basename class, not full path),
* IP addresses, which are *truncated* rather than removed (the paper's
  figures keep the routing prefix, e.g. ``103.102.xxx.yyy``) so that
  origin metadata stays useful for attribution.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import Any, Mapping

from .logsource import anonymize_ip

_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+")
_SSN_RE = re.compile(r"\b\d{3}-\d{2}-\d{4}\b")
_PHONE_RE = re.compile(r"\b(?:\+?1[-. ]?)?\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{4}\b")
_IP_RE = re.compile(r"\b(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})\b")
_HOME_PATH_RE = re.compile(r"/home/([\w.-]+)(/[\w./-]*)?")
_DIGIT_RE = re.compile(r"\d")
_SECRET_KEYS = ("password", "passwd", "secret", "token", "api_key", "private_key")
_ADDRESS_KEYS = ("source_ip", "destination_ip", "ip")


@functools.lru_cache(maxsize=256)
def _key_kind(key: str) -> str:
    """``"secret"``, ``"address"`` or ``"text"``, decided once per distinct key.

    The normaliser's rule code fixes the key set; the bound only guards
    against a rule that derives keys from record content.
    """
    lowered = key.lower()
    if any(secret in lowered for secret in _SECRET_KEYS):
        return "secret"
    return "address" if lowered in _ADDRESS_KEYS else "text"


@dataclasses.dataclass
class SanitizationReport:
    """Counts of what the sanitiser scrubbed (for auditing)."""

    emails: int = 0
    ssns: int = 0
    phones: int = 0
    ips_truncated: int = 0
    home_paths: int = 0
    secrets: int = 0

    def total(self) -> int:
        """Total number of scrubbed items."""
        return self.emails + self.ssns + self.phones + self.ips_truncated + self.home_paths + self.secrets


class Sanitizer:
    """Scrubs sensitive content from log text and alert metadata."""

    def __init__(self, *, ip_octets_kept: int = 2, truncate_ips: bool = True) -> None:
        self.ip_octets_kept = int(ip_octets_kept)
        self.truncate_ips = bool(truncate_ips)
        self.report = SanitizationReport()

    # -- text ---------------------------------------------------------------
    def sanitize_text(self, text: str) -> str:
        """Scrub a free-text log message.

        Five substitution passes in a fixed order (e-mail, SSN, phone,
        home path, IP), each skipped when its input cannot contain a
        match.  Every guard is a necessary condition of its pattern:
        the e-mail pattern contains a literal ``@``; the SSN, phone and
        IP patterns each need a ``\\d`` (tested with the same ``\\d``
        class), the SSN a ``-`` and the IP a ``.`` besides; the
        home-path pattern starts with the literal ``/home/``.  Each
        test reads the text its pass would read, except the digit test,
        made once after the e-mail pass and reused -- exact as well,
        since no replacement (``<ssn>``, ``<phone>``, ``/home/<user>``
        plus matched text) adds a digit.  A skipped pass would have
        substituted nothing, so the output and :attr:`report` equal
        the unguarded five-pass result.
        """
        out, report = text, self.report
        if "@" in out:
            out, count = _EMAIL_RE.subn("<email>", out)
            report.emails += count
        has_digit = _DIGIT_RE.search(out) is not None
        if has_digit and "-" in out:
            out, count = _SSN_RE.subn("<ssn>", out)
            report.ssns += count
        if has_digit:
            out, count = _PHONE_RE.subn("<phone>", out)
            report.phones += count
        if "/home/" in out:
            out, count = _HOME_PATH_RE.subn(lambda m: f"/home/<user>{m.group(2) or ''}", out)
            report.home_paths += count
        if has_digit and self.truncate_ips and "." in out:
            keep = self.ip_octets_kept
            out, count = _IP_RE.subn(lambda m: anonymize_ip(m.group(0), keep), out)
            report.ips_truncated += count
        return out

    # -- metadata ----------------------------------------------------------------
    def sanitize_metadata(self, metadata: Mapping[str, Any]) -> dict[str, Any]:
        """Scrub a metadata mapping attached to an alert.

        Secret-bearing keys are dropped entirely; string values are run
        through :meth:`sanitize_text`; IP-valued fields keep their full
        value only in the dedicated ``source_ip``/``destination_ip``
        keys (needed for attribution and response) and are truncated
        anywhere else.
        """
        clean: dict[str, Any] = {}
        for key, value in metadata.items():
            kind = _key_kind(key)
            if kind == "secret":
                self.report.secrets += 1
            elif kind == "text" and isinstance(value, str):
                clean[key] = self.sanitize_text(value)
            else:
                clean[key] = value
        return clean

    def reset_report(self) -> SanitizationReport:
        """Return the current report and start a fresh one."""
        report, self.report = self.report, SanitizationReport()
        return report


__all__ = ["Sanitizer", "SanitizationReport"]
