"""repro -- reproduction of the SC'24 security-testbed paper.

The package reproduces, as a laptop-scale simulation, the system
described in "Security Testbed for Preempting Attacks against
Supercomputing Infrastructure" (Cao, Kalbarczyk, Iyer; NCSA/UIUC):

* :mod:`repro.core` -- the factor-graph preemption model
  (ATTACKTAGGER), baselines, and evaluation machinery.
* :mod:`repro.telemetry` -- Zeek / syslog / auditd / osquery log
  models, the raw-log-to-symbolic-alert normaliser, sanitisation and
  scan filtering.
* :mod:`repro.incidents` -- the longitudinal incident corpus
  (synthetic stand-in for NCSA's 2000-2024 archive) and the S1..S43
  attack-pattern catalogue.
* :mod:`repro.testbed` -- the testbed architecture: honeypot,
  vulnerable services, VRT, black-hole router, isolation, and the
  end-to-end alert pipeline.
* :mod:`repro.attacks` -- attack emulation (mass scanners, credential
  theft, lateral movement, the PostgreSQL ransomware) and alert replay.
* :mod:`repro.viz` -- attack-graph construction, force-directed layout,
  and export (the Fig. 1 visualisation).
* :mod:`repro.analysis` -- the longitudinal measurement study
  (Table I, Fig. 2, Fig. 3, and the insights).
* :mod:`repro.fuzz` -- the adversarial campaign fuzzer and the
  cross-configuration differential oracle (engine x shards x backend x
  driver equivalence as a generative, checked property).
* :mod:`repro.service` -- the always-on detection service: asyncio
  JSONL-over-TCP ingestion with admission control, live N->M
  resharding, and drain-then-checkpoint lifecycle.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "telemetry",
    "incidents",
    "testbed",
    "attacks",
    "viz",
    "analysis",
    "fuzz",
    "service",
    "__version__",
]
