"""Testbed architecture: honeypot, services, VRT, BHR, isolation, pipeline.

Implements the ATTACKTAGGER testbed of §IV: the address space and
cluster topology, the honeypot entry points with vulnerable services
and published credential hints, the Vulnerability Reproduction Tool,
the black-hole router with its programmable client, the
isolation/egress policies, and the end-to-end pipeline that takes the
mirrored traffic to the detectors and the response path.
"""

from .addresses import (
    AddressAllocator,
    AddressBlock,
    PRODUCTION_NETWORK,
    SECONDARY_NETWORK,
    TESTBED_NETWORK,
    int_to_ip,
    ip_to_int,
    random_external_address,
)
from .bhr import BHRClient, BlackHoleRouter, BlockEntry, ScanRecord
from .checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from .honeypot import DEFAULT_ENTRY_POINTS, CredentialHint, EntryPoint, Honeypot
from .isolation import (
    EgressAttempt,
    EgressPolicy,
    EgressVerdict,
    OverlayNetwork,
    VMInstance,
    VMLifecycleManager,
    VMState,
)
from .pipeline import PipelineStats, TestbedPipeline
from .responder import (
    OperatorNotification,
    ResponseAction,
    ResponseOrchestrator,
    ResponsePolicy,
    ResponseRecord,
)
from .sharding import (
    BACKENDS,
    DetectorTemplate,
    PoolCloseResult,
    RecoveryEvent,
    ReshardEvent,
    ShardRecoveryError,
    ShardedDetectorPool,
    ShardWorkerError,
    shard_of,
)
from .stages import DetectionStage, PipelineStage, ResponseStage
from .services import (
    ELF_MAGIC_HEX,
    PostgresHoneypotService,
    QueryResult,
    SSHHoneypotService,
    ServiceMonitors,
    ServiceState,
    VulnerableService,
)
from .topology import ClusterTopology, Host, HostRole, NetworkSegment, build_default_topology
from .vrt import (
    CVE_CATALOGUE,
    ContainerSpec,
    DebianRelease,
    DEBIAN_RELEASES,
    PackageVersion,
    SnapshotRepository,
    VulnerabilityReproductionTool,
    default_package_history,
)

__all__ = [
    # addresses
    "AddressBlock",
    "AddressAllocator",
    "PRODUCTION_NETWORK",
    "SECONDARY_NETWORK",
    "TESTBED_NETWORK",
    "ip_to_int",
    "int_to_ip",
    "random_external_address",
    # topology
    "ClusterTopology",
    "Host",
    "HostRole",
    "NetworkSegment",
    "build_default_topology",
    # services
    "ServiceState",
    "ServiceMonitors",
    "QueryResult",
    "VulnerableService",
    "PostgresHoneypotService",
    "SSHHoneypotService",
    "ELF_MAGIC_HEX",
    # honeypot
    "Honeypot",
    "EntryPoint",
    "CredentialHint",
    "DEFAULT_ENTRY_POINTS",
    # isolation
    "OverlayNetwork",
    "EgressPolicy",
    "EgressVerdict",
    "EgressAttempt",
    "VMLifecycleManager",
    "VMInstance",
    "VMState",
    # vrt
    "VulnerabilityReproductionTool",
    "SnapshotRepository",
    "ContainerSpec",
    "PackageVersion",
    "DebianRelease",
    "DEBIAN_RELEASES",
    "CVE_CATALOGUE",
    "default_package_history",
    # bhr
    "BlackHoleRouter",
    "BHRClient",
    "BlockEntry",
    "ScanRecord",
    # sharding / stages
    "BACKENDS",
    "DetectorTemplate",
    "PoolCloseResult",
    "RecoveryEvent",
    "ReshardEvent",
    "ShardedDetectorPool",
    "ShardRecoveryError",
    "ShardWorkerError",
    "shard_of",
    "PipelineStage",
    "DetectionStage",
    "ResponseStage",
    # checkpoint
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "read_checkpoint",
    "write_checkpoint",
    # responder / pipeline
    "ResponseOrchestrator",
    "ResponsePolicy",
    "ResponseAction",
    "ResponseRecord",
    "OperatorNotification",
    "TestbedPipeline",
    "PipelineStats",
]
