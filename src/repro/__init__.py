"""Reproduction of *Shortest Path Queries for Indoor Venues with Temporal
Variations* (Liu et al., ICDE 2020).

The library answers **Indoor Temporal-variation aware Shortest Path Queries
(ITSPQ)**: shortest indoor routes that only cross doors open at the moment
the traveller reaches them and that avoid private partitions.

Quickstart
----------
>>> from repro import datasets, ITSPQEngine
>>> itgraph = datasets.build_example_itgraph()
>>> points = datasets.example_query_points()
>>> engine = ITSPQEngine(itgraph)
>>> result = engine.query(points["p3"], points["p4"], "9:00", method="synchronous")
>>> result.path.door_sequence
['d18']

Package map
-----------
``repro.core``
    The paper's contribution: IT-Graph, ``Graph_Update`` snapshots, the
    ITG/S and ITG/A check strategies and the ITSPQ engine.
``repro.indoor`` / ``repro.temporal`` / ``repro.geometry``
    The substrates: indoor accessibility model, Active Time Intervals and
    checkpoints, planar geometry.
``repro.synthetic``
    Generators reproducing the paper's synthetic evaluation data (multi-floor
    mall, opening-hours model, δs2t-controlled query workloads).
``repro.datasets``
    The Figure 1 / Table I running example.
``repro.bench``
    The experiment harness that regenerates every figure of the evaluation.
``repro.io``
    JSON serialisation of venues, schedules and workloads.
"""

from repro import datasets, geometry, indoor, temporal
from repro.constants import WALKING_SPEED_KMH, WALKING_SPEED_MPS
from repro.core import (
    AsynchronousCheck,
    CacheConfig,
    CheckMethod,
    GraphSnapshot,
    GraphUpdater,
    ITGraph,
    ITSPQEngine,
    ITSPQuery,
    IndoorPath,
    QueryResult,
    SearchDeadline,
    StaticCheck,
    SynchronousCheck,
    build_itgraph,
    query_time_snapshot_path,
    static_shortest_path,
)
from repro.exceptions import (
    CorruptPayloadError,
    DeadlineExceededError,
    InvalidGeometryError,
    InvalidTimeError,
    NoPathExistsError,
    QueryError,
    ReproError,
    SerializationError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    TopologyError,
)
from repro.geometry import IndoorPoint, Point2D
from repro.indoor import (
    Door,
    DoorType,
    IndoorSpace,
    IndoorSpaceBuilder,
    Partition,
    PartitionType,
)
from repro.temporal import ATISet, CheckpointSet, DoorSchedule, TimeInterval, TimeOfDay

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # constants
    "WALKING_SPEED_KMH",
    "WALKING_SPEED_MPS",
    # geometry
    "Point2D",
    "IndoorPoint",
    # temporal
    "TimeOfDay",
    "TimeInterval",
    "ATISet",
    "CheckpointSet",
    "DoorSchedule",
    # indoor
    "Door",
    "DoorType",
    "Partition",
    "PartitionType",
    "IndoorSpace",
    "IndoorSpaceBuilder",
    # core
    "ITGraph",
    "build_itgraph",
    "GraphUpdater",
    "GraphSnapshot",
    "SynchronousCheck",
    "AsynchronousCheck",
    "StaticCheck",
    "ITSPQEngine",
    "CheckMethod",
    "ITSPQuery",
    "QueryResult",
    "IndoorPath",
    "CacheConfig",
    "SearchDeadline",
    "static_shortest_path",
    "query_time_snapshot_path",
    # exceptions
    "ReproError",
    "InvalidTimeError",
    "InvalidGeometryError",
    "TopologyError",
    "QueryError",
    "NoPathExistsError",
    "SerializationError",
    "CorruptPayloadError",
    "DeadlineExceededError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    # subpackages
    "datasets",
    "geometry",
    "indoor",
    "temporal",
]
