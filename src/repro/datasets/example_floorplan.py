"""The paper's running example: the Figure 1 floor plan with the Table I ATIs.

The paper publishes the door schedule of the example venue (Table I) and a
handful of structural facts about its IT-Graph (Section II-A), but not the
coordinates of the floor plan.  This module therefore *reconstructs* a venue
that honours every fact the text states:

* 17 partitions ``v1``–``v17`` and 21 doors ``d1``–``d21`` with exactly the
  Table I Active Time Intervals;
* ``v1`` and ``v15`` are private partitions, ``d7`` is a private door;
* ``v1`` has the single door ``d1`` (its ``DM`` is trivial);
* ``P2D(v3) = P2D⊣(v3) = {d1, d2, d3, d5, d6}`` while
  ``P2D⊢(v3) = {d1, d2, d5, d6}`` — door ``d3`` is usable only from ``v3``
  into ``v16`` (``D2P⊣(d3) = v3``, ``D2P⊢(d3) = v16``);
* door ``d14`` is directional (the directionality example of Figure 1);
* Example 1 behaves as printed: ``ITSPQ(p3, p4, 9:00)`` has a shorter
  candidate route ``(p3, d15, d16, p4)`` that is rejected because it crosses
  the private partition ``v15`` and therefore answers ``(p3, d18, p4)``,
  while ``ITSPQ(p3, p4, 23:30)`` returns no route because ``d18`` (and every
  other door out of ``p3``'s partition) is closed by then.

The concrete coordinates are this reconstruction's own; absolute path lengths
therefore differ by a metre or two from the numbers quoted in Example 1, but
every qualitative statement of the example holds and is asserted by the test
suite.  The distance-matrix values shown for ``v16`` in Figure 2 (2 m / 4 m /
5 m) belong to the unpublished original geometry and are not reproduced.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.itgraph import ITGraph, build_itgraph
from repro.geometry.point import IndoorPoint
from repro.indoor.builder import IndoorSpaceBuilder
from repro.indoor.entities import DoorType, PartitionCategory, PartitionType
from repro.indoor.space import IndoorSpace
from repro.temporal.schedule import DoorSchedule

#: Table I of the paper: the Active Time Intervals of every door.
TABLE_I_ATIS: Dict[str, List[Tuple[str, str]]] = {
    "d1": [("5:00", "23:00")],
    "d2": [("8:00", "16:00")],
    "d3": [("6:00", "23:00")],
    "d4": [("9:00", "18:00")],
    "d5": [("6:30", "23:00")],
    "d6": [("8:00", "16:00")],
    "d7": [("6:00", "23:30")],
    "d8": [("9:00", "18:00")],
    "d9": [("0:00", "6:00"), ("6:30", "23:00")],
    "d10": [("8:00", "16:00")],
    "d11": [("5:00", "23:00")],
    "d12": [("5:00", "23:00")],
    "d13": [("5:00", "17:00"), ("18:00", "23:00")],
    "d14": [("0:00", "24:00")],
    "d15": [("8:00", "16:00")],
    "d16": [("8:00", "17:00")],
    "d17": [("0:00", "24:00")],
    "d18": [("0:00", "23:00")],
    "d19": [("8:00", "16:00")],
    "d20": [("5:00", "23:00")],
    "d21": [("8:00", "16:00")],
}

# Reconstructed rectangular footprints: (min_x, min_y, max_x, max_y, type, category).
_PARTITIONS: Dict[str, Tuple[float, float, float, float, PartitionType, PartitionCategory]] = {
    # north rooms
    "v1": (0, 12, 6, 18, PartitionType.PRIVATE, PartitionCategory.OFFICE),
    "v2": (6, 12, 11, 18, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v4": (11, 12, 18, 18, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v7": (18, 12, 26, 18, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v8": (26, 12, 33, 18, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v11": (33, 12, 44, 18, PartitionType.PUBLIC, PartitionCategory.SHOP),
    # hallway band
    "v3": (0, 6, 11, 12, PartitionType.PUBLIC, PartitionCategory.HALLWAY),
    "v16": (11, 6, 22, 12, PartitionType.PUBLIC, PartitionCategory.HALLWAY),
    "v10": (22, 6, 33, 12, PartitionType.PUBLIC, PartitionCategory.HALLWAY),
    "v13": (33, 6, 44, 12, PartitionType.PUBLIC, PartitionCategory.HALLWAY),
    # south rooms
    "v5": (0, 0, 6, 6, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v6": (6, 0, 11, 6, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v9": (11, 0, 18, 6, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v12": (18, 0, 26, 6, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v14": (26, 0, 36, 6, PartitionType.PUBLIC, PartitionCategory.SHOP),
    "v15": (36, 0, 40, 6, PartitionType.PRIVATE, PartitionCategory.STORAGE),
    "v17": (40, 0, 44, 6, PartitionType.PUBLIC, PartitionCategory.SHOP),
}

# Doors: (x, y, partition_a, partition_b, door_type, bidirectional).
# Directional doors allow movement only from partition_a to partition_b.
_DOORS: Dict[str, Tuple[float, float, str, str, DoorType, bool]] = {
    "d1": (3.0, 12.0, "v1", "v3", DoorType.PRIVATE, True),
    "d2": (8.5, 12.0, "v2", "v3", DoorType.PUBLIC, True),
    "d3": (11.0, 9.0, "v3", "v16", DoorType.PUBLIC, False),
    "d4": (11.0, 15.0, "v2", "v4", DoorType.PUBLIC, True),
    "d5": (3.0, 6.0, "v3", "v5", DoorType.PUBLIC, True),
    "d6": (8.5, 6.0, "v3", "v6", DoorType.PUBLIC, True),
    "d7": (6.0, 3.0, "v5", "v6", DoorType.PRIVATE, True),
    "d8": (18.0, 15.0, "v4", "v7", DoorType.PUBLIC, True),
    "d9": (11.0, 3.0, "v6", "v9", DoorType.PUBLIC, True),
    "d10": (22.0, 9.0, "v16", "v10", DoorType.PUBLIC, True),
    "d11": (26.0, 15.0, "v7", "v8", DoorType.PUBLIC, True),
    "d12": (33.0, 9.0, "v10", "v13", DoorType.PUBLIC, True),
    "d13": (24.0, 6.0, "v10", "v12", DoorType.PUBLIC, True),
    "d14": (38.0, 12.0, "v13", "v11", DoorType.PUBLIC, False),
    "d15": (36.0, 1.0, "v14", "v15", DoorType.PRIVATE, True),
    "d16": (38.0, 6.0, "v15", "v13", DoorType.PRIVATE, True),
    "d17": (14.0, 12.0, "v16", "v4", DoorType.PUBLIC, True),
    "d18": (33.5, 6.0, "v14", "v13", DoorType.PUBLIC, True),
    "d19": (29.0, 6.0, "v14", "v10", DoorType.PUBLIC, True),
    "d20": (42.0, 6.0, "v13", "v17", DoorType.PUBLIC, True),
    "d21": (15.0, 6.0, "v16", "v9", DoorType.PUBLIC, True),
}


def build_example_space() -> IndoorSpace:
    """Build the reconstructed Figure 1 venue (17 partitions, 21 doors)."""
    builder = IndoorSpaceBuilder("icde2020-running-example")
    for partition_id, (min_x, min_y, max_x, max_y, p_type, category) in _PARTITIONS.items():
        builder.add_rectangle_partition(
            partition_id,
            min_x,
            min_y,
            max_x,
            max_y,
            floor=0,
            partition_type=p_type,
            category=category,
            name=partition_id,
        )
    for door_id, (x, y, part_a, part_b, d_type, bidirectional) in _DOORS.items():
        builder.add_door(
            door_id,
            IndoorPoint(x, y, 0),
            between=(part_a, part_b),
            door_type=d_type,
            bidirectional=bidirectional,
        )
    return builder.build()


def build_example_schedule() -> DoorSchedule:
    """The Table I door schedule."""
    return DoorSchedule.from_pairs(TABLE_I_ATIS)


def build_example_itgraph() -> ITGraph:
    """The IT-Graph of the running example (venue + Table I schedule)."""
    return build_itgraph(build_example_space(), build_example_schedule())


def example_query_points() -> Dict[str, IndoorPoint]:
    """The query points used by the paper's figures and Example 1.

    ``p3`` and ``p4`` are positioned so that Example 1 reproduces; ``p1`` and
    ``p2`` are two additional points (inside the private office ``v1`` and
    the shop ``v8``) used by the examples and tests to exercise the
    private-endpoint rule and cross-venue routes.
    """
    return {
        "p1": IndoorPoint(3.0, 15.0, 0),   # inside private partition v1
        "p2": IndoorPoint(29.0, 15.0, 0),  # inside shop v8
        "p3": IndoorPoint(35.0, 1.0, 0),   # inside shop v14
        "p4": IndoorPoint(39.0, 11.0, 0),  # inside hallway v13
    }

