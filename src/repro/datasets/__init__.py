"""Built-in datasets: the paper's running example and small test venues."""

from repro.datasets.example_floorplan import (
    TABLE_I_ATIS,
    build_example_itgraph,
    build_example_schedule,
    build_example_space,
    example_query_points,
)
from repro.datasets.simple_venues import (
    build_corridor_venue,
    build_two_room_venue,
)

__all__ = [
    "TABLE_I_ATIS",
    "build_example_space",
    "build_example_schedule",
    "build_example_itgraph",
    "example_query_points",
    "build_two_room_venue",
    "build_corridor_venue",
]
