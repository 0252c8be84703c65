"""Workloads: paper examples, random generators, simulated services."""

from .generators import (
    Workload,
    directory_instance,
    fd_determinacy_workload,
    id_chain_workload,
    id_width_workload,
    lookup_chain_workload,
    lookup_fanout_workload,
    random_id_workload,
    tgd_transfer_workload,
    uid_fd_workload,
)
from .webservices import (
    RateLimitExceeded,
    ServiceSelection,
    WebService,
    chemistry_service,
    movie_service,
)

from .paperschemas import (
    example_6_1_schema,
    example_8_1_story,
    query_example_6_1,
    query_q1,
    query_q1_boolean,
    query_q2,
    query_q3,
    query_q3_boolean,
    university_instance,
    university_schema,
)

__all__ = [
    "Workload", "directory_instance", "fd_determinacy_workload",
    "id_chain_workload", "id_width_workload",
    "lookup_chain_workload", "lookup_fanout_workload", "random_id_workload",
    "tgd_transfer_workload", "uid_fd_workload",
    "RateLimitExceeded", "ServiceSelection", "WebService",
    "chemistry_service", "movie_service",
    "example_6_1_schema", "example_8_1_story", "query_example_6_1",
    "query_q1", "query_q1_boolean", "query_q2", "query_q3",
    "query_q3_boolean", "university_instance", "university_schema",
]
