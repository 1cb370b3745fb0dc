"""Geometric quorum systems for dense sensor networks.

Curve-based read/write quorums on the unit sphere, a symmetric harmonic
embedding of arbitrary simply-connected deployments, and a load simulator
with a reproducible experiment CLI.
"""

from .errors import (ConfigError, DegenerateInput, DegenerateMesh, GeoqError,
                     NoConvergence, NotFound, OutOfRange)
from .sphere import (GeodesicPolyline, SphericalCircle, SphericalSpiral,
                     antipode, circle_with_radius, count_intersections,
                     geodesic_distance, great_circle_through, latitude_circle,
                     sample, spiral_for, unit_vector)
from .mesh import (DoubledMesh, PlanarMesh, double_cover, generate_deployment,
                   load_mesh, point_in_polygon, save_mesh, triangulate)
from .embedding import (DistortionReport, EmbeddingStats, SphericalEmbedding,
                        distortion_report, harmonic_sphere_map, load_embedding,
                        locate, save_embedding)
from .quorums import (DataType, QuorumSystemKind,
                      geometric_robustness, hash_location, read_quorum,
                      write_quorum)
from .loadsim import (Metrics, RunGeometry, Workload, charge, discrete_robustness,
                      level_sets, rasterize, run, run_geometry)
from .config import ExperimentConfig, load_config, preset

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
