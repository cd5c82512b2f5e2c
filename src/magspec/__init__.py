"""magspec: lattice laboratory for semiclassical magnetic operators.

Discretizes H = (1/p) * (magnetic Bochner Laplacian) + V on 2D model
geometries and measures Landau-level clustering, spectral gaps, and the
exponential localization of gap eigenstates near interface sets.
"""

__version__ = "0.1.0"

from .lattice import DistanceField, Lattice, build_lattice, distance_to_set
from .fields import (EdgeIntegrals, FieldSpec, GaugeLinks, PotentialField,
                     ScalarField, apply_gauge_transform, constant_potential,
                     edge_integrals, gauge_links, gaussian_bump_potential,
                     plaquette_holonomy, sample_field, trivial_links,
                     zero_potential)
from .operators import SparseHermitian, assemble_H, gershgorin_interval
from .model import (InterfaceSet, SigmaUnion, dist_to_sigma,
                    distances_to_sigma, find_gaps, interface_set,
                    landau_level, sigma_region)
from .solvers import (SpectrumSlice, count_below, dense_spectrum, read_slice,
                      window_eigs, write_slice)
from .analysis import (FilteredSlice, LocalizationReport, boundary_filter,
                       decay_fit, localization_report, mass_fraction_beyond,
                       scaling_exponent, weighted_mass)
