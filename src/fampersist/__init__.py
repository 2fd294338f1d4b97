"""Persistence modules of one-parameter families of PL functions.

Core pipeline: a PLFamily (base complex, time breakpoints, vertex values)
becomes a triangulated PrismComplex; slab sublevel subcomplexes over time
windows [a, b] at levels c give a 3-parameter persistence module per
homology degree; Cerf diagrams, cobordism classes, thin decompositions and
interleaving rank checks are computed on top.
"""

from .cerf import (AmbiguityError, CerfDiagram, CerfError, CobordismClass,
                   classify_cobordism, classify_sign, fiber_critical_vertices,
                   trace_cerf)
from .family import (FamilyError, KernelSpec, PLFamily, cylinder_family,
                     hat_family, kde_family, nw_regression_family,
                     point_family, wrinkled_cylinder_family, zigzag_family)
from .homology import (Barcode, FieldSpec, HomologyError, betti,
                       index_filtration, induced_rank, staged_reduce)
from .module3 import (BettiReport, IntervalSummand, Module3, ModuleError,
                      Subdiagram, ThinRefusal, betti_report, build_module,
                      check_indecomposable_sufficient, finite_subdiagram,
                      thin_decompose)
from .rational import format_rational, parse_rational
from .simplicial import (ComplexError, PrismComplex, SimplicialComplex,
                         SlabSubcomplex, build_prism, slab_sublevel)
from .stability import (PerturbationReport, check_interleaving_necessary,
                        sup_distance)
from .svg import render_cerf_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
