"""Covering numbers, character degrees, and length functions for small
finite groups, with exact arithmetic wherever the answer is a rational.

The layers, bottom to top: permutations and prime-field matrices
(permutations, gf), full group enumeration with conjugacy machinery
(engine), class-product covering analysis (covering), character degrees
and mixing (chars), explicit witness constructions (constructions), and
the group-spec grammar plus CLI (groupspec, cli).  Unitary length
geometry (unitgeom) stands beside them as a leaf: it depends on numpy
alone and imports no other qrg module.
"""

from .chars import (
    CharacterDegrees,
    MixingReport,
    character_degrees,
    gowers_mixing,
    min_normal_index,
    quasirandom_degree,
)
from .constructions import (
    Infeasible,
    brenner_sigma,
    double_embed,
    jordan_of_sigma,
    perm_matrix,
    solve_two_prime,
    symplectic_check,
)
from .covering import (
    CoveringReport,
    covering_number,
    covering_property,
    double_covering_feasible,
)
from .engine import (
    GroupTable,
    center,
    cosocle,
    direct_product,
    enumerate_group,
    is_perfect,
    normal_subgroups,
    quotient,
)
from .errors import CapExceeded, ParseError
from .gf import FFMatrix, PrimeField, classical_generators, jordan_length
from .groupspec import build_group, parse_spec, render_spec
from .permutations import Permutation, cycle_string, parse_cycles
from .unitgeom import (
    UnitaryPoint,
    haar_unitary,
    hs_length,
    length_axioms_check,
    packing_threshold,
    power_length_witness,
)

__version__ = "0.1.0"
