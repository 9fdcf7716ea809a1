"""Exact verification engine for the orbit method on finite nilpotent Lie rings.

Everything here computes over Z/p^k, Q_p/Z_p, or a cyclotomic field with
exact rational coefficients; no floating point enters any verification path.
"""

from orbitlab.arith import Modulus, QpModZp, kernel
from orbitlab.cyclotomic import CycNumber
from orbitlab.freelie import hall_basis, bch, exp_ad, phi_series, lambda_series, certify
from orbitlab.lazard import LieRing, Subring, exp_mul, log_group, conjugate, catalog
from orbitlab.orbits import (
    Character,
    SkewForm,
    coadjoint_act,
    enumerate_orbits,
    radical,
    stabilizer_oracle,
    kernel_lemma_check,
    kernel_lemma_all,
)
from orbitlab.polarizations import Polarization, perp, heisenberg_chain, lagrangian_extend
from orbitlab.metric import (
    MetricGroup,
    gauss_sum,
    ribbon_qhat,
    st_matrices,
)
from orbitlab.vmodel import VModelData, validate_data, verify_ribbon

__all__ = [
    "Modulus", "QpModZp", "kernel", "CycNumber",
    "hall_basis", "bch", "exp_ad", "phi_series", "lambda_series", "certify",
    "LieRing", "Subring", "exp_mul", "log_group", "conjugate", "catalog",
    "Character", "SkewForm", "coadjoint_act", "enumerate_orbits", "radical",
    "stabilizer_oracle", "kernel_lemma_check", "kernel_lemma_all",
    "Polarization", "perp", "heisenberg_chain", "lagrangian_extend",
    "MetricGroup", "gauss_sum", "ribbon_qhat", "st_matrices",
    "VModelData", "validate_data", "verify_ribbon",
]
