"""Exact flattening and Koszul flattening matrices of homogeneous
polynomials, their ranks, and the closed-form rank bounds they certify."""

from .exactla import (
    EXACT_COLUMN_LIMIT,
    RankResult,
    SparseMatrix,
    binomial,
    rank_auto,
    rank_exact,
    rank_modular,
)
from .formulas import (
    BoundReport,
    S_formula,
    border_rank_lb,
    chowsrank_bound,
    chowsrank_intermediate_sum,
    generic_kyfl11_rank,
    hook_dim,
    num_ab,
    perm_cat_rank,
    permcom_gap,
    psp_rank_bounds,
    secant_chow_cat_rank,
    secant_chow_koszul_ub,
    veronese_point_rank,
)
from .koszul import (
    exterior_derivative,
    koszul_flattening,
    wedge_basis,
    wedge_insert,
)
from .symtensor import (
    InhomogeneityError,
    ParseError,
    Poly,
    apply_linear_map,
    catalecticant,
    gen_kyfl11_witness,
    gen_permanent,
    gen_power_sum_power,
    gen_product,
    gen_random,
    gen_sum_of_products,
    monomial_basis,
    parse_poly,
    partial_derivative,
    set_variables_to_zero,
    shifted_partials,
)

__version__ = "0.1.0"
