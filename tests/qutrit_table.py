"""Hand-written closed form of the qutrit Hamiltonian generator.

Independent oracle for the structure-constant construction in
``liouvlab.superop``: every entry of -(i/2) Tr([H, sigma_j] sigma_i) for
the nine ``HermitianParams`` written out by hand, in the Gell-Mann order of
``build_basis(3)``.  The library builds the same matrix from the basis
product tensor, so the two share no code.
"""

import numpy as np

from liouvlab.superop import HermitianParams, Superoperator


def explicit_qutrit_superop(params: HermitianParams) -> Superoperator:
    """Closed-form qutrit Hamiltonian generator, entry by entry."""
    h1, h2, h3, h4, h5, h6, h7, h8, h9 = params.h
    r3 = np.sqrt(3.0)
    m = np.array(
        [
            [0, h6 - h1, 2 * h3, -h8, h7, -h5, h4, 0, 0],
            [h1 - h6, 0, -2 * h2, -h7, -h8, h4, h5, 0, 0],
            [-2 * h3, 2 * h2, 0, -h5, h4, h8, -h7, 0, 0],
            [h8, h7, h5, 0, h9 - h1, -h3, -h2, r3 * h5, 0],
            [-h7, h8, -h4, h1 - h9, 0, h2, -h3, -r3 * h4, 0],
            [h5, -h4, -h8, h3, -h2, 0, h9 - h6, r3 * h8, 0],
            [-h4, -h5, h7, h2, h3, h6 - h9, 0, -r3 * h7, 0],
            [0, 0, 0, -r3 * h5, r3 * h4, -r3 * h8, r3 * h7, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0],
        ],
        dtype=float,
    )
    return Superoperator(dim=3, matrix=m)
