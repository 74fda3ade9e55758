"""The full-table SU(2) plan arithmetic, kept as the oracle of the
quarter-table ``transform._Su2Plan``: every spin's whole little-d table
d^l_{ba}(beta_j) at every Gauss-Legendre node, built by ``little_d`` and
contracted in one piece."""

import numpy as np

from liefourier.dual import little_d


class FullTablePlan:
    """Reads the phase tables of ``plan`` and holds its own full tables."""

    def __init__(self, plan, grid):
        self.plan = plan
        # d^l_{ba}(beta_j) stored as [b, j, a], the axis order of the ladder cube
        self.d_tables = {k: little_d(k, grid.axes[1]).transpose(1, 0, 2) for k in plan.two_ells}

    def forward(self, values):
        plan, top = self.plan, self.plan.top
        t = np.tensordot(plan.p_fwd_a, values.reshape(plan.shape), axes=(1, 0))
        t = np.tensordot(t, plan.p_fwd_g, axes=(2, 1))
        t *= plan.c_beta[:, None]
        stacks = []
        for k in plan.two_ells:
            ids = slice(top - k, top + k + 1, 2)
            stacks.append(np.einsum("bja,bja->ab", self.d_tables[k], t[ids, :, ids])[None])
        return stacks

    def inverse_on_grid(self, stacks):
        plan, top = self.plan, self.plan.top
        acc = np.zeros((2 * top + 1, plan.shape[1], 2 * top + 1), dtype=complex)
        for k, stack in zip(plan.two_ells, stacks):
            ids = slice(top - k, top + k + 1, 2)
            acc[ids, :, ids] += self.d_tables[k] * ((k + 1) * stack[0].T[:, None, :])
        out = np.tensordot(plan.e_inv_a, acc, axes=(1, 0))
        return np.tensordot(out, plan.e_inv_g, axes=(2, 0)).ravel()
