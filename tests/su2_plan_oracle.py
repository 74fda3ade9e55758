"""The full-table, full-square SU(2) plan arithmetic, kept as the oracle of
``transform._Su2Plan``: every spin's whole little-d table d^l_{ba}(beta_j)
at every Gauss-Legendre node, built by ``little_d``, and the alpha/gamma
products over the whole (2 top + 1)^2 ladder square in ladder order, zero
checkerboard half included."""

import numpy as np

from liefourier.dual import little_d


class FullTablePlan:
    """Reads the spins, weights and shape of ``plan`` and holds its own tables."""

    def __init__(self, plan, grid):
        self.plan = plan
        alpha, beta, gamma = grid.axes
        m = (plan.top - np.arange(2 * plan.top + 1)) / 2.0
        self.p_fwd_a = np.exp(1j * np.outer(m, alpha))
        self.p_fwd_g = np.exp(1j * np.outer(m, gamma))
        self.e_inv_a = np.exp(-1j * np.outer(alpha, m))
        self.e_inv_g = np.exp(-1j * np.outer(m, gamma))
        # d^l_{ba}(beta_j) stored as [b, j, a], the axis order of the ladder cube
        self.d_tables = {k: little_d(k, beta).transpose(1, 0, 2) for k in plan.two_ells}

    def forward(self, values):
        plan, top = self.plan, self.plan.top
        t = np.tensordot(self.p_fwd_a, values.reshape(plan.shape), axes=(1, 0))
        t = np.tensordot(t, self.p_fwd_g, axes=(2, 1))
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
        out = np.tensordot(self.e_inv_a, acc, axes=(1, 0))
        return np.tensordot(out, self.e_inv_g, axes=(2, 0)).ravel()


class WholeArrayPlan:
    """The compact-class arithmetic of ``plan`` over the whole grid at once, on
    (n, Nb, n) class arrays: the inverse fills one (2 band + 1, Nb, Ng) array
    of gamma products and takes one alpha product of it, the forward one alpha
    product of all the samples and one gamma product per class.  Its beta sums
    are the plan's own (``_beta_inverse``, ``_beta_forward``), so it differs
    from the plan only in streaming and in the axis order of the class arrays."""

    def __init__(self, plan):
        self.plan = plan

    def forward(self, values):
        plan, top = self.plan, self.plan.top
        na, nb, ng = plan.shape
        t = (plan.p_fwd_a @ values.reshape(na, nb * ng)).reshape(-1, nb, ng)
        planes, row = plan._compact(top), 0
        for parity, (ladder, square) in enumerate(zip(plan._classes(top), plan._squares(planes, top))):
            n = top + 1 - parity
            cls = (t[row : row + n].reshape(n * nb, ng) @ plan.p_fwd_g[ladder].T).reshape(n, nb, n)
            cls *= plan.c_beta[:, None]
            square[...] = cls.transpose(1, 0, 2)
            row += n
        return plan._beta_forward(planes)

    def inverse_on_grid(self, stacks):
        plan = self.plan
        band, planes = plan._beta_inverse(stacks)
        _, nb, ng = plan.shape
        classes = plan._classes(band)
        buf = np.empty((2 * band + 1, nb, ng), dtype=complex)
        row = 0
        for parity, (ladder, square) in enumerate(zip(classes, plan._squares(planes, band))):
            n = band + 1 - parity
            acc = np.ascontiguousarray(square.transpose(1, 0, 2))  # [b, j, a]
            np.matmul(acc.reshape(n * nb, n), plan.e_inv_g[ladder], out=buf[row : row + n].reshape(n * nb, ng))
            row += n
        return (plan.e_inv_a[:, np.r_[classes]] @ buf.reshape(2 * band + 1, nb * ng)).ravel()
