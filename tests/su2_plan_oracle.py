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
    (n, Nb, n) class arrays, folded onto gamma < 2 pi as the plan folds it: a
    class whose m are integers (half-integers) takes the sign 1 (-1) at
    gamma + 2 pi.  The inverse fills one (2 band + 1, Nb, Ng/2) array of gamma
    products; where ``plan._butterfly(band)`` holds it takes each class's
    alpha product, P and Q, and writes P + Q below 2 pi and +-(P - Q) above,
    and otherwise it extends the gamma products by their signs and takes one
    alpha product.  The forward folds all the samples once per class and
    takes that class's alpha and gamma products.  Its beta sums are the
    plan's own (``_beta_inverse``, ``_beta_forward``), so it differs from the
    plan only in streaming and in the axis order of the class arrays."""

    def __init__(self, plan):
        self.plan = plan

    def forward(self, values):
        plan, top = self.plan, self.plan.top
        na, nb, ng = plan.shape
        h = ng // 2
        v = values.reshape(na, nb, ng)
        planes, row = plan._compact(top), 0
        for parity, (ladder, square) in enumerate(zip(plan._classes(top), plan._squares(planes, top))):
            n = top + 1 - parity
            folded = v[:, :, :h] - v[:, :, h:] if (top - parity) % 2 else v[:, :, :h] + v[:, :, h:]
            t = plan.p_fwd_a[row : row + n] @ folded.reshape(na, nb * h)
            cls = (t.reshape(n * nb, h) @ plan.p_fwd_g[ladder].T).reshape(n, nb, n)
            cls *= plan.c_beta[:, None]
            square[...] = cls.transpose(1, 0, 2)
            row += n
        return plan._beta_forward(planes)

    def inverse_on_grid(self, stacks):
        plan = self.plan
        band, planes = plan._beta_inverse(stacks)
        na, nb, ng = plan.shape
        h, classes = ng // 2, plan._classes(band)
        buf = np.empty((2 * band + 1, nb, h), dtype=complex)
        row = 0
        for parity, (ladder, square) in enumerate(zip(classes, plan._squares(planes, band))):
            n = band + 1 - parity
            acc = np.ascontiguousarray(square.transpose(1, 0, 2))  # [b, j, a]
            np.matmul(acc.reshape(n * nb, n), plan.e_inv_g[ladder], out=buf[row : row + n].reshape(n * nb, h))
            row += n
        e_inv_a = plan._alpha_columns(band)
        if plan._butterfly(band):
            p = (e_inv_a[0] @ buf[: band + 1].reshape(band + 1, nb * h)).reshape(na, nb, h)
            q = (e_inv_a[1] @ buf[band + 1 :].reshape(band, nb * h)).reshape(na, nb, h)
            return np.concatenate([p + q, q - p if band % 2 else p - q], axis=2).ravel()
        sign = -1.0 if band % 2 else 1.0  # class 0's, (-1)^band; class 1 takes the other
        signs = np.r_[np.full(band + 1, sign), np.full(band, -sign)]
        whole = np.concatenate([buf, signs[:, None, None] * buf], axis=2)
        return (np.concatenate(e_inv_a, axis=1) @ whole.reshape(2 * band + 1, nb * ng)).ravel()
