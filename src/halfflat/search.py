"""Floating-point search for half-flat structures, with exact rationalization.

The closedness of rho is handled exactly: rho is parameterized in a basis
of the closed three-forms (computed by exact elimination and converted to
floats), so d rho = 0 holds to machine precision by construction.  The
remaining constraints are packed into a smooth penalty

    P = (|omega|^2 - 1)^2 + |d omega^2|^2 + |omega ^ rho|^2
        + hinge(lambda sign)^2 + sum_i hinge(margin - oriented eigenvalue_i)^2

minimized by L-BFGS-B with an analytic gradient under random restarts.
The first term fixes the scale gauge of omega; rho is normalized to unit
length inside the objective to remove its own.  K_rho, omega ^ omega,
omega ^ rho and their gradients are exact-order sparse sums: each output
adds the nonzero terms of its dense +-1 tensor in the order ``np.einsum``
adds them, so the values, and hence the L-BFGS paths, are those of the
dense contractions bit for bit.  A success is gated on the float residuals
and on the target's signs of lambda and the metric (``stable.TARGET_KINDS``), then
optionally rationalized by continued-fraction rounding and re-verified by
the exact pipeline; the float path never asserts existence on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import numpy as np
from scipy.optimize import minimize

from . import stable
from .exterior import _SIGN, DIM, KForm, basis_masks
from .liealg import LieAlgebra
from .stable import TARGET_KINDS
from .verify import report_text, verify

#: eigenvalue margin, relative to |S|_F, that the penalty pushes the metric past
MARGIN_OPT = 1e-2
#: smallest trace-normalized metric eigenvalue the su3 gate accepts
GATE_MARGIN = 1e-4
#: distance from zero that the lambda-sign hinge asks of lambda
LAM_GAP = 1e-2


@dataclass
class SearchResult:
    """Outcome of one search run; coefficients are in the monomial bases."""

    found: bool
    target: str
    omega: np.ndarray | None = None
    rho: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    seed: int = 0
    restarts_used: int = 0
    rationalized: tuple[KForm, KForm] | None = None

    def to_text(self) -> str:
        fields = [("found", self.found), ("target", self.target), ("seed", self.seed),
                  ("restarts_used", self.restarts_used)]
        fields += [(k, f"{v:.3e}" if isinstance(v, float) else v) for k, v in self.residuals.items()]
        if self.found and self.omega is not None:  # two spaces line rho's vector up under omega's
            fields += [("float omega", _fmt_vec(self.omega)), ("float rho", "  " + _fmt_vec(self.rho))]
        if self.rationalized is not None:
            fields += [("exact_omega", repr(self.rationalized[0])), ("exact_rho", repr(self.rationalized[1]))]
        return report_text(fields)


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(f"{x: .6f}" for x in v) + "]"


class _Terms:
    """The nonzero entries of a dense three-axis +-1 tensor t, for contracting it.

    For each output axis the entries are kept in C order, stably sorted by
    their index on that axis: the order in which ``np.einsum`` adds the
    terms of one output.  Each term is one exactly rounded product (the
    entry only flips its sign), and ``np.bincount`` adds in array order, so
    :meth:`contract` equals the einsum contraction bit for bit (the tests
    compare the two on random points of every target).
    """

    def __init__(self, t: np.ndarray):
        self.shape = t.shape
        nz = np.argwhere(t)
        self.by_out = []
        for axis in range(3):
            idx = nz[np.argsort(nz[:, axis], kind="stable")].T
            lo, hi = (idx[a] for a in range(3) if a != axis)
            self.by_out.append((idx[axis], lo, hi, t[tuple(idx)]))

    def contract(self, out: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """sum of t x y over the two axes other than ``out``; x is on the lower one."""
        o, lo, hi, s = self.by_out[out]
        return np.bincount(o, weights=s * x[lo] * y[hi], minlength=self.shape[out])


class FloatKernels:
    """Float tensors mirroring the exact operations for one algebra.

    The dense tensors ``w22``, ``w23`` and ``kt`` define the contractions;
    every evaluation runs over their nonzero terms (:class:`_Terms`).
    ``d3`` and ``d4`` are ``L.d_matrix(k)``, den * d, divided by den once as
    floats: each entry is the correctly rounded quotient, as a Fraction's float is.
    """

    def __init__(self, L: LieAlgebra):
        self.b2 = basis_masks(2)
        self.b3 = basis_masks(3)
        self.d3 = np.array(L.d_matrix(3), dtype=float) / L.den
        self.d4 = np.array(L.d_matrix(4), dtype=float) / L.den
        self.w22 = self._wedge_tensor(self.b2, self.b2, basis_masks(4))
        self.w23 = self._wedge_tensor(self.b2, self.b3, basis_masks(5))
        self.kt = self._k_tensor()
        self.t22 = _Terms(self.w22)
        self.t23 = _Terms(self.w23)
        self.tk = _Terms(self.kt.reshape(DIM * DIM, len(self.b3), len(self.b3)))
        # omega_{lo,hi} sits at Omega[lo, hi] and -omega_{lo,hi} at Omega[hi, lo]
        self.om_hi = np.array([m.bit_length() - 1 for m in self.b2])
        self.om_lo = np.array([(m & -m).bit_length() - 1 for m in self.b2])
        self.id3 = np.eye(len(self.b3))
        z3 = L.closed_forms(3)
        self.z3 = np.array(
            [[float(b.coeff(m)) for b in z3] for m in self.b3]
        )  # shape (20, dim Z3)

    @staticmethod
    def _wedge_tensor(ba, bb, out_masks) -> np.ndarray:
        out_index = {m: i for i, m in enumerate(out_masks)}
        out = np.zeros((len(ba), len(bb), len(out_index)))
        for i, ma in enumerate(ba):
            for j, mb in enumerate(bb):
                if ma & mb == 0:
                    out[i, j, out_index[ma | mb]] = _SIGN[(ma, mb)]
        return out

    def _k_tensor(self) -> np.ndarray:
        """T[u,v,i,j] with K_{uv}(rho) = sum T[u,v,i,j] rho_i rho_j, from stable.K_TABLE."""
        idx = {m: n for n, m in enumerate(self.b3)}
        out = np.zeros((DIM, DIM, len(self.b3), len(self.b3)))
        for mi, entries in stable.K_TABLE.items():
            for v, mj, u, sign in entries:
                out[u, v, idx[mi], idx[mj]] = sign
        return out

    # -- float evaluations ------------------------------------------------

    def k_grad(self, a: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Gradient in r of sum_uv a_uv K_uv(r)."""
        f = a.ravel()
        return self.tk.contract(1, f, r) + self.tk.contract(2, f, r)

    def wedge22(self, w: np.ndarray) -> np.ndarray:
        return self.t22.contract(2, w, w)

    def wedge23(self, w: np.ndarray, r: np.ndarray) -> np.ndarray:
        return self.t23.contract(2, w, r)

    def pair(self, w: np.ndarray, r: np.ndarray):
        """(K, lambda, eps, Omega, G = eps Omega K) of the pair at (w, r), the float ``StablePair``."""
        k = self.tk.contract(0, r, r).reshape(DIM, DIM)
        lam = float(np.trace(k @ k)) / 6.0
        eps = stable.EPSILON_PARA if lam > 0 else stable.EPSILON
        om = np.zeros((DIM, DIM))
        om[self.om_lo, self.om_hi] = w
        om[self.om_hi, self.om_lo] = -w
        return k, lam, eps, om, eps * (om @ k)

    def residuals(self, w: np.ndarray, r: np.ndarray) -> dict:
        """Float residuals of d rho, d omega^2 and omega ^ rho, plus lambda."""
        return {
            "resid_drho": float(np.linalg.norm(self.d3 @ r)),
            "resid_domega2": float(np.linalg.norm(self.d4 @ self.wedge22(w))),
            "resid_omega_rho": float(np.linalg.norm(self.wedge23(w, r))),
            "lambda_float": self.pair(w, r)[1],
        }


def _hinge(x: float) -> float:
    return x if x > 0 else 0.0


class _Penalty:
    """Smooth penalty and analytic gradient for one target of ``TARGET_KINDS``.

    The ``KIND_SIGNS`` of its kinds, in order, give lambda's sign, the (positive, negative) eigenvalue
    counts the gate accepts and the negative counts the hinges choose from.  A definite target's sign
    follows the trace instead, as the float metric has no orientation.
    """

    def __init__(self, kern: FloatKernels, target: str):
        self.k = kern
        self.target = target
        self.nz = kern.z3.shape[1]
        signs = [stable.KIND_SIGNS[kind] for kind in TARGET_KINDS[target]]
        self.lam_sign = signs[0][0]
        self.signatures = {(p, q) for _, p, q in signs}
        self.negatives = tuple(q for _, _, q in signs)

    def split(self, x: np.ndarray):
        """(omega, z): the coordinates of omega on the two-form basis and of rho on the basis of Z^3."""
        return x[: len(self.k.b2)], x[len(self.k.b2) :]

    def decode(self, x: np.ndarray):
        """(omega, z, rho, n) at x: rho = Z^3 z / n with n = |Z^3 z|, or None for a degenerate n < 1e-9."""
        w, z = self.split(x)
        rho_raw = self.k.z3 @ z
        n = np.linalg.norm(rho_raw)
        return w, z, None if n < 1e-9 else rho_raw / n, n

    def value_grad(self, x: np.ndarray):
        kern = self.k
        w, z, r, n = self.decode(x)
        if r is None:
            # degenerate rho: walk outward
            return 1e6 - float(z @ z), np.concatenate([np.zeros(len(w)), -2 * z])
        # projector for the normalization gauge, mapped back to z-space
        dr_dz = (kern.id3 - np.outer(r, r)) @ kern.z3 / n

        grad_w = np.zeros(len(w))
        grad_z = np.zeros(self.nz)

        # omega scale gauge: keeps the two-form away from the trivial zero
        gauge = float(w @ w) - 1.0
        p0 = gauge * gauge
        grad_w += 4.0 * gauge * w

        # |d omega^2|^2
        r1 = kern.d4 @ kern.wedge22(w)
        p1 = float(r1 @ r1)
        dq = 2.0 * (kern.d4.T @ r1)
        grad_w += 2.0 * kern.t22.contract(0, w, dq)

        # |omega ^ rho|^2
        r2 = kern.wedge23(w, r)
        p2 = float(r2 @ r2)
        grad_w += 2.0 * kern.t23.contract(0, r, r2)
        grad_r = 2.0 * kern.t23.contract(1, w, r2)

        # lambda sign hinge: lam_sign * lambda at least LAM_GAP
        kmat, lam, eps, om, g = kern.pair(w, r)
        dlam_dr = kern.k_grad(kmat.T, r) / 3.0
        h = _hinge(LAM_GAP - self.lam_sign * lam)
        p3 = h * h
        if h > 0:
            grad_r -= 2.0 * h * self.lam_sign * dlam_dr

        # eigenvalue hinges on the symmetrized metric matrix
        s = 0.5 * (g + g.T)
        evals, evecs = np.linalg.eigh(s)
        scale = max(float(np.linalg.norm(s)), 1e-12)
        m0 = MARGIN_OPT * scale
        p4 = 0.0
        ds = np.zeros((DIM, DIM))
        wants = self._wanted_signs(evals)
        hsum = 0.0
        for idx in range(DIM):
            sgn = wants[idx]
            h = _hinge(m0 - sgn * evals[idx])
            if h > 0.0:
                p4 += h * h
                hsum += 2.0 * h
                ds -= 2.0 * h * sgn * np.outer(evecs[:, idx], evecs[:, idx])
        if hsum > 0.0:
            # the margin itself scales with |S|_F
            ds += hsum * MARGIN_OPT * s / scale
        if p4 > 0.0:
            # dS from omega: d g = eps * d Omega @ K (antisymmetric slots)
            dg = eps * (ds @ kmat.T)
            grad_w += 0.5 * (dg[kern.om_lo, kern.om_hi] - dg[kern.om_hi, kern.om_lo]) * 2.0
            # dS from rho through K
            grad_r += kern.k_grad(eps * (om.T @ ds), r)

        grad_z += dr_dz.T @ grad_r
        total = p0 + p1 + p2 + p3 + p4
        return total, np.concatenate([grad_w, grad_z])

    def _wanted_signs(self, evals: np.ndarray) -> np.ndarray:
        if self.negatives == (0,):
            return np.full(DIM, 1.0 if float(np.sum(evals)) >= 0 else -1.0)
        order = np.argsort(evals)
        # the hinge mass of pushing the n lowest negative and the rest positive; a tie takes the first count
        cost = lambda n: sum(max(0.0, evals[i]) for i in order[:n]) + sum(max(0.0, -evals[i]) for i in order[n:])
        n = min(self.negatives, key=cost) if len(self.negatives) > 1 else self.negatives[0]
        wants = np.ones(DIM)
        wants[order[:n]] = -1.0
        return wants


def find_halfflat(
    L: LieAlgebra,
    target: str = "su3",
    restarts: int = 10_000,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 600,
) -> SearchResult:
    """Random-restart penalty minimization for a half-flat pair on L.

    Restarts run sequentially with per-restart seeded streams, so the
    result is reproducible and independent of any scheduling.  The first
    restart whose polished minimum passes the float gate wins.
    """
    if target not in TARGET_KINDS:
        raise ValueError(f"target must be one of {sorted(TARGET_KINDS)}")
    kern = FloatKernels(L)
    pen = _Penalty(kern, target)
    nvar = len(kern.b2) + kern.z3.shape[1]
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        x0 = rng.standard_normal(nvar)
        res = minimize(
            pen.value_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": 1e-18, "gtol": 1e-14},
        )
        if res.fun > 1e-14:
            continue
        gate = _gate(pen, res.x, tol)
        if gate is not None:
            w, r, residuals = gate
            return SearchResult(
                found=True,
                target=target,
                omega=w,
                rho=r,
                residuals=residuals,
                seed=seed,
                restarts_used=restart + 1,
            )
    return SearchResult(found=False, target=target, seed=seed, restarts_used=restarts)


def _gate(pen, x, tol):
    """Float acceptance gate by the rule of ``pen`` on its kernels: residuals, lambda sign, metric."""
    kern = pen.k
    w, _, r, _ = pen.decode(x)
    if r is None:
        return None
    residuals = kern.residuals(w, r)
    if max(residuals["resid_drho"], residuals["resid_domega2"], residuals["resid_omega_rho"]) > tol:
        return None
    _, lam, _, _, g = kern.pair(w, r)
    s = 0.5 * (g + g.T)
    evals = np.linalg.eigvalsh(s)
    if pen.lam_sign * lam <= 0:
        return None
    if pen.negatives == (0,):
        tr = float(np.trace(s))
        if abs(tr) < 1e-12:
            return None
        min_eig = float(np.min(evals / tr))
        residuals["min_eig_normalized"] = min_eig
        if min_eig <= GATE_MARGIN:
            return None
    else:
        scale = max(float(np.linalg.norm(s)), 1e-12)
        pos = int(np.sum(evals > 1e-6 * scale))
        neg = int(np.sum(evals < -1e-6 * scale))
        residuals["signature"] = f"({pos},{neg})"
        if (pos, neg) not in pen.signatures:
            return None
    return w, r, residuals


def rationalize(
    L: LieAlgebra,
    result: SearchResult,
    max_den: int = 64,
) -> tuple[KForm, KForm] | None:
    """Continued-fraction rounding of a found pair plus exact re-verification.

    Denominators are tried in an increasing ladder up to ``max_den``; the
    first snapped pair that passes the exact verifier (half-flat with the
    target kind) is returned, updating ``result.rationalized``.
    """
    if not result.found or result.omega is None:
        return None
    kinds = TARGET_KINDS[result.target]
    b2, b3 = basis_masks(2), basis_masks(3)
    ladder = sorted({d for d in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64) if d <= max_den})
    scale = float(np.max(np.abs(result.rho)))
    for den in ladder:
        omega = KForm(
            2,
            {
                m: Fraction(float(c)).limit_denominator(den)
                for m, c in zip(b2, result.omega)
            },
        )
        rho = KForm(
            3,
            {
                m: Fraction(float(c) / scale).limit_denominator(den)
                for m, c in zip(b3, result.rho)
            },
        )
        if omega.is_zero() or rho.is_zero():
            continue
        rep = verify(L, omega, rho)
        if rep.half_flat and rep.structure.kind in kinds:
            result.rationalized = (omega, rho)
            return omega, rho
    return None


def float_reverify(L: LieAlgebra, result: SearchResult) -> dict:
    """Recompute the residual block for a found pair (fresh kernels)."""
    return FloatKernels(L).residuals(result.omega, result.rho)
