"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own code paths (and LAPACK where the
library uses LAPACK) so that agreement between the two routes is evidence,
not tautology.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

from lozo.sampling import STREAM_U, STREAM_V, SamplerKind, derive_seed


def jacobi_singular_values(a: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Singular values by one-sided Jacobi rotations on the columns."""
    b = np.array(a, dtype=np.float64, copy=True)
    if b.shape[0] < b.shape[1]:
        b = b.T.copy()
    n = b.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(b[:, p] @ b[:, p])
                aqq = float(b[:, q] @ b[:, q])
                apq = float(b[:, p] @ b[:, q])
                if abs(apq) <= tol * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                off = max(off, abs(apq))
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                bp = c * b[:, p] - s * b[:, q]
                bq = s * b[:, p] + c * b[:, q]
                b[:, p], b[:, q] = bp, bq
        if off == 0.0:
            break
    sv = np.sqrt(np.sum(b * b, axis=0))
    return np.sort(sv)[::-1]


def finite_difference_grad(oracle, x, xi: int, step: float = 1e-6):
    """Central-difference gradient via an explicit entry loop.

    Written independently of the library's CGE (no shared helpers) so it can
    serve as the oracle for gradient checks.
    """
    grads = []
    for a in x.layers:
        g = np.zeros_like(a)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                orig = a[i, j]
                a[i, j] = orig + step
                fp = oracle.evaluate(x, xi)
                a[i, j] = orig - step
                fm = oracle.evaluate(x, xi)
                a[i, j] = orig
                g[i, j] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def lstsq_projection(n_factor: np.ndarray, v_old: np.ndarray, v_new: np.ndarray) -> np.ndarray:
    """Brute-force argmin_N ||N_old V_old^T - N V_new^T||_F row by row via lstsq."""
    target = v_old @ n_factor.T  # column i is V_old N[i]^T
    sol, *_ = np.linalg.lstsq(v_new, target, rcond=None)
    return sol.T


def gram_rank(a: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Rank via eigenvalues of the Gram matrix; independent of any SVD.

    The threshold applies on the eigenvalue (squared singular value) scale:
    forming A^T A squares the noise floor, so this route resolves ranks whose
    spectral gap exceeds sqrt(rel_tol), which is all the tests need.
    """
    g = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    ev = np.clip(np.linalg.eigvalsh(g), 0.0, None)
    if ev.size == 0 or ev[-1] == 0.0:
        return 0
    return int(np.count_nonzero(ev > rel_tol * ev[-1]))


def ema_momentum(cs, us, beta: float) -> np.ndarray:
    """Direct recomputation of N^t = sum_s (1-beta) beta^(t-s) c_s U_s."""
    t = len(cs) - 1
    acc = np.zeros_like(us[0])
    for s, (c, u) in enumerate(zip(cs, us)):
        acc += (1.0 - beta) * beta ** (t - s) * c * u
    return acc


def reference_add_low_rank(layers, factors, scale: float) -> None:
    """X_l += scale * U_l V_l^T in place through dgemm's keyword interface on U itself, trans_b set."""
    for a, (u, v) in zip(layers, factors):
        dgemm(scale, v, u, beta=1.0, c=a.T, trans_b=True, overwrite_c=True)


def misaligned(a: np.ndarray) -> np.ndarray:
    """A writeable C-contiguous float64 copy of a whose data starts one byte into its buffer."""
    b = np.frombuffer(bytearray(a.nbytes + 1), dtype=np.float64, count=a.size, offset=1).reshape(a.shape)
    b[...] = a
    assert b.flags.c_contiguous and b.flags.writeable and not b.flags.aligned
    return b


def fresh_generator(seed: int) -> np.random.Generator:
    """A newly constructed Philox generator, the reference stream for a seed."""
    return np.random.Generator(np.random.Philox(key=seed))


def fresh_sample_v(seed: int, n: int, r: int, kind: SamplerKind) -> np.ndarray:
    """The n x r factor V of each sampler kind, drawn from a fresh generator."""
    gen = fresh_generator(seed)
    if kind is SamplerKind.STANDARD_NORMAL:
        return gen.standard_normal((n, r))
    if kind is SamplerKind.HAAR_SCALED:
        q, rr = np.linalg.qr(gen.standard_normal((n, r)))
        signs = np.where(np.diag(rr) >= 0.0, 1.0, -1.0)
        return np.sqrt(n) * (q * signs)
    idx = gen.choice(n, size=r, replace=False)
    v = np.zeros((n, r))
    v[idx, np.arange(r)] = np.sqrt(n)
    return v


def naive_lozo_step(loss, x, config, t: int, n_factors=None):
    """One lazy low-rank step that caches nothing; momentum when n_factors is given.

    Every draw builds a fresh generator, V is redrawn from its period's seeds
    at every step, and at a resample boundary both the old and the new V are
    redrawn for the momentum projection N (V_old^T V_new) / n. The arithmetic
    follows the optimizer's +eps / -2eps phases and its one pass that restores
    and updates at once, X += (eps - alpha c / r) * (U @ V.T), or with momentum
    X += 1.0 * ((eps U - (alpha / r) N) @ V.T), each with the numpy
    expression X += s * (U @ V.T), so on the small shapes the tests use
    (such as 6 x 5 at rank 2) a correct cached implementation matches it bit
    for bit; there the optimizer's in-place BLAS update rounds like that
    expression, while on layers of 512 x 512 and more the two differ by ulps.
    x is updated in place; returns the new momentum factors (None without
    momentum).
    """
    period = t // config.nu

    def v_of(i, s, p):
        return fresh_sample_v(derive_seed(config.base_seed, STREAM_V, i, p), s.n, s.r, config.v_kind)

    shapes = x.shapes
    us = [fresh_generator(derive_seed(config.base_seed, STREAM_U, i, t)).standard_normal((s.m, s.r)) for i, s in enumerate(shapes)]
    vs = [v_of(i, s, period) for i, s in enumerate(shapes)]
    if n_factors is not None and t % config.nu == 0 and t > 0:
        n_factors = [nf @ (v_of(i, s, period - 1).T @ v_of(i, s, period)) / s.n for i, (nf, s) in enumerate(zip(n_factors, shapes))]
    def perturb(scale):
        for a, u, v in zip(x.layers, us, vs):
            a += scale * (u @ v.T)

    xi, eps = t % loss.num_samples, config.epsilon
    perturb(eps)
    f_plus = float(loss.evaluate(x, xi))
    perturb(-2.0 * eps)
    f_minus = float(loss.evaluate(x, xi))
    c = (f_plus - f_minus) / (2.0 * eps)
    if n_factors is None:
        for a, u, v, s in zip(x.layers, us, vs, shapes):
            a += (eps - config.alpha * c / s.r) * (u @ v.T)
        return None
    n_factors = [config.beta * nf + (1.0 - config.beta) * c * u for nf, u in zip(n_factors, us)]
    for a, u, nf, v, s in zip(x.layers, us, n_factors, vs, shapes):
        a += 1.0 * ((eps * u - (config.alpha / s.r) * nf) @ v.T)
    return n_factors
