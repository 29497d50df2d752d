"""Frozen references that the tests compare `src/tripletune` against.

Each is a scalar, one-triple-at-a-time form of a computation that the package
runs batched: the four seed scoring functions and their analytic gradients,
seed training as one Python iteration per example, the TF weight of two
predicates, whether two triples share a slot, and the Siamese score of one
pair. They are frozen: a test that finds the package equal to one of them
checks the code a run executes against an independent statement of what it
computes, so they change only with the computation itself. The package does
not import this module.

Triples are `(head, predicate, tail)` id rows, as in `KnowledgeGraph.ids`.
"""

from __future__ import annotations

import math

import numpy as np

from tripletune.seeds import EmbeddingError


# ---------------------------------------------------------------------------
# seed scoring functions and their analytic gradients
# ---------------------------------------------------------------------------

def _check_dims(*vecs: np.ndarray) -> None:
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise EmbeddingError("dimension mismatch between h, p, t")


def _as_complex(v: np.ndarray) -> np.ndarray:
    if v.shape[-1] % 2 != 0:
        raise EmbeddingError("complex-interleaved vector must have even dimension")
    return v[..., 0::2] + 1j * v[..., 1::2]


def _interleave(c: np.ndarray) -> np.ndarray:
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
    out[..., 0::2] = c.real
    out[..., 1::2] = c.imag
    return out


def score_transe(h: np.ndarray, p: np.ndarray, t: np.ndarray, norm: int = 2) -> float:
    _check_dims(h, p, t)
    r = h + p - t
    if norm == 1:
        return -float(np.sum(np.abs(r)))
    return -float(np.linalg.norm(r))


def score_transe_grad(h, p, t, norm: int = 2):
    """Returns (score, dh, dp, dt)."""
    _check_dims(h, p, t)
    r = h + p - t
    if norm == 1:
        s = -float(np.sum(np.abs(r)))
        g = -np.sign(r)
    else:
        n = float(np.linalg.norm(r))
        s = -n
        g = -r / n if n > 0 else np.zeros_like(r)
    return s, g, g.copy(), -g


def score_distmult(h: np.ndarray, p: np.ndarray, t: np.ndarray) -> float:
    _check_dims(h, p, t)
    return float(np.sum(h * p * t))


def score_distmult_grad(h, p, t):
    _check_dims(h, p, t)
    return float(np.sum(h * p * t)), p * t, h * t, h * p


def score_complex(h: np.ndarray, p: np.ndarray, t: np.ndarray) -> float:
    """Re(sum_i h_i * p_i * conj(t_i)) over the d/2 complex slots."""
    _check_dims(h, p, t)
    hc, pc, tc = _as_complex(h), _as_complex(p), _as_complex(t)
    return float(np.real(np.sum(hc * pc * np.conj(tc))))


def score_complex_grad(h, p, t):
    _check_dims(h, p, t)
    hc, pc, tc = _as_complex(h), _as_complex(p), _as_complex(t)
    s = float(np.real(np.sum(hc * pc * np.conj(tc))))
    # d Re(h p conj(t)) / d(h) as a complex Wirtinger-free pair of real partials
    dh = _interleave(np.conj(pc * np.conj(tc)))
    dp = _interleave(np.conj(hc * np.conj(tc)))
    dt = _interleave(hc * pc)          # d/d(tr) = Re(hp), d/d(ti) = Im(hp)
    return s, dh, dp, dt


def score_rotate(h: np.ndarray, p: np.ndarray, t: np.ndarray) -> float:
    """-||h o p - t||_2 with o the slotwise complex product; p must be unit-modulus."""
    _check_dims(h, p, t)
    pc = _as_complex(p)
    if not np.allclose(np.abs(pc), 1.0, atol=1e-6):
        raise EmbeddingError("rotation predicate slots must have unit modulus")
    hc, tc = _as_complex(h), _as_complex(t)
    return -float(np.linalg.norm(hc * pc - tc))


def score_rotate_grad(h, p, t):
    _check_dims(h, p, t)
    hc, pc, tc = _as_complex(h), _as_complex(p), _as_complex(t)
    if not np.allclose(np.abs(pc), 1.0, atol=1e-6):
        raise EmbeddingError("rotation predicate slots must have unit modulus")
    r = hc * pc - tc
    n = float(np.linalg.norm(r))
    s = -n
    if n == 0:
        z = np.zeros_like(h)
        return s, z, z.copy(), z.copy()
    # d||r||/d(x_re, x_im) = [Re(w), -Im(w)]/||r|| with w = conj(r) * dr/dx_re
    dh = -_interleave(np.conj(np.conj(r) * pc)) / n
    dp = -_interleave(np.conj(np.conj(r) * hc)) / n
    dt = _interleave(r) / n
    return s, dh, dp, dt


# ---------------------------------------------------------------------------
# seed training, one example at a time
# ---------------------------------------------------------------------------

def _reference_example(model_tag, params, margin, pos, negs, g_ent, g_pred, hinges):
    """One example's loss, its gradients added row by row (the scalar reference)."""
    ent = params["ent"]
    if model_tag == "rotate":
        phases = params["phases"]
        cos_p, sin_p = np.cos(phases), np.sin(phases)

        def dist_grad(h_i, p_i, t_i):
            hc = ent[h_i, 0::2] + 1j * ent[h_i, 1::2]
            tc = ent[t_i, 0::2] + 1j * ent[t_i, 1::2]
            pc = cos_p[p_i] + 1j * sin_p[p_i]
            r = hc * pc - tc
            d2 = float(np.sum(r.real ** 2 + r.imag ** 2))
            cr = np.conj(r)
            grads = (
                2.0 * _interleave(np.conj(cr * pc)),   # d||r||^2 / d h components
                2.0 * _interleave(-r),                 # d||r||^2 / d t components
                2.0 * (cr * hc * 1j * pc).real,        # d||r||^2 / d theta
            )
            return d2, grads

        loss = 0.0
        d_pos, gp = dist_grad(*pos)
        loss += d_pos
        g_ent[pos[0]] += gp[0]
        g_ent[pos[2]] += gp[1]
        g_pred[pos[1]] += gp[2]
        for neg in negs:
            d_neg, gn = dist_grad(*neg)
            hinges[int(margin - d_neg > 0)] += 1
            if margin - d_neg > 0:
                loss += margin - d_neg
                g_ent[neg[0]] -= gn[0]
                g_ent[neg[2]] -= gn[1]
                g_pred[neg[1]] -= gn[2]
        return loss

    pred = params["pred"]
    if model_tag == "transe":
        def dist_grad(h_i, p_i, t_i):
            r = ent[h_i] + pred[p_i] - ent[t_i]
            return float(r @ r), 2.0 * r

        loss = 0.0
        d_pos, gr = dist_grad(*pos)
        loss += d_pos
        g_ent[pos[0]] += gr
        g_pred[pos[1]] += gr
        g_ent[pos[2]] -= gr
        for neg in negs:
            d_neg, gr = dist_grad(*neg)
            hinges[int(margin - d_neg > 0)] += 1
            if margin - d_neg > 0:
                loss += margin - d_neg
                g_ent[neg[0]] -= gr
                g_pred[neg[1]] -= gr
                g_ent[neg[2]] += gr
        return loss

    # distmult / complex: BCE with sigmoid scores
    if model_tag == "distmult":
        grad_fn = score_distmult_grad
    else:
        grad_fn = score_complex_grad

    loss = 0.0
    for (h_i, p_i, t_i), y in [(pos, 1.0)] + [(n_, 0.0) for n_ in negs]:
        s, dh, dp, dt = grad_fn(ent[h_i], pred[p_i], ent[t_i])
        sig = 1.0 / (1.0 + math.exp(-max(-500.0, min(500.0, s))))
        loss += -math.log(max(sig if y else 1 - sig, 1e-300))
        coeff = sig - y
        g_ent[h_i] += coeff * dh
        g_pred[p_i] += coeff * dp
        g_ent[t_i] += coeff * dt
    return loss


def _reference_train_seed(g, model_tag, cfg, hinges):
    """train_seed as one Python iteration per example, with dense gradient buffers.
    `hinges` counts the negatives outside and inside the margin: [inactive, active]."""
    d = cfg.dim
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 6.0 / math.sqrt(d)
    ent = rng.uniform(-bound, bound, size=(g.num_entities, d))
    pred_key = "phases" if model_tag == "rotate" else "pred"
    if model_tag == "rotate":
        params = {"ent": ent, "phases": rng.uniform(0.0, 2.0 * math.pi,
                                                    size=(g.num_predicates, d // 2))}
    else:
        params = {"ent": ent, "pred": rng.uniform(-bound, bound, size=(g.num_predicates, d))}
    known = set(map(tuple, g.ids.tolist()))
    n = g.num_triples
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * max(0.01, 1.0 - epoch / cfg.epochs)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = g.ids[order[start:start + cfg.batch_size]]
            g_ent = np.zeros_like(params["ent"])
            g_pred = np.zeros_like(params[pred_key])
            batch_loss = 0.0
            for h_i, p_i, t_i in batch:
                negs = []
                for _ in range(cfg.negatives):
                    for _retry in range(10):
                        e_new = int(rng.integers(g.num_entities))
                        if rng.random() < 0.5:
                            neg = (e_new, p_i, t_i)
                        else:
                            neg = (h_i, p_i, e_new)
                        if neg not in known:
                            break
                    negs.append(neg)
                batch_loss += _reference_example(model_tag, params, cfg.margin,
                                                 (h_i, p_i, t_i), negs, g_ent, g_pred, hinges)
            params["ent"] -= lr * g_ent / len(batch)
            params[pred_key] -= lr * g_pred / len(batch)
            epoch_loss += batch_loss
        history.append(epoch_loss / n)
    return params, history


# ---------------------------------------------------------------------------
# pairs, the baseline's weights and the Siamese score
# ---------------------------------------------------------------------------

def shares_slot(a, b) -> bool:
    """Whether two (h, p, t) rows share their head, predicate or tail."""
    return a[0] == b[0] or a[1] == b[1] or a[2] == b[2]


def tf_weight(i: int, j: int, c: np.ndarray) -> float:
    """TF of predicates i and j: log(1 + their co-occurrence count)."""
    return math.log1p(float(c[i, j]))


def forward_pair(model, a_id: int, b_id: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The branch outputs of triples a and b and their cosine, clamped to [-1, 1]:
    0.0 when either output is zero, 1.0 for a triple against itself."""
    o = np.tanh(model.triple_embeddings[[a_id, b_id]] @ model.w1.T + model.b1)
    o_a, o_b = o[0], o[1]
    na, nb = float(np.linalg.norm(o_a)), float(np.linalg.norm(o_b))
    if na == 0.0 or nb == 0.0:
        return o_a, o_b, 0.0
    if a_id == b_id:
        return o_a, o_b, 1.0   # identical branches share all parameters
    s = float(np.dot(o_a, o_b) / (na * nb))
    return o_a, o_b, max(-1.0, min(1.0, s))


def pair_loss(s_hat: float, s_target: float) -> float:
    return (s_hat - s_target) ** 2
