"""Naive reference implementations used as independent oracles.

Everything here except ``normalize_graph`` is written with explicit Python
loops over plain floats, on purpose: these functions must not share any code
path with the vectorized implementations they check. ``normalize_graph``
composes elementary autodiff ops, so that its gradients come from the chain
rule rather than from the closed form it checks.
"""

import math

from fewshot_tta.tensor import add, div, mul, reshape, sqrt, sub, tmean


def conv2d_loops(x, w):
    """Direct quadruple-loop convolution, stride 1, same zero padding."""
    n, c, h, wd = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    o, k = len(w), len(w[0][0])
    p = k // 2
    out = [[[[0.0] * wd for _ in range(h)] for _ in range(o)] for _ in range(n)]
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                ii, jj = i + ki - p, j + kj - p
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += x[ni][ci][ii][jj] * w[oi][ci][ki][kj]
                    out[ni][oi][i][j] = acc
    return out


def channel_stats_loops(x):
    """Per-(sample, channel) spatial mean and population std."""
    mus, sigmas = [], []
    for sample in x:
        mu_row, sig_row = [], []
        for chan in sample:
            vals = [v for row in chan for v in row]
            mu = sum(vals) / len(vals)
            var = sum((v - mu) ** 2 for v in vals) / len(vals)
            mu_row.append(mu)
            sig_row.append(math.sqrt(var))
        mus.append(mu_row)
        sigmas.append(sig_row)
    return mus, sigmas


def instance_norm_loops(x, gamma, beta, eps):
    """Standardize each (sample, channel) plane, then apply the affine."""
    mus, _ = channel_stats_loops(x)
    out = []
    for si, sample in enumerate(x):
        planes = []
        for ci, chan in enumerate(sample):
            vals = [v for row in chan for v in row]
            mu = mus[si][ci]
            var = sum((v - mu) ** 2 for v in vals) / len(vals)
            denom = math.sqrt(var + eps)
            planes.append([[gamma[ci] * (v - mu) / denom + beta[ci] for v in row] for row in chan])
        out.append(planes)
    return out


def normalize_graph(x, gamma, beta, axes, eps):
    """gamma * (x - mu) / sqrt(var + eps) + beta as a graph of elementary ops.

    Statistics are pooled over ``axes``: (2, 3) for instance norm, (0, 2, 3)
    for the batch-statistics path of ``Backbone.forward``.
    """
    c = x.shape[1]
    mu = tmean(x, axis=axes, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=axes, keepdims=True)
    normed = div(centered, sqrt(add(var, eps)))
    return add(mul(reshape(gamma, 1, c, 1, 1), normed), reshape(beta, 1, c, 1, 1))


def softmax_loops(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def entropy_loops(p):
    acc = 0.0
    for v in p:
        if v > 0.0:
            acc -= v * math.log(v)
    return acc


def mix_stats_loops(mu_i, sig_i, mu_j, sig_j, lam):
    gamma_mix = [lam * a + (1.0 - lam) * b for a, b in zip(sig_i, sig_j)]
    beta_mix = [lam * a + (1.0 - lam) * b for a, b in zip(mu_i, mu_j)]
    return beta_mix, gamma_mix


def apply_fda_loops(f, mu, sigma, beta_mix, gamma_mix):
    """Per-channel renormalization of one sample's feature map (eps = 0)."""
    out = []
    for ci, chan in enumerate(f):
        out.append([[gamma_mix[ci] * (v - mu[ci]) / sigma[ci] + beta_mix[ci] for v in row] for row in chan])
    return out


def prototype_init_loops(embeddings, labels, class_count):
    """Per-class mean of support embeddings."""
    d = len(embeddings[0])
    protos = []
    for c in range(class_count):
        members = [e for e, y in zip(embeddings, labels) if y == c]
        if not members:
            raise ValueError(f"class {c} has no support samples")
        protos.append([sum(m[i] for m in members) / len(members) for i in range(d)])
    return protos


def ema_update_loops(protos, ema_beta, embeddings, pseudo_labels):
    """One sliding update; classes absent from the batch keep their value."""
    out = []
    for c, proto in enumerate(protos):
        members = [e for e, y in zip(embeddings, pseudo_labels) if y == c]
        if not members:
            out.append(list(proto))
            continue
        batch_mean = [sum(m[i] for m in members) / len(members) for i in range(len(proto))]
        out.append([ema_beta * p + (1.0 - ema_beta) * b for p, b in zip(proto, batch_mean)])
    return out


def cosine_loops(a, b):
    na = math.sqrt(sum(v * v for v in a))
    nb = math.sqrt(sum(v * v for v in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def proto_classify_loops(protos, f, tau):
    sims = [cosine_loops(f, m) / tau for m in protos]
    return softmax_loops(sims)


def entropy_filter_loops(entropies, alpha):
    """Indices of the floor(alpha*B) smallest entropies, ties to lower index,
    returned in ascending index order. Full-sort oracle."""
    b = len(entropies)
    take = int(alpha * b)
    ranked = sorted(range(b), key=lambda i: (entropies[i], i))
    return sorted(ranked[:take])


def argmax_loops(row):
    best, best_v = 0, row[0]
    for i, v in enumerate(row):
        if v > best_v:
            best, best_v = i, v
    return best


def online_loss_loops(prob_rows, pseudo_labels, masks):
    """Masked mean of per-sample cross-entropy against pseudo-labels."""
    total_mask = sum(masks)
    if total_mask == 0:
        return None
    acc = 0.0
    for probs, y, m in zip(prob_rows, pseudo_labels, masks):
        if m:
            acc += -math.log(probs[y])
    return acc / total_mask


def adam_scalar_trace(g_seq, lr, beta1, beta2, eps, x0):
    """Reference Adam trajectory for one scalar parameter."""
    m = v = 0.0
    x = x0
    xs = []
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - lr * mhat / (math.sqrt(vhat) + eps)
        xs.append(x)
    return xs
