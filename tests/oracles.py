"""Naive reference implementations used as independent oracles.

Everything here except ``normalize_graph``, ``conv2d_input_grad_full``,
``adapt_batch_full_graph`` and ``gen_domain_per_sample`` is written with
explicit Python loops over plain floats, on purpose: these functions must not
share any code path with the vectorized implementations they check.
``normalize_graph`` composes elementary autodiff ops, so that its gradients
come from the chain rule rather than from the closed form it checks.
``conv2d_input_grad_full`` is the whole-batch formula that the sample-chunked
conv2d input gradient must reproduce bit for bit. ``adapt_batch_full_graph``
is the whole-batch formulation of the fs_tta step that ``stream.adapt_batch``
must reproduce. ``gen_domain_per_sample`` draws a domain one sample at a time,
which the one-block ``data.gen_domain`` must reproduce bit for bit.
"""

import math

import numpy as np

from fewshot_tta.data import SampleRecord, class_templates
from fewshot_tta.prototypes import ema_update, proto_classify
from fewshot_tta.stream import consistency_mask, entropy_filter, online_loss, pseudo_label
from fewshot_tta.tensor import _im2col, add, div, mul, reshape, softmax, sqrt, sub, take_rows, tmean


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


def conv2d_input_grad_full(g, w):
    """The conv2d input gradient as one GEMM over the whole batch's im2col of ``g``.

    ``g`` is the N x O x H x W output gradient and ``w`` the O x C x k x k
    kernel; the result is the same-padded convolution of ``g`` with the
    kernel flipped in space and transposed in channels.
    """
    n, _, h, wd = g.shape
    o, c, k, _ = w.shape
    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * k * k)
    return (flipped @ _im2col(g, k)).reshape(c, n, h, wd).transpose(1, 0, 2, 3)


def adapt_batch_full_graph(model, bank, cfg, x):
    """The fs_tta step's decisions and loss gradient from one whole-batch graph forward.

    Every row goes through the graph; the selected rows are gathered with
    ``take_rows`` and the masked ``online_loss`` zeroes the rest. Leaves the
    loss gradient in each parameter's ``.grad`` (no optimizer step) and
    returns (predictions, selected indices, masks, loss value or None).
    """
    for p in model.params.values():
        p.grad = None
    emb, logits = model.forward(x, mode="eval")
    probs = softmax(logits)
    preds = np.argmax(logits.data, axis=1)
    sel = entropy_filter(probs.data, cfg.alpha)
    pseudo = pseudo_label(logits.data[sel])
    ema_update(bank, emb.data[sel], pseudo)
    masks = consistency_mask(probs.data[sel], proto_classify(bank, emb.data[sel]))
    loss = online_loss(take_rows(probs, sel), pseudo, masks)
    if loss is not None:
        loss.backward()
    return preds, sel, masks, None if loss is None else loss.item()


def gen_domain_per_sample(class_count, per_class_count, spec, image_size, template_seed=0):
    """One domain's records, class-major, each sample's noise drawn by its own call."""
    templates = class_templates(class_count, image_size, spec.gain.shape[0], template_seed)
    rng = np.random.default_rng(spec.seed)
    records = []
    for c in range(class_count):
        styled = spec.gain[:, None, None] * templates[c] + spec.bias[:, None, None]
        for _ in range(per_class_count):
            noise = rng.normal(0.0, spec.noise_std, size=styled.shape)
            records.append(SampleRecord(label=c, pixels=styled + noise, domain_id=spec.domain_id))
    return records


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
